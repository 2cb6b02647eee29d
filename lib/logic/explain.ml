type proof = Solve.proof =
  | Fact of Term.t
  | Rule of { goal : Term.t; premises : proof list }
  | Builtin of Term.t
  | Naf of Term.t
  | Branch of { goal : Term.t; taken : proof }

let prove = Solve.prove

let first ?options db goals =
  match Seq.uncons (prove ?options db goals) with
  | Some (answer, _) -> Some answer
  | None -> None

let goal_of = function
  | Fact g | Builtin g | Naf g -> g
  | Rule { goal; _ } | Branch { goal; _ } -> goal

let rec size = function
  | Fact _ | Builtin _ | Naf _ -> 1
  | Rule { premises; _ } -> 1 + List.fold_left (fun acc p -> acc + size p) 0 premises
  | Branch { taken; _ } -> 1 + size taken

let rec depth = function
  | Fact _ | Builtin _ | Naf _ -> 1
  | Rule { premises; _ } ->
      1 + List.fold_left (fun acc p -> max acc (depth p)) 0 premises
  | Branch { taken; _ } -> 1 + depth taken

let to_dot ?(pp_goal = Term.pp) proof =
  let buf = Buffer.create 512 in
  let next = ref 0 in
  let escape s =
    String.concat ""
      (List.map
         (fun c ->
           match c with
           | '"' -> "\\\""
           | '\\' -> "\\\\"
           | '\n' -> "\\n"
           | c -> String.make 1 c)
         (List.init (String.length s) (String.get s)))
  in
  let node label attrs =
    let id = Printf.sprintf "n%d" !next in
    incr next;
    Buffer.add_string buf
      (Printf.sprintf "  %s [label=\"%s\"%s];\n" id (escape label) attrs);
    id
  in
  let goal_label p = Format.asprintf "%a" pp_goal (goal_of p) in
  let rec go p =
    match p with
    | Fact _ -> node (goal_label p) ", shape=box"
    | Builtin _ -> node (goal_label p) ", shape=diamond"
    | Naf g ->
        node
          (Format.asprintf "not provable:\n%a" pp_goal g)
          ", shape=box, style=dashed"
    | Rule { premises; _ } ->
        let id = node (goal_label p) "" in
        List.iter
          (fun premise ->
            let cid = go premise in
            Buffer.add_string buf (Printf.sprintf "  %s -> %s;\n" id cid))
          premises;
        id
    | Branch { taken; _ } -> go taken
  in
  Buffer.add_string buf "digraph proof {\n  node [fontname=\"monospace\"];\n";
  ignore (go proof);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let to_json ?(pp_goal = Term.pp) proof =
  let escape s =
    let b = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | '\r' -> Buffer.add_string b "\\r"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  in
  let next = ref 0 in
  let nodes = Buffer.create 256 and edges = Buffer.create 256 in
  let n_edges = ref 0 in
  let emit_node kind label =
    let id = !next in
    incr next;
    if id > 0 then Buffer.add_char nodes ',';
    Buffer.add_string nodes
      (Printf.sprintf "\n    { \"id\": %d, \"kind\": \"%s\", \"label\": \"%s\" }"
         id kind (escape label));
    id
  in
  let emit_edge src dst =
    if !n_edges > 0 then Buffer.add_char edges ',';
    incr n_edges;
    Buffer.add_string edges
      (Printf.sprintf "\n    { \"from\": %d, \"to\": %d }" src dst)
  in
  let label g = Format.asprintf "%a" pp_goal g in
  (* Branch nodes collapse into the taken alternative, as in {!to_dot}:
     the graph records the derivation used, not the search. *)
  let rec go p =
    match p with
    | Fact g -> emit_node "fact" (label g)
    | Builtin g -> emit_node "builtin" (label g)
    | Naf g -> emit_node "naf" (label g)
    | Rule { goal; premises } ->
        let id = emit_node "rule" (label goal) in
        List.iter (fun premise -> emit_edge id (go premise)) premises;
        id
    | Branch { taken; _ } -> go taken
  in
  let root = go proof in
  Printf.sprintf "{\n  \"root\": %d,\n  \"nodes\": [%s\n  ],\n  \"edges\": [%s%s\n}\n"
    root (Buffer.contents nodes) (Buffer.contents edges)
    (if !n_edges = 0 then "]" else "\n  ]")

let pp ?(pp_goal = Term.pp) ppf proof =
  let rec go indent p =
    let pad = String.make (2 * indent) ' ' in
    match p with
    | Fact g -> Format.fprintf ppf "%s%a   [fact]@," pad pp_goal g
    | Builtin g -> Format.fprintf ppf "%s%a   [builtin]@," pad pp_goal g
    | Naf g -> Format.fprintf ppf "%snot provable: %a   [naf]@," pad pp_goal g
    | Rule { goal; premises } ->
        Format.fprintf ppf "%s%a   [rule]@," pad pp_goal goal;
        List.iter (go (indent + 1)) premises
    | Branch { goal = _; taken } -> go indent taken
  in
  Format.fprintf ppf "@[<v>";
  go 0 proof;
  Format.fprintf ppf "@]"
