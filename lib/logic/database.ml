type clause = { head : Term.t; body : Term.t list }

type entry = { clause : clause; seq : int }
(* [seq] orders clauses: larger = asserted later (assertz); asserta uses
   decreasing negative sequence numbers so it sorts before everything. *)

(* A predicate's clauses are indexed by a trie over subterm paths
   (DESIGN.md §6), built as goals walk it. A node holds the entries that
   agree with the goal on every path walked to reach it, and a branch on
   a further path splits them by their subterm there: a ground subterm
   keys a child, a variable on, above or below the path puts the entry
   in the wild child that every key also reaches, and an entry lacking
   the path cannot unify with a goal that has it and is left out. Every
   list is newest first, i.e. descending seq. *)
type node = {
  mutable entries : entry list;
  mutable branches : (int list * branch) list;  (* built on first use *)
}

and branch = { keyed : node Path_key.Tbl.t; wild : node }

type pred = {
  root : node;  (* every entry *)
  mutable count : int;
  mutable next_seq : int;
  mutable min_seq : int;
}

module Sm = Map.Make (struct
  type t = string * int

  let compare (a, m) (b, n) =
    let c = String.compare a b in
    if c <> 0 then c else Int.compare m n
end)

type t = {
  mutable preds : pred Sm.t;
  mutable builtins : builtin Sm.t;
}

and ctx = { db : t; prove : Subst.t -> Term.t -> Subst.t Seq.t; depth : int }
and builtin = ctx -> Subst.t -> Term.t list -> Subst.t Seq.t

let create () = { preds = Sm.empty; builtins = Sm.empty }

let leaf entries = { entries; branches = [] }

(* the copy rebuilds its trie on demand *)
let copy db =
  {
    db with
    preds = Sm.map (fun p -> { p with root = leaf p.root.entries }) db.preds;
  }

let head_functor c =
  match Term.functor_of c.head with
  | Some fa -> fa
  | None -> invalid_arg "Database: clause head must be an atom or compound term"

let check_not_builtin db fa =
  if Sm.mem fa db.builtins then
    invalid_arg
      (Printf.sprintf "Database: %s/%d is a built-in predicate" (fst fa) (snd fa))

let get_pred db fa =
  match Sm.find_opt fa db.preds with
  | Some p -> p
  | None ->
      let p = { root = leaf []; count = 0; next_seq = 0; min_seq = -1 } in
      db.preds <- Sm.add fa p db.preds;
      p

(* Map the entry list of every built node that holds [e] through
   [update]: [node] itself, and down each branch the child that [e]'s
   subterm at the branch's path selects. *)
let rec update_node update e node =
  node.entries <- update node.entries;
  List.iter (fun (path, br) -> update_branch update e path br) node.branches

and update_branch update e path br =
  match Path_key.subterm_at path e.clause.head with
  | None -> ()
  | Some k when Term.is_ground k ->
      let child =
        match Path_key.Tbl.find_opt br.keyed k with
        | Some child -> child
        | None ->
            let child = leaf [] in
            Path_key.Tbl.add br.keyed k child;
            child
      in
      update_node update e child;
      if child.entries = [] then Path_key.Tbl.remove br.keyed k
  | Some _ -> update_node update e br.wild

(* Built from the node's entries oldest first, so prepending leaves every
   child descending. A child that got every entry shares the node's list:
   a path that does not discriminate costs no copy. *)
let branch node path =
  match List.assoc_opt path node.branches with
  | Some br -> br
  | None ->
      let br = { keyed = Path_key.Tbl.create 16; wild = leaf [] } in
      List.iter
        (fun e -> update_branch (List.cons e) e path br)
        (List.rev node.entries);
      let share child =
        if List.compare_lengths child.entries node.entries = 0 then
          child.entries <- node.entries
      in
      Path_key.Tbl.iter (fun _ child -> share child) br.keyed;
      share br.wild;
      node.branches <- (path, br) :: node.branches;
      br

(* [e] is the newest entry (assertz) or the oldest (asserta) *)
let insert p e ~newest =
  update_node (fun l -> if newest then e :: l else l @ [ e ]) e p.root;
  p.count <- p.count + 1

let assertz db c =
  let fa = head_functor c in
  check_not_builtin db fa;
  let p = get_pred db fa in
  insert p { clause = c; seq = p.next_seq } ~newest:true;
  p.next_seq <- p.next_seq + 1

let asserta db c =
  let fa = head_functor c in
  check_not_builtin db fa;
  let p = get_pred db fa in
  insert p { clause = c; seq = p.min_seq } ~newest:false;
  p.min_seq <- p.min_seq - 1

(* Structural equality of clauses up to consistent variable renaming. *)
let variant_clause c1 c2 =
  let map = Hashtbl.create 8 in
  let rmap = Hashtbl.create 8 in
  let rec go (a : Term.t) (b : Term.t) =
    match (a, b) with
    | Term.Var v, Term.Var w -> (
        match (Hashtbl.find_opt map v.Term.id, Hashtbl.find_opt rmap w.Term.id) with
        | Some w', Some v' -> w' = w.Term.id && v' = v.Term.id
        | None, None ->
            Hashtbl.add map v.Term.id w.Term.id;
            Hashtbl.add rmap w.Term.id v.Term.id;
            true
        | _ -> false)
    | Term.Atom x, Term.Atom y -> String.equal x y
    | Term.Int x, Term.Int y -> x = y
    | Term.Float x, Term.Float y -> x = y
    | Term.Str x, Term.Str y -> String.equal x y
    | Term.App (f, xs), Term.App (g, ys) ->
        String.equal f g && List.length xs = List.length ys && List.for_all2 go xs ys
    | (Term.Var _ | Term.Atom _ | Term.Int _ | Term.Float _ | Term.Str _ | Term.App _), _
      -> false
  in
  go c1.head c2.head
  && List.length c1.body = List.length c2.body
  && List.for_all2 go c1.body c2.body

let retract db c =
  let fa = head_functor c in
  match Sm.find_opt fa db.preds with
  | None -> false
  | Some p -> (
      (* entries are stored newest-first; the first match in clause order
         is therefore the LAST matching entry of the list. One
         tail-recursive pass finds it and keeps the pieces needed to
         splice it out without re-traversing. *)
      let rec scan acc found = function
        | [] -> found
        | e :: rest ->
            let found =
              if variant_clause e.clause c then Some (e, acc, rest) else found
            in
            scan (e :: acc) found rest
      in
      match scan [] None p.root.entries with
      | None -> false
      | Some (e, rev_prefix, rest) ->
          let drop = List.filter (fun x -> x.seq <> e.seq) in
          List.iter (fun (path, br) -> update_branch drop e path br) p.root.branches;
          p.root.entries <- List.rev_append rev_prefix rest;
          p.count <- p.count - 1;
          true)

let retract_all db fa = db.preds <- Sm.remove fa db.preds
let fact db h = assertz db { head = h; body = [] }
let retract_fact db h = retract db { head = h; body = [] }

let has_fact db h =
  match Term.functor_of h with
  | None -> false
  | Some fa -> (
      match Sm.find_opt fa db.preds with
      | None -> false
      | Some p ->
          List.exists
            (fun e ->
              e.clause.body = [] && variant_clause e.clause { head = h; body = [] })
            p.root.entries)

(* merge two descending-seq entry lists into one descending-seq list;
   tail-recursive so a large bucket cannot overflow the stack *)
let merge_desc a b =
  let rec go acc a b =
    match (a, b) with
    | [], l | l, [] -> List.rev_append acc l
    | x :: xs, y :: ys ->
        if x.seq > y.seq then go (x :: acc) xs b else go (y :: acc) a ys
  in
  go [] a b

(* The entries under [node] that agree with [goal] on [paths]: the keyed
   child's and the wild child's, merged. *)
let rec lookup goal node paths =
  match (node.entries, paths) with
  | [], _ | _, [] -> node.entries
  | _, path :: paths ->
      let br = branch node path in
      let k = Option.get (Path_key.subterm_at path goal) in
      let keyed =
        match Path_key.Tbl.find_opt br.keyed k with
        | Some child -> lookup goal child paths
        | None -> []
      in
      merge_desc keyed (lookup goal br.wild paths)

let clauses db goal =
  match Term.functor_of goal with
  | None -> invalid_arg "Database.clauses: goal has no functor"
  | Some fa -> (
      match Sm.find_opt fa db.preds with
      | None -> Seq.empty
      | Some p ->
          lookup goal p.root (Path_key.ground_paths ~fine:true goal)
          |> List.rev_map (fun e -> e.clause)
          |> List.to_seq)

let all_clauses db fa =
  match Sm.find_opt fa db.preds with
  | None -> []
  | Some p -> List.rev_map (fun e -> e.clause) p.root.entries

let predicates db = Sm.bindings db.preds |> List.map fst

let register_builtin db fa fn =
  if Sm.mem fa db.preds then
    invalid_arg
      (Printf.sprintf "Database: %s/%d already has clauses" (fst fa) (snd fa));
  db.builtins <- Sm.add fa fn db.builtins

let find_builtin db fa = Sm.find_opt fa db.builtins

let rename_clause c =
  let tbl : (int, Term.var) Hashtbl.t = Hashtbl.create 8 in
  let lookup id = Hashtbl.find_opt tbl id in
  let fresh (v : Term.var) =
    let w = Term.var_with_id v.Term.name (Term.fresh_id ()) in
    Hashtbl.add tbl v.Term.id w;
    Term.Var w
  in
  {
    head = Term.rename lookup fresh c.head;
    body = List.map (Term.rename lookup fresh) c.body;
  }

let size db = Sm.fold (fun _ p acc -> acc + p.count) db.preds 0

let pp_clause ppf c =
  match c.body with
  | [] -> Format.fprintf ppf "%a." Term.pp c.head
  | body ->
      Format.fprintf ppf "%a :-@ @[%a@]." Term.pp c.head
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
           Term.pp)
        body

let pp ppf db =
  Sm.iter
    (fun (name, arity) p ->
      Format.fprintf ppf "%% %s/%d@." name arity;
      List.iter
        (fun e -> Format.fprintf ppf "%a@." pp_clause e.clause)
        (List.rev p.root.entries))
    db.preds
