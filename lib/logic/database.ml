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

(* [shared.(i)] is [Some c] when every clause of the predicate carries
   the ground term [c] at top-level argument [i]: lookups skip the paths
   under it, on which the trie would send every entry to one child. Only
   inserts update it; a retract leaves it as it was, which can only miss
   an argument the remaining clauses now share. *)
type pred = {
  root : node;  (* every entry *)
  shared : Term.t option array;
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

type index_counts = {
  mutable branch_builds : int;
  mutable branch_entries : int;
  mutable shared_skips : int;
}

type t = {
  mutable preds : pred Sm.t;
  mutable builtins : builtin Sm.t;
  counts : index_counts;
}

and ctx = { db : t; prove : Subst.t -> Term.t -> Subst.t Seq.t; depth : int }
and builtin = ctx -> Subst.t -> Term.t list -> Subst.t Seq.t

let zero_counts () = { branch_builds = 0; branch_entries = 0; shared_skips = 0 }
let create () = { preds = Sm.empty; builtins = Sm.empty; counts = zero_counts () }
let index_counts db = db.counts
let leaf entries = { entries; branches = [] }

(* the copy rebuilds its trie on demand *)
let copy db =
  {
    db with
    preds =
      Sm.map
        (fun p -> { p with root = leaf p.root.entries; shared = Array.copy p.shared })
        db.preds;
    counts = zero_counts ();
  }

let head_functor c =
  match Term.functor_of c.head with
  | Some fa -> fa
  | None -> invalid_arg "Database: clause head must be an atom or compound term"

let check_not_builtin db fa =
  if Sm.mem fa db.builtins then
    invalid_arg
      (Printf.sprintf "Database: %s/%d is a built-in predicate" (fst fa) (snd fa))

let args_of head = match head with Term.App (_, args) -> args | _ -> []

let get_pred db fa =
  match Sm.find_opt fa db.preds with
  | Some p -> p
  | None ->
      let shared = Array.make (snd fa) None in
      let p = { root = leaf []; shared; count = 0; next_seq = 0; min_seq = -1 } in
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

(* [l] without [e]: what precedes it is copied, the rest shared *)
let without e l =
  let rec go acc = function
    | [] -> l
    | x :: rest ->
        if x.seq = e.seq then List.rev_append acc rest else go (x :: acc) rest
  in
  go [] l

(* Built from the node's entries oldest first, so prepending leaves every
   child descending. A child that got every entry shares the node's list:
   a path that does not discriminate costs no copy. *)
let branch counts node path =
  match List.assoc_opt path node.branches with
  | Some br -> br
  | None ->
      let br = { keyed = Path_key.Tbl.create 16; wild = leaf [] } in
      counts.branch_builds <- counts.branch_builds + 1;
      List.iter
        (fun e ->
          counts.branch_entries <- counts.branch_entries + 1;
          update_branch (List.cons e) e path br)
        (List.rev node.entries);
      let share child =
        if List.compare_lengths child.entries node.entries = 0 then
          child.entries <- node.entries
      in
      Path_key.Tbl.iter (fun _ child -> share child) br.keyed;
      share br.wild;
      node.branches <- (path, br) :: node.branches;
      br

(* Keep the summary true of every clause as [args] joins them: the only
   clause sets it, and a later one turns it off wherever it differs. A
   plain loop, so an insert allocates nothing for it after the first. *)
let rec summarize shared ~only i = function
  | [] -> ()
  | a :: args ->
      (if only then shared.(i) <- (if Term.is_ground a then Some a else None)
       else
         match shared.(i) with
         | Some c when not (Term.equal c a) -> shared.(i) <- None
         | _ -> ());
      summarize shared ~only (i + 1) args

(* [e] is the newest entry (assertz) or the oldest (asserta) *)
let insert p e ~newest =
  update_node (fun l -> if newest then e :: l else l @ [ e ]) e p.root;
  summarize p.shared ~only:(p.count = 0) 0 (args_of e.clause.head);
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
let rec lookup counts goal node paths =
  match (node.entries, paths) with
  | [], _ | _, [] -> node.entries
  | _, path :: paths ->
      let br = branch counts node path in
      let k = Option.get (Path_key.subterm_at path goal) in
      let keyed =
        match Path_key.Tbl.find_opt br.keyed k with
        | Some child -> lookup counts goal child paths
        | None -> []
      in
      merge_desc keyed (lookup counts goal br.wild paths)

exception No_candidates

(* [paths] without those under an argument every clause shares: there
   every clause has the same subterm, so a branch would send them all to
   one child, the goal's if its subterm is that one and none otherwise.
   Raises [No_candidates] in the second case. *)
let rec unshared shared goal = function
  | [] -> []
  | path :: paths -> (
      match shared.(List.hd path) with
      | None -> path :: unshared shared goal paths
      | Some c -> (
          match Path_key.subterm_at (List.tl path) c with
          | Some k when Term.equal k (Option.get (Path_key.subterm_at path goal)) ->
              unshared shared goal paths
          | _ -> raise_notrace No_candidates))

(* The entries of [p] that can unify with [goal], newest first. *)
let candidates db p goal =
  let paths = Path_key.ground_paths goal in
  match unshared p.shared goal paths with
  | exception No_candidates ->
      db.counts.shared_skips <- db.counts.shared_skips + 1;
      []
  | walked ->
      if List.compare_lengths walked paths <> 0 then
        db.counts.shared_skips <- db.counts.shared_skips + 1;
      lookup db.counts goal p.root walked

let clauses db goal =
  match Term.functor_of goal with
  | None -> invalid_arg "Database.clauses: goal has no functor"
  | Some fa -> (
      match Sm.find_opt fa db.preds with
      | None -> Seq.empty
      | Some p ->
          candidates db p goal |> List.rev_map (fun e -> e.clause) |> List.to_seq)

(* The first clause of [p] in clause order that is a variant of [c]. A
   variant has [c]'s head's ground subterms at the same paths, so it is
   among the candidates for that head; they come newest first, so it is
   the last variant among them. *)
let first_variant db p c =
  List.fold_left
    (fun found e -> if variant_clause e.clause c then Some e else found)
    None (candidates db p c.head)

let retract db c =
  match Sm.find_opt (head_functor c) db.preds with
  | None -> false
  | Some p -> (
      match first_variant db p c with
      | None -> false
      | Some e ->
          update_node (without e) e p.root;
          p.count <- p.count - 1;
          true)

let retract_all db fa = db.preds <- Sm.remove fa db.preds
let fact db h = assertz db { head = h; body = [] }
let retract_fact db h = retract db { head = h; body = [] }

let has_fact db h =
  match Option.bind (Term.functor_of h) (fun fa -> Sm.find_opt fa db.preds) with
  | None -> false
  | Some p -> Option.is_some (first_variant db p { head = h; body = [] })

let update_fact db = function
  | `Assert h -> if not (has_fact db h) then fact db h
  | `Retract h ->
      while retract_fact db h do
        ()
      done

let all_clauses db fa =
  match Sm.find_opt fa db.preds with
  | None -> []
  | Some p -> List.rev_map (fun e -> e.clause) p.root.entries

let predicates db = Sm.bindings db.preds |> List.map fst

(* entry lists are never mutated in place, only replaced *)
let freeze db =
  let frozen = Sm.map (fun p -> p.root.entries) db.preds in
  fun () ->
    Sm.bindings frozen
    |> List.map (fun (fa, entries) -> (fa, List.rev_map (fun e -> e.clause) entries))

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
