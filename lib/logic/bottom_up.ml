module Term_tbl = Hashtbl.Make (struct
  type t = Term.t

  let equal = Term.equal
  let hash = Term.hash
end)

module Sx = Gdp_space.Spatial_index

(* A materialised relation: a hash set of hash-consed ground facts (O(1)
   expected membership, physical-equality fast paths on the stored
   terms), the facts in insertion order for deterministic scans, and
   lazily built argument-position indexes for join probes. An index maps
   the tuple of subterms at a set of argument positions to the facts
   carrying exactly those subterms there; [eval_rule] probes the index of
   whichever positions the in-flowing substitution has made ground. *)
module Relation = struct
  (* A lazily built spatial index over one argument position: facts whose
     argument there carries an extractable point live in the structure
     keyed by their degenerate point box; the (normally empty) side list
     holds the stragglers a probe must always also return — the probe is
     a sound pre-filter, never a semantic filter. *)
  type spat = {
    s_point : Term.t -> (float * float) option;
    s_idx : Term.t Sx.t;
    mutable s_rest : Term.t list;
  }

  type t = {
    facts : unit Term_tbl.t;
    mutable arr : Term.t array; (* slots [0, n) valid, insertion order *)
    mutable n : int;
    mutable indexes : (int list * Term.t list Term_tbl.t) list;
        (* bound argument positions (ascending) -> probe table *)
    mutable spatials : (int * spat) list;
        (* point-carrying argument position -> spatial index *)
  }

  let dummy = Term.Atom ""

  let create () =
    {
      facts = Term_tbl.create 64;
      arr = Array.make 16 dummy;
      n = 0;
      indexes = [];
      spatials = [];
    }

  let mem r t = Term_tbl.mem r.facts t
  let cardinal r = r.n

  (* insertion order: derivation cascades within a pass, and therefore
     the pass counter, stay deterministic and independent of hash order *)
  let iter f r =
    for i = 0 to r.n - 1 do
      f (Array.unsafe_get r.arr i)
    done

  let elements r = Array.to_list (Array.sub r.arr 0 r.n)

  let args_of = function Term.App (_, args) -> args | _ -> []

  (* The probe key packs the subterms at [positions] into one compound so
     {!Term.hash}/{!Term.equal} do all the work. *)
  let key_at positions args =
    Term.App ("$key", List.map (fun p -> List.nth args p) positions)

  let index_insert idx k fact =
    Term_tbl.replace idx k
      (fact :: Option.value ~default:[] (Term_tbl.find_opt idx k))

  let index r positions =
    match List.assoc_opt positions r.indexes with
    | Some idx -> idx
    | None ->
        let idx = Term_tbl.create (max 64 r.n) in
        iter
          (fun fact -> index_insert idx (key_at positions (args_of fact)) fact)
          r;
        r.indexes <- (positions, idx) :: r.indexes;
        idx

  let arg_at apos t =
    match t with Term.App (_, args) -> List.nth_opt args apos | _ -> None

  let spat_box sp apos t =
    match arg_at apos t with
    | None -> None
    | Some a -> (
        match sp.s_point a with
        | None -> None
        | Some (x, y) -> Some (Sx.point_box x y))

  let spat_insert apos sp t =
    match spat_box sp apos t with
    | Some b -> Sx.insert sp.s_idx b t
    | None -> sp.s_rest <- t :: sp.s_rest

  let spatial_index r ~kind ~point apos =
    match List.assoc_opt apos r.spatials with
    | Some sp -> sp
    | None ->
        let entries = ref [] and rest = ref [] in
        iter
          (fun fact ->
            match arg_at apos fact with
            | Some a -> (
                match point a with
                | Some (x, y) -> entries := (Sx.point_box x y, fact) :: !entries
                | None -> rest := fact :: !rest)
            | None -> rest := fact :: !rest)
          r;
        let sp =
          { s_point = point; s_idx = Sx.bulk kind !entries; s_rest = !rest }
        in
        r.spatials <- (apos, sp) :: r.spatials;
        sp

  (* Candidates for a box probe: everything indexed inside the box plus
     the side list of facts without an extractable point — a superset of
     the facts that can satisfy the spatial guard the planner proved the
     box covers. *)
  let spatial_probe r ~kind ~point apos qbox =
    let sp = spatial_index r ~kind ~point apos in
    (Sx.range sp.s_idx qbox, sp.s_rest)

  let add r t =
    if Term_tbl.mem r.facts t then false
    else begin
      Term_tbl.replace r.facts t ();
      if r.n = Array.length r.arr then begin
        let bigger = Array.make (2 * r.n) dummy in
        Array.blit r.arr 0 bigger 0 r.n;
        r.arr <- bigger
      end;
      r.arr.(r.n) <- t;
      r.n <- r.n + 1;
      List.iter
        (fun (positions, idx) ->
          index_insert idx (key_at positions (args_of t)) t)
        r.indexes;
      List.iter (fun (apos, sp) -> spat_insert apos sp t) r.spatials;
      true
    end

  (* Bulk load for snapshot import: the facts come from a saved
     relation's set, so they are pairwise distinct, and the receiving
     relation is freshly built — no lazy index exists yet to maintain.
     Skipping the membership probe halves the hashing work of [add];
     [cardinal]/[Term_tbl.length] disagreement after a bulk load is the
     caller's signal that the distinctness assumption was violated. *)
  let bulk r facts =
    let k = Array.length facts in
    if k > 0 then begin
      if r.n + k > Array.length r.arr then begin
        let cap = ref (Array.length r.arr) in
        while r.n + k > !cap do
          cap := 2 * !cap
        done;
        let bigger = Array.make !cap dummy in
        Array.blit r.arr 0 bigger 0 r.n;
        r.arr <- bigger
      end;
      Array.iter
        (fun t ->
          Term_tbl.replace r.facts t ();
          r.arr.(r.n) <- t;
          r.n <- r.n + 1)
        facts
    end

  let distinct r = Term_tbl.length r.facts = r.n

  (* Physical deletion for incremental maintenance: drop [t] from the
     hash set, compact the insertion-order array (later scans stay
     deterministic) and evict it from every built index bucket. *)
  let remove r t =
    if not (Term_tbl.mem r.facts t) then false
    else begin
      Term_tbl.remove r.facts t;
      let j = ref 0 in
      for i = 0 to r.n - 1 do
        let x = Array.unsafe_get r.arr i in
        if not (Term.equal x t) then begin
          r.arr.(!j) <- x;
          incr j
        end
      done;
      for i = !j to r.n - 1 do
        r.arr.(i) <- dummy
      done;
      r.n <- !j;
      List.iter
        (fun (positions, idx) ->
          let k = key_at positions (args_of t) in
          match Term_tbl.find_opt idx k with
          | None -> ()
          | Some bucket -> (
              match List.filter (fun f -> not (Term.equal f t)) bucket with
              | [] -> Term_tbl.remove idx k
              | bucket -> Term_tbl.replace idx k bucket))
        r.indexes;
      List.iter
        (fun (apos, sp) ->
          match spat_box sp apos t with
          | Some b ->
              (* facts are hash-consed, so physical equality is exact *)
              ignore (Sx.remove sp.s_idx b t)
          | None ->
              sp.s_rest <- List.filter (fun f -> not (Term.equal f t)) sp.s_rest)
        r.spatials;
      true
    end

  (* Facts whose arguments at [positions] equal the corresponding (ground)
     arguments of [args] — a superset check is not needed: unification
     of a ground subterm succeeds only on structural equality, so the
     bucket holds exactly the unification candidates for those positions. *)
  let probe r positions args =
    Option.value ~default:[]
      (Term_tbl.find_opt (index r positions) (key_at positions args))
end

module Iset = Set.Make (Int)

exception Unsupported of string

type strategy = Naive | Semi_naive
type refine = string * int -> int option

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

(* A relation is a predicate, optionally split by the constant at one
   argument position (see the [refine] documentation): the GDP compiler
   reifies every user predicate into holds/6, and without the split the
   whole base would be one recursive relation. *)
module Rel = struct
  type t = { name : string; arity : int; sub : string option }

  let compare (a : t) (b : t) =
    match String.compare a.name b.name with
    | 0 -> (
        match Int.compare a.arity b.arity with
        | 0 -> Option.compare String.compare a.sub b.sub
        | c -> c)
    | c -> c

  let to_string r =
    match r.sub with
    | None -> Printf.sprintf "%s/%d" r.name r.arity
    | Some s -> Printf.sprintf "%s/%d[%s]" r.name r.arity s
end

module Rel_map = Map.Make (Rel)

(* Spatial builtin hooks, supplied by the compiler. [sp_ext] whitelists
   builtins the engine may evaluate natively as [Ext] literals (returning
   the argument positions that must be bound first); [sp_solve] runs one
   ground-input instance and returns its ground solutions; the remaining
   fields let the planner compile spatially guarded joins into index
   probes: region bounding boxes by name, point extraction from pos/2-3
   shaped arguments, whether the space's metric is covered by ±eps boxes
   (cartesian-like coordinates only), and the preferred index structure
   ([Some cell] for a uniform grid, [None] for the R-tree). *)
type sprobe =
  | Sp_within of Sx.box  (** bound region guard: probe its bounding box *)
  | Sp_near of Term.t * float  (** pt_dist anchor term and distance bound *)

type spatial = {
  sp_ext : string * int -> int list option;
  sp_solve : Term.t -> Term.t list;
  sp_region_box : string -> Sx.box option;
  sp_point : Term.t -> (float * float) option;
  sp_boxable : bool;
  sp_grid_cell : float option;
}

let index_kind sp =
  match sp.sp_grid_cell with Some c -> Sx.Grid c | None -> Sx.Rtree

(* Body literals in textual order. Positive literals carry their join
   position so the semi-naive driver can aim the delta at one of them. *)
type lit =
  | Pos of int * Rel.t * Term.t * (int * sprobe) option
      (** join position, relation, atom and the plan's optional spatial
          probe [(apos, probe)]: before unifying, pre-filter the relation
          through the spatial index over argument [apos] using the box
          the probe implies — sound because the box covers every tuple
          the downstream spatial guard can accept *)
  | Neg of Rel.t * Term.t
  | Cmp of string * Term.t * Term.t  (** arithmetic comparison guard *)
  | Eq of bool * Term.t * Term.t  (** ground ==/2 (true) or \==/2 (false) *)
  | Is of Term.t * Term.t
  | Ext of int list * Term.t
      (** whitelisted spatial builtin: bound input positions, goal *)
  | Never  (** fail/false in the body: the rule can never fire *)

type rule = {
  id : int;  (** stable rule identifier, parse order; -1 until numbered *)
  head : Term.t;
  head_rel : Rel.t;
  body : lit list;
  pos_rels : Rel.t array;  (** relation at each positive join position *)
}

(* Why-provenance: one witness per derived tuple — the rule that first
   produced it and the instantiated body, in textual order. Positive
   steps name supporting tuples (hash-consed, so they alias the stored
   facts); negated and builtin guards are kept as ground goal instances
   for the proof tree's [Naf]/[Builtin] leaves. *)
type wstep =
  | Wfact of Term.t  (** supporting positive body tuple *)
  | Wnaf of Term.t  (** negated literal instance that had no proof *)
  | Wguard of Term.t  (** arithmetic / equality guard instance *)

type witness = { w_rule : int; w_steps : wstep list }

let control_functors = [ ","; ";"; "->"; "call"; "="; "\\=" ]
let cmp_ops = [ "<"; ">"; "=<"; ">="; "=:="; "=\\=" ]

(* Library clauses ({!Prelude}) are invisible to classification, so engine
   databases created by {!Engine.create} classify on user clauses only. *)
let library = Prelude.predicates

(* Evaluation bounds, per operation (an initial run or one update batch):
   only unsafe function-symbol recursion can reach them. *)
let max_iterations = 10_000
let max_facts = 1_000_000

(* The relation an atom belongs to, or why it has none: it is not a
   predicate atom, or its predicate is refined and the refining argument
   is not a constant. *)
let resolve_rel refine t =
  match Term.functor_of t with
  | None -> Error `Not_atom
  | Some (name, arity) -> (
      match refine (name, arity) with
      | None -> Ok { Rel.name; arity; sub = None }
      | Some pos -> (
          match Relation.arg_at pos t with
          | Some (Term.Atom p) -> Ok { Rel.name; arity; sub = Some p }
          | _ -> Error (`Unrefined (name, arity, pos))))

let rel_of ~refine ~what t =
  match resolve_rel refine t with
  | Ok rel -> rel
  | Error `Not_atom ->
      unsupported "%s: %s is not a predicate atom" what (Term.to_string t)
  | Error (`Unrefined (name, arity, pos)) ->
      unsupported "%s: %s/%d needs a constant at refining argument %d in %s"
        what name arity pos (Term.to_string t)

(* Argument positions holding ground subterms, ascending: the index
   positions a probe on a partially bound atom can use. *)
let ground_positions args =
  let rec go i = function
    | [] -> []
    | a :: rest ->
        if Term.is_ground a then i :: go (i + 1) rest else go (i + 1) rest
  in
  go 0 args

let vset t =
  List.fold_left
    (fun s (v : Term.var) -> Iset.add v.Term.id s)
    Iset.empty (Term.vars t)

(* Variables under the input argument positions of a spatial builtin. *)
let ext_input_vars inputs atom =
  match atom with
  | Term.App (_, args) ->
      List.fold_left
        (fun s i ->
          match List.nth_opt args i with
          | Some a -> Iset.union s (vset a)
          | None -> s)
        Iset.empty inputs
  | _ -> Iset.empty

(* ------------------------------------------------------------------ *)
(* classification: one pass deciding membership in the fragment, shared
   by [supported], [run] and the stratification error messages          *)

let parse_body_goal db ~refine ~spatial ~ctx ~next_pos g =
  match g with
  | Term.Var _ -> unsupported "%s: unbound variable used as a body goal" ctx
  | Term.Int _ | Term.Float _ | Term.Str _ ->
      unsupported "%s: non-callable body goal %s" ctx (Term.to_string g)
  | Term.Atom "true" -> None
  | Term.Atom ("fail" | "false") -> Some Never
  | Term.Atom _ | Term.App _ -> (
      let name, arity =
        match Term.functor_of g with Some fa -> fa | None -> assert false
      in
      if List.mem name control_functors then
        unsupported "%s: control construct %s/%d in the body" ctx name arity
      else if (String.equal name "not" || String.equal name "\\+") && arity = 1
      then begin
        let inner = match g with Term.App (_, [ x ]) -> x | _ -> assert false in
        match Term.functor_of inner with
        | None ->
            unsupported "%s: negation of non-atomic goal %s" ctx
              (Term.to_string inner)
        | Some (iname, iarity) ->
            if
              List.mem iname control_functors
              || String.equal iname "not" || String.equal iname "\\+"
              || (iarity = 2 && (List.mem iname cmp_ops || String.equal iname "is"))
              || List.mem iname [ "true"; "fail"; "false"; "=="; "\\==" ]
            then
              unsupported "%s: negation of non-atomic goal %s" ctx
                (Term.to_string inner)
            else if List.mem (iname, iarity) library then
              unsupported "%s: library predicate %s/%d outside the Datalog \
                           fragment" ctx iname iarity
            else if Database.find_builtin db (iname, iarity) <> None then
              unsupported "%s: builtin %s/%d under negation" ctx iname iarity
            else Some (Neg (rel_of ~refine ~what:ctx inner, inner))
      end
      else if arity = 2 && List.mem name cmp_ops then
        match g with
        | Term.App (_, [ a; b ]) -> Some (Cmp (name, a, b))
        | _ -> assert false
      else if arity = 2 && String.equal name "is" then
        match g with
        | Term.App (_, [ l; r ]) -> Some (Is (l, r))
        | _ -> assert false
      else if arity = 2 && (String.equal name "==" || String.equal name "\\==")
      then
        match g with
        | Term.App (_, [ a; b ]) -> Some (Eq (String.equal name "==", a, b))
        | _ -> assert false
      else if List.mem (name, arity) library then
        unsupported "%s: library predicate %s/%d outside the Datalog fragment"
          ctx name arity
      else
        match Option.bind spatial (fun sp -> sp.sp_ext (name, arity)) with
        | Some inputs -> Some (Ext (inputs, g))
        | None ->
            if Database.find_builtin db (name, arity) <> None then
              unsupported "%s: builtin %s/%d" ctx name arity
            else begin
              let i = !next_pos in
              incr next_pos;
              Some (Pos (i, rel_of ~refine ~what:ctx g, g, None))
            end)

(* Left-to-right boundness: guards and negated literals must be ground by
   the time evaluation reaches them, which the top-down engine also
   requires for the clause to behave as written. *)
let check_safety ~ctx head body =
  let bound =
    List.fold_left
      (fun bound lit ->
        match lit with
        | Pos (_, _, atom, _) -> Iset.union bound (vset atom)
        | Is (l, r) ->
            if not (Iset.subset (vset r) bound) then
              unsupported
                "%s: arithmetic expression %s uses variables not bound by a \
                 preceding positive literal" ctx (Term.to_string r);
            Iset.union bound (vset l)
        | Cmp (_, a, b) | Eq (_, a, b) ->
            if not (Iset.subset (Iset.union (vset a) (vset b)) bound) then
              unsupported
                "%s: comparison guard uses variables not bound by a preceding \
                 positive literal" ctx;
            bound
        | Neg (_, atom) ->
            if not (Iset.subset (vset atom) bound) then
              unsupported
                "%s: negated literal %s must be ground when reached (bind its \
                 variables with a preceding positive literal)" ctx
                (Term.to_string atom);
            bound
        | Ext (inputs, atom) ->
            if not (Iset.subset (ext_input_vars inputs atom) bound) then
              unsupported
                "%s: spatial builtin %s needs its input arguments bound by a \
                 preceding positive literal" ctx (Term.to_string atom);
            Iset.union bound (vset atom)
        | Never -> bound)
      Iset.empty body
  in
  if not (Iset.subset (vset head) bound) then
    unsupported "%s: head variable not bound by the body" ctx

let parse_clause db ~refine ~spatial (c : Database.clause) =
  match Term.functor_of c.Database.head with
  | None ->
      unsupported "clause head %s is not a predicate atom"
        (Term.to_string c.Database.head)
  | Some fa ->
      if List.mem fa library then None (* library clause: invisible *)
      else begin
        let head_rel = rel_of ~refine ~what:"clause head" c.Database.head in
        if c.Database.body = [] then begin
          if not (Term.is_ground c.Database.head) then
            unsupported "%s: non-ground fact %s" (Rel.to_string head_rel)
              (Term.to_string c.Database.head);
          Some (`Fact (head_rel, c.Database.head))
        end
        else begin
          let ctx = Rel.to_string head_rel in
          let next_pos = ref 0 in
          let body =
            List.filter_map
              (parse_body_goal db ~refine ~spatial ~ctx ~next_pos)
              c.Database.body
          in
          check_safety ~ctx c.Database.head body;
          let pos_rels = Array.make !next_pos head_rel in
          List.iter
            (function Pos (i, rel, _, _) -> pos_rels.(i) <- rel | _ -> ())
            body;
          Some (`Rule { id = -1; head = c.Database.head; head_rel; body; pos_rels })
        end
      end

(* ------------------------------------------------------------------ *)
(* stratification: Tarjan SCCs over the predicate dependency graph,
   rejecting negation inside a component, then longest-path stratum
   numbers over the condensation (negative edges bump by one)           *)

let compute_strata rules fact_rels =
  let nodes : (Rel.t, unit) Hashtbl.t = Hashtbl.create 64 in
  let edges : (Rel.t, (Rel.t * bool) list) Hashtbl.t = Hashtbl.create 64 in
  let add_node r = if not (Hashtbl.mem nodes r) then Hashtbl.add nodes r () in
  let add_edge a b neg =
    let l = Option.value ~default:[] (Hashtbl.find_opt edges a) in
    Hashtbl.replace edges a ((b, neg) :: l)
  in
  List.iter add_node fact_rels;
  List.iter
    (fun r ->
      add_node r.head_rel;
      List.iter
        (function
          | Pos (_, rel, _, _) ->
              add_node rel;
              add_edge r.head_rel rel false
          | Neg (rel, _) ->
              add_node rel;
              add_edge r.head_rel rel true
          | Cmp _ | Eq _ | Is _ | Ext _ | Never -> ())
        r.body)
    rules;
  let out v = Option.value ~default:[] (Hashtbl.find_opt edges v) in
  (* Tarjan *)
  let index = Hashtbl.create 64
  and lowlink = Hashtbl.create 64
  and on_stack = Hashtbl.create 64
  and comp = Hashtbl.create 64 in
  let stack = ref [] and counter = ref 0 and n_comp = ref 0 in
  let rec strong v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun (w, _) ->
        if not (Hashtbl.mem index w) then begin
          strong w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (out v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let id = !n_comp in
      incr n_comp;
      let rec pop () =
        match !stack with
        | [] -> assert false
        | w :: rest ->
            stack := rest;
            Hashtbl.remove on_stack w;
            Hashtbl.replace comp w id;
            if Rel.compare w v <> 0 then pop ()
      in
      pop ()
    end
  in
  Hashtbl.iter (fun v () -> if not (Hashtbl.mem index v) then strong v) nodes;
  let comp_of = Hashtbl.find comp in
  (* negation must leave its own component *)
  List.iter
    (fun r ->
      List.iter
        (function
          | Neg (rel, _) when comp_of rel = comp_of r.head_rel ->
              unsupported
                "%s: negation of %s inside a recursive stratum (stratified \
                 negation needs the negated predicate in a strictly lower \
                 stratum)"
                (Rel.to_string r.head_rel)
                (Rel.to_string rel)
          | _ -> ())
        r.body)
    rules;
  (* stratum per component: DFS memo over the (acyclic) condensation *)
  let comp_edges = Hashtbl.create 64 in
  Hashtbl.iter
    (fun v deps ->
      let cv = comp_of v in
      List.iter
        (fun (w, neg) ->
          let cw = comp_of w in
          if cv <> cw || neg then
            Hashtbl.replace comp_edges cv
              ((cw, neg)
              :: Option.value ~default:[] (Hashtbl.find_opt comp_edges cv)))
        deps)
    edges;
  let memo = Hashtbl.create 64 in
  let rec stratum c =
    match Hashtbl.find_opt memo c with
    | Some s -> s
    | None ->
        let s =
          List.fold_left
            (fun acc (d, neg) -> max acc (stratum d + if neg then 1 else 0))
            0
            (Option.value ~default:[] (Hashtbl.find_opt comp_edges c))
        in
        Hashtbl.replace memo c s;
        s
  in
  let stratum_of rel = stratum (comp_of rel) in
  let n_strata =
    Hashtbl.fold (fun v () acc -> max acc (stratum_of v + 1)) nodes 0
  in
  (stratum_of, n_strata)

let all_clauses db =
  List.concat_map (fun fa -> Database.all_clauses db fa) (Database.predicates db)

let prepare db ~refine ~spatial =
  let facts = ref [] and rules = ref [] in
  List.iter
    (fun c ->
      match parse_clause db ~refine ~spatial c with
      | None -> ()
      | Some (`Fact (rel, t)) -> facts := (rel, t) :: !facts
      | Some (`Rule r) -> rules := r :: !rules)
    (all_clauses db);
  let facts = List.rev !facts
  and rules = List.mapi (fun i r -> { r with id = i }) (List.rev !rules) in
  let stratum_of, n_strata = compute_strata rules (List.map fst facts) in
  (facts, rules, stratum_of, n_strata)

let classify ?(refine = fun _ -> None) ?spatial db =
  match prepare db ~refine ~spatial with
  | _ -> Ok ()
  | exception Unsupported reason -> Error reason

let supported ?refine ?spatial db =
  match classify ?refine ?spatial db with Ok () -> true | Error _ -> false

(* ------------------------------------------------------------------ *)
(* join planning: a greedy sideways-information-passing order            *)

(* A guard is ready once every variable it reads is bound. A spatial
   builtin is ready once its input arguments are: it then acts as a
   generator for its output arguments, extending the bound set. *)
let guard_ready bound = function
  | Cmp (_, a, b) | Eq (_, a, b) ->
      Iset.subset (Iset.union (vset a) (vset b)) bound
  | Is (_, r) -> Iset.subset (vset r) bound
  | Neg (_, atom) -> Iset.subset (vset atom) bound
  | Ext (inputs, atom) -> Iset.subset (ext_input_vars inputs atom) bound
  | Never -> true
  | Pos _ -> false

(* How many arguments of [atom] the bindings in [bound] make ground —
   the number of index positions a probe on this literal could use. *)
let bound_arg_count bound atom =
  match atom with
  | Term.App (_, args) ->
      List.fold_left
        (fun n arg -> if Iset.subset (vset arg) bound then n + 1 else n)
        0 args
  | _ -> 0

let remove_first x l =
  let rec go acc = function
    | [] -> List.rev acc
    | y :: rest -> if y == x then List.rev_append acc rest else go (y :: acc) rest
  in
  go [] l

(* Reorder one rule body: the delta literal (if the semi-naive driver aims
   one) goes first, then repeatedly (a) flush every guard whose variables
   are bound — [is/2] results extend the bound set, which can ready
   further guards — and (b) pick the positive literal with the most bound
   arguments (ties: textual order). Guards and negated literals only ever
   run with all read variables ground, exactly as [check_safety]
   guaranteed for the textual order, so reordering preserves semantics:
   ground guards are order-independent filters and negation reads a
   strictly lower (already complete) stratum. *)
let order_body ~delta_at body =
  if List.exists (function Never -> true | _ -> false) body then [ Never ]
  else begin
    let rec flush_guards bound plan remaining =
      let ready, rest = List.partition (guard_ready bound) remaining in
      if ready = [] then (bound, plan, rest)
      else
        let bound =
          List.fold_left
            (fun b -> function
              | Is (l, _) -> Iset.union b (vset l)
              | Ext (_, atom) -> Iset.union b (vset atom)
              | _ -> b)
            bound ready
        in
        flush_guards bound (plan @ ready) rest
    in
    let rec go bound plan remaining =
      let bound, plan, remaining = flush_guards bound plan remaining in
      if remaining = [] then plan
      else
        let best =
          List.fold_left
            (fun best lit ->
              match lit with
              | Pos (_, _, atom, _) -> (
                  let c = bound_arg_count bound atom in
                  match best with
                  | Some (bc, _) when bc >= c -> best
                  | _ -> Some (c, lit))
              | _ -> best)
            None remaining
        in
        match best with
        | Some (_, (Pos (_, _, atom, _) as lit)) ->
            go
              (Iset.union bound (vset atom))
              (plan @ [ lit ])
              (remove_first lit remaining)
        | _ ->
            (* unreachable for safety-checked bodies; keep textual order *)
            plan @ remaining
    in
    match delta_at with
    | None -> go Iset.empty [] body
    | Some i -> (
        match
          List.find_opt
            (function Pos (j, _, _, _) -> j = i | _ -> false)
            body
        with
        | Some (Pos (_, _, atom, _) as lit) ->
            go (vset atom) [ lit ] (remove_first lit body)
        | _ -> go Iset.empty [] body)
  end

(* ------------------------------------------------------------------ *)
(* spatial plan annotation: a join whose fresh point variable is
   constrained later in the plan by a region-membership guard or a
   bounded-distance guard becomes a spatial index probe. The guard stays
   in the plan — the probe box covers everything the guard can accept
   (the region's bounding box; the ±eps box around the anchor, sound
   only when the space's metric balls fit in Chebyshev boxes), so the
   probe is a pre-filter, never a replacement for the exact test.       *)

let num_const = function
  | Term.Int n -> Some (float_of_int n)
  | Term.Float f -> Some f
  | _ -> None

let annotate_spatial sp plan =
  (* argument positions of [atom] holding a fresh variable, bare or
     one constructor deep (the reified [at(P)] shape) *)
  let var_candidates bound atom =
    match atom with
    | Term.App (_, args) ->
        List.mapi
          (fun j a ->
            match a with
            | Term.Var v when not (Iset.mem v.Term.id bound) ->
                Some (j, v.Term.id)
            | Term.App (_, [ Term.Var v ]) when not (Iset.mem v.Term.id bound)
              ->
                Some (j, v.Term.id)
            | _ -> None)
          args
        |> List.filter_map Fun.id
    | _ -> []
  in
  (* an upper bound on variable [d] appearing later in the plan *)
  let dist_bound d rest =
    List.find_map
      (function
        | Cmp (("<" | "=<"), Term.Var v, c) when v.Term.id = d -> num_const c
        | Cmp ((">" | ">="), c, Term.Var v) when v.Term.id = d -> num_const c
        | _ -> None)
      rest
  in
  let probe_for bound rest (j, vid) =
    List.find_map
      (function
        | Ext (_, Term.App ("region_mem", [ Term.Atom name; Term.Var p ]))
          when p.Term.id = vid -> (
            match sp.sp_region_box name with
            | Some b -> Some (j, Sp_within b)
            | None -> None)
        | Ext (_, Term.App ("pt_dist", [ a; b; Term.Var d ]))
          when sp.sp_boxable && not (Iset.mem d.Term.id bound) -> (
            let anchor =
              match (a, b) with
              | Term.Var p, other when p.Term.id = vid -> Some other
              | other, Term.Var p when p.Term.id = vid -> Some other
              | _ -> None
            in
            match anchor with
            | Some other when Iset.subset (vset other) bound -> (
                match dist_bound d.Term.id rest with
                | Some eps when eps >= 0.0 -> Some (j, Sp_near (other, eps))
                | _ -> None)
            | _ -> None)
        | _ -> None)
      rest
  in
  let rec walk bound acc = function
    | [] -> List.rev acc
    | lit :: rest ->
        let lit =
          match lit with
          | Pos (i, rel, atom, None) -> (
              match
                List.find_map (probe_for bound rest)
                  (var_candidates bound atom)
              with
              | Some _ as sprobe -> Pos (i, rel, atom, sprobe)
              | None -> lit)
          | l -> l
        in
        let bound =
          match lit with
          | Pos (_, _, atom, _) | Ext (_, atom) ->
              Iset.union bound (vset atom)
          | Is (l, _) -> Iset.union bound (vset l)
          | _ -> bound
        in
        walk bound (lit :: acc) rest
  in
  walk Iset.empty [] plan

(* ------------------------------------------------------------------ *)
(* evaluation                                                          *)

type stratum_stats = {
  st_stratum : int;
  st_rules : int;
  st_passes : int;
  st_firings : int;
  st_derived : int;
  st_max_delta : int;
  st_ms : float;
}

type incr_stats = {
  upd_batches : int;
  upd_asserts : int;
  upd_retracts : int;
  upd_noops : int;
  upd_inserted : int;
  upd_deleted : int;
  upd_overdeleted : int;
  upd_rederived : int;
  upd_strata_visited : int;
  upd_strata_recomputed : int;
}

type prov_stats = {
  prov_tracked : int;
  prov_bytes : int;
  prov_refreshed : int;
  prov_reconstructs : int;
  prov_max_depth : int;
  prov_max_size : int;
}

type stats = {
  bu_passes : int;
  bu_firings : int;
  bu_strata : int;
  bu_facts : int;
  bu_index_probes : int;
  bu_full_scans : int;
  bu_membership_tests : int;
  bu_spatial_probes : int;
  bu_spatial_scans : int;
  bu_hcons_hits : int;
  bu_hcons_misses : int;
  bu_prov : prov_stats;
  bu_strata_stats : stratum_stats list;
  bu_incr : incr_stats;
}

(* Internal mutable counter state. [run] and the incremental maintenance
   entry points ({!apply}) share these, so {!stats} is cumulative over the
   fixpoint's whole life — exactly what `--stats` after an update script
   should report. *)
type counters = {
  mutable c_facts : int;  (* facts currently stored (inserts - deletes) *)
  mutable c_passes : int;
  mutable c_firings : int;
  mutable c_probes : int;
  mutable c_scans : int;
  mutable c_members : int;
  mutable c_sprobes : int;  (* spatial index probes *)
  mutable c_sscans : int;  (* spatial joins that fell back to a scan *)
  mutable c_hits : int;
  mutable c_misses : int;
}

let new_counters () =
  {
    c_facts = 0;
    c_passes = 0;
    c_firings = 0;
    c_probes = 0;
    c_scans = 0;
    c_members = 0;
    c_sprobes = 0;
    c_sscans = 0;
    c_hits = 0;
    c_misses = 0;
  }

(* Add one counter record into another: [import] restores a snapshot's
   saved counters this way. *)
let fold_counters ~into (w : counters) =
  into.c_facts <- into.c_facts + w.c_facts;
  into.c_passes <- into.c_passes + w.c_passes;
  into.c_firings <- into.c_firings + w.c_firings;
  into.c_probes <- into.c_probes + w.c_probes;
  into.c_scans <- into.c_scans + w.c_scans;
  into.c_members <- into.c_members + w.c_members;
  into.c_sprobes <- into.c_sprobes + w.c_sprobes;
  into.c_sscans <- into.c_sscans + w.c_sscans;
  into.c_hits <- into.c_hits + w.c_hits;
  into.c_misses <- into.c_misses + w.c_misses

(* Mutable lineage state: the witness table plus the reconstruction
   counters {!pp_stats} reports. *)
type pstate = {
  ptbl : witness Term_tbl.t;  (* derived tuple -> its recorded witness *)
  mutable p_refreshed : int;  (* witnesses refreshed by DRed rederivation *)
  mutable p_reconstructs : int;
  mutable p_max_depth : int;
  mutable p_max_size : int;
}

type istate = {
  mutable i_batches : int;
  mutable i_asserts : int;
  mutable i_retracts : int;
  mutable i_noops : int;
  mutable i_inserted : int;
  mutable i_deleted : int;
  mutable i_overdeleted : int;
  mutable i_rederived : int;
  mutable i_visited : int;
  mutable i_recomputed : int;
}

(* A rule with its precomputed join plans: one full-relation plan and one
   delta-aimed plan per positive body position. *)
type planned = { rule : rule; plan : lit list; delta_plans : lit list array }

(* The maintained state: everything [run] needed transiently is kept so
   {!apply} can continue evaluating — the per-stratum rule plans, the
   stratum map, the set of asserted (extensional) facts distinguished
   from derived ones, and the evaluation options the fixpoint was built
   under (updates must propagate with the same strategy/indexing or the
   differential guarantees vanish). *)
type fixpoint = {
  rels : (Rel.t, Relation.t) Hashtbl.t;
  refine : refine;
  base : Rel.t Term_tbl.t;  (* asserted ground facts -> their relation *)
  by_stratum : planned list array;
  stratum_of : Rel.t -> int;  (* total: unknown relations map to 0 *)
  n_strata : int;
  strategy : strategy;
  indexing : bool;
  spatial : spatial option;  (* compiler-supplied spatial builtin hooks *)
  spatial_indexing : bool;  (* compile guarded joins to index probes *)
  tracer : Gdp_obs.Tracer.t;
  ctr : counters;
  mutable strata_stats : stratum_stats list;
  incr : istate;
  lineage : pstate;  (* the why-provenance sidecar *)
}

let record rel t m =
  Rel_map.update rel (function None -> Some [ t ] | Some l -> Some (t :: l)) m

let get fp rel =
  match Hashtbl.find_opt fp.rels rel with
  | Some r -> r
  | None ->
      let r = Relation.create () in
      Hashtbl.add fp.rels rel r;
      r

(* dedup-inserting a hash-consed copy keeps every stored fact canonical,
   so later membership tests mostly resolve on physical equality *)
let add fp rel t =
  let h = Term.hcons t in
  (* [hcons t == t] means [t] became the canonical copy: a table miss *)
  if h == t then fp.ctr.c_misses <- fp.ctr.c_misses + 1
  else fp.ctr.c_hits <- fp.ctr.c_hits + 1;
  let t = h in
  if Relation.add (get fp rel) t then begin
    fp.ctr.c_facts <- fp.ctr.c_facts + 1;
    if fp.ctr.c_facts > max_facts then
      failwith "Bottom_up.run: fact bound hit";
    Some t
  end
  else None

(* The witness of one firing: the rule's body in textual order under the
   final substitution. Step terms are hash-consed, so positive steps are
   physically the stored supporting tuples and the store's memory is
   shared rather than duplicated. *)
let witness_of rule subst =
  let app t = Term.hcons (Subst.apply subst t) in
  let steps =
    List.filter_map
      (function
        | Pos (_, _, atom, _) -> Some (Wfact (app atom))
        | Neg (_, atom) -> Some (Wnaf (app atom))
        | Cmp (op, a, b) -> Some (Wguard (app (Term.App (op, [ a; b ]))))
        | Eq (true, a, b) -> Some (Wguard (app (Term.App ("==", [ a; b ]))))
        | Eq (false, a, b) -> Some (Wguard (app (Term.App ("\\==", [ a; b ]))))
        | Is (l, r) -> Some (Wguard (app (Term.App ("is", [ l; r ]))))
        | Ext (_, atom) -> Some (Wguard (app atom))
        | Never -> None)
      rule.body
  in
  { w_rule = rule.id; w_steps = steps }

(* first derivation wins: a tuple's witness is recorded once and only
   replaced by the explicit refresh paths (DRed rederivation, stratum
   recompute after a witness drop) *)
let record_witness fp rule stored subst =
  if not (Term_tbl.mem fp.lineage.ptbl stored) then
    Term_tbl.replace fp.lineage.ptbl stored (witness_of rule subst)

let drop_witness fp t = Term_tbl.remove fp.lineage.ptbl t

(* Structural node count of a term; the store hcons-shares witness terms
   with the fact store, so this over-approximates the marginal footprint
   but tracks the logical size of what a serialised export would carry. *)
let rec term_nodes = function
  | Term.App (_, args) -> List.fold_left (fun n a -> n + term_nodes a) 1 args
  | _ -> 1

(* (tracked tuples, approximate witness bytes): one word for the rule id
   plus per step a tag word and the step term's nodes, 8 bytes a word *)
let prov_footprint ps =
  Term_tbl.fold
    (fun key w (n, b) ->
      let wb =
        List.fold_left
          (fun acc s ->
            acc
            + 1
            + term_nodes (match s with Wfact t | Wnaf t | Wguard t -> t))
          (1 + term_nodes key) w.w_steps
      in
      (n + 1, b + (8 * wb)))
    ps.ptbl (0, 0)

(* [budget_from] is the pass counter at the start of the current
   operation (initial run or one update batch): the iteration bound is
   per operation, not cumulative over the fixpoint's life. *)
let tick fp ~budget_from =
  fp.ctr.c_passes <- fp.ctr.c_passes + 1;
  if fp.ctr.c_passes - budget_from > max_iterations then
    failwith "Bottom_up.run: iteration bound hit"

(* evaluate one rule body along its plan; [delta_at] aims one positive
   join position at the previous pass's delta instead of the full
   relation. Each positive literal is matched by the cheapest available
   access path: O(1) membership when the in-flowing substitution
   grounds it, an index probe on its ground argument positions, and a
   full scan only when nothing is bound (or indexing is off).

   [ghosts], used only by DRed over-deletion, extends every positive
   literal's relation with the facts physically deleted earlier in the
   same update batch: over-deletion must evaluate against (a superset
   of) the pre-deletion state, and the union of the current store with
   the batch's ghosts is exactly that superset. [subst0], used only by
   rederivation, starts the body evaluation from a substitution that
   already grounds the head.

   [emit] returns the stored canonical term when the derived head was a
   fresh insertion — whose witness is then recorded from the firing
   substitution — and [None] otherwise. [on_derive], used by
   {!find_witness}, replaces [emit] entirely: the caller observes (head,
   substitution) pairs without touching the store. *)
let eval_rule fp ?ghosts ?(subst0 = Subst.empty) ?on_derive ~delta_at ~delta
    rule plan ~emit =
  let ctr = fp.ctr in
  ctr.c_firings <- ctr.c_firings + 1;
  let ghost_facts rel =
    match ghosts with
    | None -> []
    | Some g -> Option.value ~default:[] (Rel_map.find_opt rel !g)
  in
  (* the query box of an annotated join, covering everything the
     downstream spatial guard can accept; [None] when spatial indexing is
     off or the anchor carries no point *)
  let query_box sp subst = function
    | _ when not fp.spatial_indexing -> None
    | Sp_within b -> Some b
    | Sp_near (anchor, eps) ->
        Option.map
          (fun (x, y) -> Sx.pad (Sx.point_box x y) eps)
          (sp.sp_point (Subst.apply subst anchor))
  in
  (* hash access path for a partially ground atom [g]: probe the index
     over its ground argument positions, scan when nothing is bound *)
  let hash_join r g each =
    let args = Relation.args_of g in
    match if fp.indexing then ground_positions args else [] with
    | [] ->
        ctr.c_scans <- ctr.c_scans + 1;
        Relation.iter each r
    | positions ->
        ctr.c_probes <- ctr.c_probes + 1;
        List.iter each (Relation.probe r positions args)
  in
  let rec go subst lits =
    match lits with
    | [] -> (
        let head = Subst.apply subst rule.head in
        match on_derive with
        | Some f -> f head subst
        | None -> (
            match emit rule.head_rel head with
            | Some stored -> record_witness fp rule stored subst
            | None -> ()))
    | Pos (i, rel, atom, sprobe) :: rest -> (
        let each fact =
          match Unify.unify subst atom fact with
          | Some s -> go s rest
          | None -> ()
        in
        let g = Subst.apply subst atom in
        match delta_at with
        | Some j when j = i ->
            if Term.is_ground g then begin
              ctr.c_members <- ctr.c_members + 1;
              if List.exists (Term.equal g) delta then go subst rest
            end
            else List.iter each delta
        | _ ->
            let r = get fp rel in
            let gfacts = ghost_facts rel in
            if Term.is_ground g then begin
              ctr.c_members <- ctr.c_members + 1;
              if Relation.mem r g || List.exists (Term.equal g) gfacts then
                go subst rest
            end
            else begin
              (match sprobe with
              | None -> hash_join r g each
              | Some (apos, probe) -> (
                  (* annotated joins exist only when the hooks do *)
                  let sp = Option.get fp.spatial in
                  match query_box sp subst probe with
                  | Some qbox ->
                      ctr.c_sprobes <- ctr.c_sprobes + 1;
                      let hits, unindexed =
                        Relation.spatial_probe r ~kind:(index_kind sp)
                          ~point:sp.sp_point apos qbox
                      in
                      List.iter each hits;
                      List.iter each unindexed
                  | None ->
                      ctr.c_sscans <- ctr.c_sscans + 1;
                      hash_join r g each));
              if gfacts <> [] then List.iter each gfacts
            end)
    | Ext (_, atom) :: rest -> (
        match fp.spatial with
        | None -> ()
        | Some sp ->
            List.iter
              (fun sol ->
                match Unify.unify subst atom sol with
                | Some s -> go s rest
                | None -> ())
              (sp.sp_solve (Subst.apply subst atom)))
    | Neg (rel, atom) :: rest ->
        if not (Relation.mem (get fp rel) (Subst.apply subst atom)) then
          go subst rest
    | Cmp (op, a, b) :: rest -> (
        match (Arith.eval subst a, Arith.eval subst b) with
        | exception Arith.Error _ -> ()
        | x, y ->
            let c = Arith.compare_num x y in
            let ok =
              match op with
              | "<" -> c < 0
              | ">" -> c > 0
              | "=<" -> c <= 0
              | ">=" -> c >= 0
              | "=:=" -> c = 0
              | _ -> c <> 0
            in
            if ok then go subst rest)
    | Eq (want_eq, a, b) :: rest ->
        if Term.equal (Subst.apply subst a) (Subst.apply subst b) = want_eq
        then go subst rest
    | Is (l, r) :: rest -> (
        match Arith.eval subst r with
        | exception Arith.Error _ -> ()
        | n -> (
            match Unify.unify subst l (Arith.to_term n) with
            | Some s -> go s rest
            | None -> ()))
    | Never :: _ -> ()
  in
  go subst0 plan

(* Deterministic derivability check with witness capture: the first rule
   in rule order whose body (under the plan's enumeration order)
   rederives [t] from the current store. Returns [Some witness] when
   derivable, [None] when no rule of [srules] produces [t]. Used by DRed
   rederivation, whose firings count in the fixpoint's counters. *)
exception Found_witness of witness

let find_witness fp srules rel t =
  try
    List.iter
      (fun p ->
        if Rel.compare p.rule.head_rel rel = 0 then
          match Unify.unify Subst.empty p.rule.head t with
          | None -> ()
          | Some s ->
              eval_rule fp ~subst0:s ~delta_at:None ~delta:[] p.rule p.plan
                ~emit:(fun _ _ -> None)
                ~on_derive:(fun h subst ->
                  if Term.equal h t then
                    raise_notrace (Found_witness (witness_of p.rule subst))))
      srules;
    None
  with Found_witness w -> Some w

(* Saturate one stratum. [`Full] starts with a pass firing every rule
   against the full relations (the initial run and stratum recompute);
   [`Deltas m] starts semi-naive propagation from facts already stored
   (incremental insertion). With [guard] set, the loop stops as soon as
   no rule of the stratum reads a delta relation — the incremental path
   skips the trailing empty pass the initial run deliberately keeps (its
   pass counts are pinned by the cram tests). Returns every fact this
   call added, per relation, and the largest delta carried. *)
let saturate fp ~budget_from ~guard srules start =
  let added = ref Rel_map.empty in
  let new_facts = ref Rel_map.empty in
  let emit rel t =
    match add fp rel t with
    | None -> None
    | Some t ->
        new_facts := record rel t !new_facts;
        added := record rel t !added;
        Some t
  in
  let full_pass () =
    List.iter
      (fun p -> eval_rule fp ~delta_at:None ~delta:[] p.rule p.plan ~emit)
      srules
  in
  let max_delta = ref 0 in
  (match start with
  | `Full ->
      tick fp ~budget_from;
      Gdp_obs.Tracer.with_span fp.tracer ~cat:"fixpoint"
        ~args:[ ("kind", Gdp_obs.Tracer.Str "full") ]
        "pass" full_pass
  | `Deltas m -> new_facts := m);
  let reads m =
    List.exists
      (fun p -> Array.exists (fun rel -> Rel_map.mem rel m) p.rule.pos_rels)
      srules
  in
  let deltas = ref !new_facts in
  while (not (Rel_map.is_empty !deltas)) && ((not guard) || reads !deltas) do
    tick fp ~budget_from;
    let dsize = Rel_map.fold (fun _ l acc -> acc + List.length l) !deltas 0 in
    if dsize > !max_delta then max_delta := dsize;
    new_facts := Rel_map.empty;
    Gdp_obs.Tracer.with_span fp.tracer ~cat:"fixpoint"
      ~args:[ ("delta", Gdp_obs.Tracer.Int dsize) ]
      "pass"
      (fun () ->
        match fp.strategy with
        | Naive -> full_pass ()
        | Semi_naive ->
            List.iter
              (fun p ->
                Array.iteri
                  (fun i rel ->
                    match Rel_map.find_opt rel !deltas with
                    | Some (_ :: _ as d) ->
                        eval_rule fp ~delta_at:(Some i) ~delta:d p.rule
                          p.delta_plans.(i) ~emit
                    | _ -> ())
                  p.rule.pos_rels)
              srules);
    deltas := !new_facts
  done;
  (!added, !max_delta)

(* The option-independent skeleton [run] and [import] share: classify
   and stratify the database, precompute every rule's join plans, build
   the (still empty) fixpoint record and pre-create every relation the
   plans can touch. Returns the parsed base facts un-inserted — [run]
   nets its seeds into them and saturates; [import] ignores them and
   bulk-loads a snapshot instead. *)
let build_fixpoint ~strategy ~indexing ~spatial ~spatial_indexing ~refine
    ~tracer db =
  let facts, rules, stratum_of, n_strata = prepare db ~refine ~spatial in
  (* body plans: with indexing on, a greedy bound-count order per rule
     plus one per delta position; the scan baseline keeps textual order.
     With spatial hooks present, every plan gets the spatial annotation
     pass — whether an annotated join actually probes is decided at
     evaluation time by the [spatial_indexing] knob, so the scan
     baseline counts the joins it declined to accelerate. *)
  let annotate plan =
    match spatial with Some sp -> annotate_spatial sp plan | None -> plan
  in
  let planned =
    List.map
      (fun r ->
        if indexing then
          {
            rule = r;
            plan = annotate (order_body ~delta_at:None r.body);
            delta_plans =
              Array.init (Array.length r.pos_rels) (fun i ->
                  annotate (order_body ~delta_at:(Some i) r.body));
          }
        else
          {
            rule = r;
            plan = annotate r.body;
            delta_plans =
              Array.make (Array.length r.pos_rels) (annotate r.body);
          })
      rules
  in
  let by_stratum = Array.make (max n_strata 1) [] in
  List.iter
    (fun p ->
      let s = stratum_of p.rule.head_rel in
      by_stratum.(s) <- p :: by_stratum.(s))
    planned;
  Array.iteri (fun i rs -> by_stratum.(i) <- List.rev rs) by_stratum;
  let fp =
    {
      rels = Hashtbl.create 64;
      refine;
      base = Term_tbl.create 64;
      by_stratum;
      stratum_of =
        (fun rel -> match stratum_of rel with s -> s | exception Not_found -> 0);
      n_strata;
      strategy;
      indexing;
      spatial;
      spatial_indexing;
      tracer;
      ctr = new_counters ();
      strata_stats = [];
      incr =
        {
          i_batches = 0;
          i_asserts = 0;
          i_retracts = 0;
          i_noops = 0;
          i_inserted = 0;
          i_deleted = 0;
          i_overdeleted = 0;
          i_rederived = 0;
          i_visited = 0;
          i_recomputed = 0;
        };
      lineage =
        {
          ptbl = Term_tbl.create 256;
          p_refreshed = 0;
          p_reconstructs = 0;
          p_max_depth = 0;
          p_max_size = 0;
        };
    }
  in
  (* every relation a rule can read or write exists up front, so the set
     of stored relations — and with it a snapshot's relation list —
     depends only on the rules, never on which ones evaluation touched *)
  List.iter
    (fun p ->
      Stdlib.ignore (get fp p.rule.head_rel);
      Array.iter (fun rel -> Stdlib.ignore (get fp rel)) p.rule.pos_rels;
      List.iter
        (function Neg (rel, _) -> Stdlib.ignore (get fp rel) | _ -> ())
        p.rule.body)
    planned;
  (fp, facts)

(* Build every spatial index the annotated plans will probe now, under
   its own trace span, rather than inside the first pass that probes it;
   a pass that derives new facts maintains them incrementally through
   [Relation.add]. *)
let prebuild_spatial fp =
  match fp.spatial with
  | Some sp when fp.spatial_indexing ->
      let kind = index_kind sp in
      let built = Hashtbl.create 8 in
      let build_for = function
        | Pos (_, rel, _, Some (apos, _)) ->
            if not (Hashtbl.mem built (rel, apos)) then begin
              Hashtbl.add built (rel, apos) ();
              let r = get fp rel in
              Gdp_obs.Tracer.with_span fp.tracer ~cat:"fixpoint"
                ~args:
                  [
                    ("rel", Gdp_obs.Tracer.Str (Rel.to_string rel));
                    ("arg", Gdp_obs.Tracer.Int apos);
                    ("entries", Gdp_obs.Tracer.Int (Relation.cardinal r));
                  ]
                "bu.spatial.build"
                (fun () ->
                  Stdlib.ignore
                    (Relation.spatial_index r ~kind ~point:sp.sp_point apos))
            end
        | _ -> ()
      in
      Array.iter
        (List.iter (fun p ->
             List.iter build_for p.plan;
             Array.iter (List.iter build_for) p.delta_plans))
        fp.by_stratum
  | _ -> ()

(* Final counter samples for an enabled tracer. [gauge_totals] covers
   what every operation moves (store size, passes, firings, lineage
   size) and closes each {!apply} batch; [emit_gauges] adds the access
   path and hash-consing samples once per [run] and per [import], whose
   restored counters gauge the same way. *)
let gauge_totals fp =
  let tracer = fp.tracer in
  if Gdp_obs.Tracer.enabled tracer then begin
    let set n v = Gdp_obs.Tracer.set tracer n (float_of_int v) in
    set "bu.facts" fp.ctr.c_facts;
    set "bu.passes" fp.ctr.c_passes;
    set "bu.firings" fp.ctr.c_firings;
    let tracked, bytes = prov_footprint fp.lineage in
    set "prov.tracked" tracked;
    set "prov.bytes" bytes
  end

let emit_gauges fp =
  gauge_totals fp;
  let tracer = fp.tracer in
  if Gdp_obs.Tracer.enabled tracer then begin
    let set n v = Gdp_obs.Tracer.set tracer n (float_of_int v) in
    set "bu.index_probes" fp.ctr.c_probes;
    set "bu.full_scans" fp.ctr.c_scans;
    if fp.ctr.c_sprobes > 0 || fp.ctr.c_sscans > 0 then begin
      set "bu.spatial.probes" fp.ctr.c_sprobes;
      set "bu.spatial.scans" fp.ctr.c_sscans
    end;
    set "bu.hcons_hits" fp.ctr.c_hits;
    set "bu.hcons_misses" fp.ctr.c_misses
  end

let run ?(strategy = Semi_naive) ?(indexing = true) ?spatial
    ?(spatial_indexing = true) ?(refine = fun _ -> None)
    ?(tracer = Gdp_obs.Tracer.disabled) ?(seed = []) db =
  let fp, facts =
    build_fixpoint ~strategy ~indexing ~spatial ~spatial_indexing ~refine
      ~tracer db
  in
  (* net the seeds like {!apply} nets a batch: a seed structurally equal
     to a parsed fact, or repeated in the seed list, lands in the store
     (and the counters) exactly once *)
  let seen = Term_tbl.create (max 64 (List.length seed)) in
  List.iter (fun (_, t) -> Term_tbl.replace seen t ()) facts;
  let facts =
    facts
    @ List.filter_map
        (fun t ->
          if not (Term.is_ground t) then
            unsupported "seed: non-ground seed fact %s" (Term.to_string t);
          if Term_tbl.mem seen t then None
          else begin
            Term_tbl.replace seen t ();
            Some (rel_of ~refine ~what:"seed" t, t)
          end)
        seed
  in
  List.iter
    (fun (rel, t) ->
      match add fp rel t with
      | Some t -> Term_tbl.replace fp.base t rel
      | None -> Term_tbl.replace fp.base (Term.hcons t) rel)
    facts;
  prebuild_spatial fp;
  let stratum_acc = ref [] in
  let run_frame =
    Gdp_obs.Tracer.begin_span tracer ~cat:"fixpoint" "bottom_up.run"
  in
  Array.iteri
    (fun si srules ->
      if srules <> [] then begin
        let t_start = Gdp_obs.Tracer.now_ns () in
        let passes0 = fp.ctr.c_passes
        and firings0 = fp.ctr.c_firings
        and total0 = fp.ctr.c_facts in
        let s_frame =
          Gdp_obs.Tracer.begin_span tracer ~cat:"fixpoint"
            ~args:[ ("rules", Gdp_obs.Tracer.Int (List.length srules)) ]
            ("stratum " ^ string_of_int si)
        in
        let _, max_delta = saturate fp ~budget_from:0 ~guard:false srules `Full in
        let derived = fp.ctr.c_facts - total0 in
        Gdp_obs.Tracer.end_span tracer s_frame
          ~args:
            [
              ("passes", Gdp_obs.Tracer.Int (fp.ctr.c_passes - passes0));
              ("derived", Gdp_obs.Tracer.Int derived);
            ];
        let ms =
          Int64.to_float (Int64.sub (Gdp_obs.Tracer.now_ns ()) t_start) /. 1e6
        in
        stratum_acc :=
          {
            st_stratum = si;
            st_rules = List.length srules;
            st_passes = fp.ctr.c_passes - passes0;
            st_firings = fp.ctr.c_firings - firings0;
            st_derived = derived;
            st_max_delta = max_delta;
            st_ms = ms;
          }
          :: !stratum_acc
      end)
    fp.by_stratum;
  Gdp_obs.Tracer.end_span tracer run_frame;
  emit_gauges fp;
  fp.strata_stats <- List.rev !stratum_acc;
  fp

(* ------------------------------------------------------------------ *)

let facts fp =
  Hashtbl.fold (fun _ r acc -> Relation.elements r @ acc) fp.rels []
  |> List.sort Term.compare

(* The stored relations a goal can match: its own relation when it
   resolves to one, else — a refined predicate queried with a variable
   at the refining argument — every refined relation of its predicate. *)
let relations_of fp goal =
  match resolve_rel fp.refine goal with
  | Ok rel -> Option.to_list (Hashtbl.find_opt fp.rels rel)
  | Error `Not_atom -> []
  | Error (`Unrefined (name, arity, _)) ->
      Hashtbl.fold
        (fun (r : Rel.t) rel acc ->
          if String.equal r.Rel.name name && r.Rel.arity = arity then rel :: acc
          else acc)
        fp.rels []

let holds fp t = List.exists (fun r -> Relation.mem r t) (relations_of fp t)

let facts_matching fp goal =
  List.concat_map Relation.elements (relations_of fp goal)
  |> List.sort Term.compare

(* Candidates for a goal by the cheapest access path: membership for a
   ground goal, an index probe on the goal's ground argument positions
   for a half-bound goal, the whole relation otherwise. The result is a
   superset of the facts unifiable with [goal] (exactly the bucket of
   facts agreeing with the goal's ground arguments) and is unsorted. *)
let probe fp goal =
  let candidates r =
    if Term.is_ground goal then if Relation.mem r goal then [ goal ] else []
    else
      let args = Relation.args_of goal in
      match ground_positions args with
      | [] -> Relation.elements r
      | positions -> Relation.probe r positions args
  in
  match relations_of fp goal with
  | [ r ] -> candidates r (* the common case: no copy *)
  | rs -> List.concat_map candidates rs

let count fp =
  Hashtbl.fold (fun _ r acc -> acc + Relation.cardinal r) fp.rels 0

let iterations fp = fp.ctr.c_passes
let rule_firings fp = fp.ctr.c_firings
let strata_count fp = fp.n_strata

let incr_stats fp =
  {
    upd_batches = fp.incr.i_batches;
    upd_asserts = fp.incr.i_asserts;
    upd_retracts = fp.incr.i_retracts;
    upd_noops = fp.incr.i_noops;
    upd_inserted = fp.incr.i_inserted;
    upd_deleted = fp.incr.i_deleted;
    upd_overdeleted = fp.incr.i_overdeleted;
    upd_rederived = fp.incr.i_rederived;
    upd_strata_visited = fp.incr.i_visited;
    upd_strata_recomputed = fp.incr.i_recomputed;
  }

let stats fp =
  {
    bu_passes = fp.ctr.c_passes;
    bu_firings = fp.ctr.c_firings;
    bu_strata = fp.n_strata;
    bu_facts = fp.ctr.c_facts;
    bu_index_probes = fp.ctr.c_probes;
    bu_full_scans = fp.ctr.c_scans;
    bu_membership_tests = fp.ctr.c_members;
    bu_spatial_probes = fp.ctr.c_sprobes;
    bu_spatial_scans = fp.ctr.c_sscans;
    bu_hcons_hits = fp.ctr.c_hits;
    bu_hcons_misses = fp.ctr.c_misses;
    bu_strata_stats = fp.strata_stats;
    bu_incr = incr_stats fp;
    bu_prov =
      (let ps = fp.lineage in
       let tracked, bytes = prov_footprint ps in
       {
         prov_tracked = tracked;
         prov_bytes = bytes;
         prov_refreshed = ps.p_refreshed;
         prov_reconstructs = ps.p_reconstructs;
         prov_max_depth = ps.p_max_depth;
         prov_max_size = ps.p_max_size;
       });
  }

let hcons_hit_rate s =
  let n = s.bu_hcons_hits + s.bu_hcons_misses in
  if n = 0 then 0.0 else float_of_int s.bu_hcons_hits /. float_of_int n

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>passes: %d  firings: %d  strata: %d  facts: %d@,\
     index probes: %d  full scans: %d  membership tests: %d@,\
     hcons: %d hits / %d misses (%.1f%% hit rate)@,"
    s.bu_passes s.bu_firings s.bu_strata s.bu_facts s.bu_index_probes
    s.bu_full_scans s.bu_membership_tests s.bu_hcons_hits s.bu_hcons_misses
    (100.0 *. hcons_hit_rate s);
  if s.bu_spatial_probes > 0 || s.bu_spatial_scans > 0 then
    Format.fprintf ppf "spatial: %d probes, %d scans@," s.bu_spatial_probes
      s.bu_spatial_scans;
  List.iter
    (fun st ->
      Format.fprintf ppf
        "stratum %d: %d rules, %d passes, %d firings, %d derived, max delta \
         %d@,"
        st.st_stratum st.st_rules st.st_passes st.st_firings st.st_derived
        st.st_max_delta)
    s.bu_strata_stats;
  if s.bu_incr.upd_batches > 0 then begin
    let i = s.bu_incr in
    Format.fprintf ppf
      "updates: %d batches (%d asserts, %d retracts, %d no-ops)@,\
       maintenance: %d inserted, %d deleted, %d over-deleted, %d rederived@,\
       maintenance strata: %d visited, %d recomputed@,"
      i.upd_batches i.upd_asserts i.upd_retracts i.upd_noops i.upd_inserted
      i.upd_deleted i.upd_overdeleted i.upd_rederived i.upd_strata_visited
      i.upd_strata_recomputed
  end;
  let p = s.bu_prov in
  Format.fprintf ppf
    "provenance: %d tuples tracked, %d witness bytes, %d refreshed@,"
    p.prov_tracked p.prov_bytes p.prov_refreshed;
  if p.prov_reconstructs > 0 then
    Format.fprintf ppf
      "provenance: %d reconstructs (max depth %d, max size %d)@,"
      p.prov_reconstructs p.prov_max_depth p.prov_max_size;
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* incremental maintenance: semi-naive insertion deltas + DRed
   (delete-and-rederive) deletions, per stratum in dependency order;
   any stratum that negates a changed relation is recomputed outright   *)

type update = [ `Assert of Term.t | `Retract of Term.t ]

(* One stratum, incrementally. Preconditions: no rule of the stratum
   negates a relation changed by this batch (the caller routed those to
   {!recompute_stratum}), lower strata are already final, [ghosts] holds
   every fact physically deleted so far this batch. [seeds_a]/[seeds_d]
   are the net base assertions/retractions landing on this stratum's
   relations; [lower_adds]/[lower_dels] the net derived changes from
   lower strata. Returns the stratum's own net (additions, deletions). *)
let incremental_stratum fp ~budget_from srules ~seeds_a ~seeds_d ~ghosts
    ~lower_adds ~lower_dels =
  (* presence at batch start, recorded the first time a fact is touched:
     the final net change is (recorded, current) presence disagreeing *)
  let before : (Rel.t * bool) Term_tbl.t = Term_tbl.create 16 in
  let note rel t was =
    if not (Term_tbl.mem before t) then Term_tbl.replace before t (rel, was)
  in
  (* 1. asserted base facts go in first: rederivation below must see them *)
  let seed_added =
    List.filter_map
      (fun (rel, t) ->
        match add fp rel t with
        | Some t ->
            note rel t false;
            Some (rel, t)
        | None -> None)
      seeds_a
  in
  (* 2. DRed over-deletion: mark the retracted base facts and every fact
     a rule of this stratum derives from a deleted fact, evaluating
     non-delta literals against current-store ∪ ghosts (a superset of
     the pre-deletion state, so over-deletion is a superset of the facts
     that lost a derivation — rederivation is exact and repairs any
     over-kill). *)
  let marked = Term_tbl.create 16 in
  List.iter
    (fun (rel, t) ->
      if Relation.mem (get fp rel) t then Term_tbl.replace marked t rel)
    seeds_d;
  let deltas0 =
    List.fold_left
      (fun m (rel, t) -> if Term_tbl.mem marked t then record rel t m else m)
      lower_dels seeds_d
  in
  let reads m =
    List.exists
      (fun p -> Array.exists (fun rel -> Rel_map.mem rel m) p.rule.pos_rels)
      srules
  in
  let fresh = ref [] in
  let mark rel t =
    if (not (Term_tbl.mem marked t)) && Relation.mem (get fp rel) t then begin
      Term_tbl.replace marked t rel;
      fp.incr.i_overdeleted <- fp.incr.i_overdeleted + 1;
      fresh := (rel, t) :: !fresh
    end;
    None
  in
  let deltas = ref deltas0 in
  while (not (Rel_map.is_empty !deltas)) && reads !deltas do
    tick fp ~budget_from;
    fresh := [];
    List.iter
      (fun p ->
        Array.iteri
          (fun i rel ->
            match Rel_map.find_opt rel !deltas with
            | Some (_ :: _ as d) ->
                eval_rule fp ~ghosts ~delta_at:(Some i) ~delta:d p.rule
                  p.delta_plans.(i) ~emit:mark
            | _ -> ())
          p.rule.pos_rels)
      srules;
    deltas :=
      List.fold_left (fun m (rel, t) -> record rel t m) Rel_map.empty !fresh
  done;
  (* 3. physically remove everything marked *)
  let removed = ref [] in
  Term_tbl.iter
    (fun t rel ->
      if Relation.remove (get fp rel) t then begin
        fp.ctr.c_facts <- fp.ctr.c_facts - 1;
        drop_witness fp t;
        note rel t true;
        removed := (rel, t) :: !removed
      end)
    marked;
  (* 4. rederive: a removed fact survives if it is still asserted, or
     some rule of this stratum derives it from the remaining facts.
     Iterated to a fixpoint so chains of mutually supporting facts are
     reinstated in dependency order. The surviving derivation found here
     becomes the fact's refreshed witness — its old witness was dropped
     with the physical removal above, so every surviving tuple's lineage
     is valid against the post-batch store. *)
  let ps = fp.lineage in
  let pending = ref !removed and progress = ref true in
  while !progress do
    progress := false;
    pending :=
      List.filter
        (fun (rel, t) ->
          let reinstate () =
            Stdlib.ignore (add fp rel t);
            fp.incr.i_rederived <- fp.incr.i_rederived + 1;
            progress := true;
            false
          in
          if Term_tbl.mem fp.base t then reinstate ()
          else
            match find_witness fp srules rel t with
            | Some w ->
                Term_tbl.replace ps.ptbl t w;
                ps.p_refreshed <- ps.p_refreshed + 1;
                reinstate ()
            | None -> true)
        !pending
  done;
  (* 5. insertion propagation: semi-naive from the asserted facts plus
     the additions lower strata produced (all already stored) *)
  let ins_deltas =
    List.fold_left (fun m (rel, t) -> record rel t m) lower_adds seed_added
  in
  let sat_added =
    if Rel_map.is_empty ins_deltas then Rel_map.empty
    else fst (saturate fp ~budget_from ~guard:true srules (`Deltas ins_deltas))
  in
  Rel_map.iter (fun rel l -> List.iter (fun t -> note rel t false) l) sat_added;
  (* 6. net the batch-start snapshot against the current store *)
  let net_adds = ref [] and net_dels = ref [] in
  Term_tbl.iter
    (fun t (rel, was) ->
      let now = Relation.mem (get fp rel) t in
      match (was, now) with
      | false, true ->
          fp.incr.i_inserted <- fp.incr.i_inserted + 1;
          net_adds := (rel, t) :: !net_adds
      | true, false ->
          fp.incr.i_deleted <- fp.incr.i_deleted + 1;
          net_dels := (rel, t) :: !net_dels
      | _ -> ())
    before;
  (!net_adds, !net_dels)

(* Full recomputation of one stratum, used whenever one of its rules
   negates a relation this batch changed: deletions below can create
   derivations here and insertions below can destroy them, so delta
   propagation alone is not sound. Head relations are cleared, re-seeded
   from the asserted facts and saturated from scratch against the
   (already final) lower strata; the old/new difference is the net
   change handed to higher strata. *)
let recompute_stratum fp ~budget_from srules ~seeds_a ~seeds_d =
  fp.incr.i_recomputed <- fp.incr.i_recomputed + 1;
  let head_rels =
    List.sort_uniq Rel.compare (List.map (fun p -> p.rule.head_rel) srules)
  in
  let is_head rel = List.exists (fun h -> Rel.compare h rel = 0) head_rels in
  let net_adds = ref [] and net_dels = ref [] in
  (* seeds on relations no rule of the stratum derives: plain updates *)
  List.iter
    (fun (rel, t) ->
      if not (is_head rel) then
        match add fp rel t with
        | Some t -> net_adds := (rel, t) :: !net_adds
        | None -> ())
    seeds_a;
  List.iter
    (fun (rel, t) ->
      if (not (is_head rel)) && Relation.remove (get fp rel) t then begin
        fp.ctr.c_facts <- fp.ctr.c_facts - 1;
        drop_witness fp t;
        net_dels := (rel, t) :: !net_dels
      end)
    seeds_d;
  let old =
    List.map
      (fun rel ->
        let r = get fp rel in
        fp.ctr.c_facts <- fp.ctr.c_facts - Relation.cardinal r;
        Relation.iter (drop_witness fp) r;
        Hashtbl.replace fp.rels rel (Relation.create ());
        (rel, r))
      head_rels
  in
  Term_tbl.iter
    (fun t rel -> if is_head rel then Stdlib.ignore (add fp rel t))
    fp.base;
  Stdlib.ignore (saturate fp ~budget_from ~guard:false srules `Full);
  List.iter
    (fun (rel, r_old) ->
      let r_new = get fp rel in
      Relation.iter
        (fun t ->
          if not (Relation.mem r_old t) then net_adds := (rel, t) :: !net_adds)
        r_new;
      Relation.iter
        (fun t ->
          if not (Relation.mem r_new t) then net_dels := (rel, t) :: !net_dels)
        r_old)
    old;
  fp.incr.i_inserted <- fp.incr.i_inserted + List.length !net_adds;
  fp.incr.i_deleted <- fp.incr.i_deleted + List.length !net_dels;
  (!net_adds, !net_dels)

let apply fp (updates : update list) =
  (* validate the whole batch before touching anything, so a bad entry
     leaves the fixpoint exactly as it was *)
  let entries =
    List.map
      (fun u ->
        let asserted, t =
          match u with `Assert t -> (true, t) | `Retract t -> (false, t)
        in
        if not (Term.is_ground t) then
          unsupported "update: %s is not a ground fact" (Term.to_string t);
        let t = Term.hcons t in
        (match Term.functor_of t with
        | None ->
            unsupported "update: %s is not a predicate atom" (Term.to_string t)
        | Some (name, arity) when List.mem (name, arity) library ->
            unsupported "update: %s/%d is a library predicate" name arity
        | Some _ -> ());
        (asserted, t, rel_of ~refine:fp.refine ~what:"update" t))
      updates
  in
  let inc = fp.incr in
  let budget_from = fp.ctr.c_passes in
  let ins0 = inc.i_inserted and del0 = inc.i_deleted in
  inc.i_batches <- inc.i_batches + 1;
  let frame =
    Gdp_obs.Tracer.begin_span fp.tracer ~cat:"fixpoint"
      ~args:[ ("updates", Gdp_obs.Tracer.Int (List.length updates)) ]
      "bu.incr.apply"
  in
  (* replay the script against the base-fact table: per fact, only the
     net effect matters (assert-then-retract is a no-op), and the seeds
     handed to each stratum are those net changes *)
  let touched = Term_tbl.create 16 in
  List.iter
    (fun (asserted, t, rel) ->
      if asserted then inc.i_asserts <- inc.i_asserts + 1
      else inc.i_retracts <- inc.i_retracts + 1;
      if not (Term_tbl.mem touched t) then
        Term_tbl.replace touched t (rel, Term_tbl.mem fp.base t);
      if asserted then Term_tbl.replace fp.base t rel
      else Term_tbl.remove fp.base t)
    entries;
  let ns = Array.length fp.by_stratum in
  let adds_at = Array.make ns [] and dels_at = Array.make ns [] in
  Term_tbl.iter
    (fun t (rel, was) ->
      let now = Term_tbl.mem fp.base t in
      let si = min (max 0 (fp.stratum_of rel)) (ns - 1) in
      match (was, now) with
      | false, true -> adds_at.(si) <- (rel, t) :: adds_at.(si)
      | true, false -> dels_at.(si) <- (rel, t) :: dels_at.(si)
      | _ -> inc.i_noops <- inc.i_noops + 1)
    touched;
  (* strata low to high, carrying the accumulated net additions and
     deletions: every stratum's rules may read relations from any lower
     stratum, so the delta maps only ever grow *)
  let ghosts = ref Rel_map.empty in
  let changed : (Rel.t, unit) Hashtbl.t = Hashtbl.create 8 in
  let add_delta = ref Rel_map.empty and del_delta = ref Rel_map.empty in
  for si = 0 to ns - 1 do
    let srules = fp.by_stratum.(si) in
    let seeds_a = adds_at.(si) and seeds_d = dels_at.(si) in
    let negated_changed =
      List.exists
        (fun p ->
          List.exists
            (function Neg (rel, _) -> Hashtbl.mem changed rel | _ -> false)
            p.rule.body)
        srules
    in
    let reads_deltas =
      List.exists
        (fun p ->
          Array.exists
            (fun rel ->
              Rel_map.mem rel !add_delta || Rel_map.mem rel !del_delta)
            p.rule.pos_rels)
        srules
    in
    if seeds_a <> [] || seeds_d <> [] || negated_changed || reads_deltas
    then begin
      inc.i_visited <- inc.i_visited + 1;
      let s_frame =
        Gdp_obs.Tracer.begin_span fp.tracer ~cat:"fixpoint"
          ~args:
            [
              ( "mode",
                Gdp_obs.Tracer.Str
                  (if negated_changed then "recompute" else "incremental") );
            ]
          ("bu.incr.stratum " ^ string_of_int si)
      in
      let net_adds, net_dels =
        if negated_changed then
          recompute_stratum fp ~budget_from srules ~seeds_a ~seeds_d
        else
          incremental_stratum fp ~budget_from srules ~seeds_a ~seeds_d ~ghosts
            ~lower_adds:!add_delta ~lower_dels:!del_delta
      in
      List.iter
        (fun (rel, t) ->
          Hashtbl.replace changed rel ();
          add_delta := record rel t !add_delta)
        net_adds;
      List.iter
        (fun (rel, t) ->
          Hashtbl.replace changed rel ();
          del_delta := record rel t !del_delta;
          ghosts := record rel t !ghosts)
        net_dels;
      Gdp_obs.Tracer.end_span fp.tracer s_frame
        ~args:
          [
            ("added", Gdp_obs.Tracer.Int (List.length net_adds));
            ("deleted", Gdp_obs.Tracer.Int (List.length net_dels));
          ]
    end
  done;
  Gdp_obs.Tracer.end_span fp.tracer frame
    ~args:
      [
        ("inserted", Gdp_obs.Tracer.Int (inc.i_inserted - ins0));
        ("deleted", Gdp_obs.Tracer.Int (inc.i_deleted - del0));
      ];
  gauge_totals fp;
  if Gdp_obs.Tracer.enabled fp.tracer then begin
    Gdp_obs.Tracer.add fp.tracer "bu.incr.batches" 1;
    let set n v = Gdp_obs.Tracer.set fp.tracer n (float_of_int v) in
    set "bu.incr.inserted" inc.i_inserted;
    set "bu.incr.deleted" inc.i_deleted;
    set "bu.incr.overdeleted" inc.i_overdeleted;
    set "bu.incr.rederived" inc.i_rederived;
    set "bu.incr.strata_recomputed" inc.i_recomputed;
    set "prov.refreshed" fp.lineage.p_refreshed
  end

let assert_fact fp t =
  let was = Term.is_ground t && Term_tbl.mem fp.base (Term.hcons t) in
  apply fp [ `Assert t ];
  not was

let retract_fact fp t =
  let was = Term.is_ground t && Term_tbl.mem fp.base (Term.hcons t) in
  apply fp [ `Retract t ];
  was

(* ------------------------------------------------------------------ *)
(* why-provenance: witness lookup and proof reconstruction *)

let witness fp t =
  Term_tbl.find_opt fp.lineage.ptbl (Term.hcons t)
  |> Option.map (fun w -> (w.w_rule, w.w_steps))

let proof fp t =
  let ps = fp.lineage in
  let t = Term.hcons t in
  if not (holds fp t) then None
  else begin
    let frame =
      Gdp_obs.Tracer.begin_span fp.tracer ~cat:"provenance"
        "prov.reconstruct"
    in
    (* witness supports always predate the facts they support, so the
       recorded lineage is a DAG; the visiting set is defence in depth
       against a corrupt store — a repeated goal degrades to a leaf
       instead of diverging *)
    let visiting = Term_tbl.create 16 in
    let rec build goal =
      if Term_tbl.mem visiting goal then Explain.Fact goal
      else
        match Term_tbl.find_opt ps.ptbl goal with
        | None -> Explain.Fact goal
        | Some w ->
            Term_tbl.replace visiting goal ();
            let premises =
              List.map
                (function
                  | Wfact u -> build u
                  | Wnaf u -> Explain.Naf u
                  | Wguard u -> Explain.Builtin u)
                w.w_steps
            in
            Term_tbl.remove visiting goal;
            Explain.Rule { goal; premises }
    in
    let p = build t in
    let sz = Explain.size p and dp = Explain.depth p in
    ps.p_reconstructs <- ps.p_reconstructs + 1;
    if dp > ps.p_max_depth then ps.p_max_depth <- dp;
    if sz > ps.p_max_size then ps.p_max_size <- sz;
    Gdp_obs.Tracer.end_span fp.tracer frame
      ~args:
        [
          ("size", Gdp_obs.Tracer.Int sz);
          ("depth", Gdp_obs.Tracer.Int dp);
        ];
    if Gdp_obs.Tracer.enabled fp.tracer then
      Gdp_obs.Tracer.add fp.tracer "prov.reconstructs" 1;
    Some p
  end

(* ------------------------------------------------------------------ *)
(* persistent snapshots: a data-only export of a materialised fixpoint.
   Closures (join plans, spatial hooks, the tracer) never persist —
   [import] rebuilds them from the database through the same [prepare] /
   planning path [run] uses, then bulk-loads the saved facts without
   re-deriving anything. Every term is re-interned through {!Term.hcons}
   on the way in (import runs on the coordinator thread), so the
   physical-equality fast paths of the live store are restored. *)

type snap_relation = {
  sr_rel : Rel.t;
  sr_facts : Term.t array;  (* insertion order — scans stay deterministic *)
  sr_indexes : int list list;  (* argument-position indexes built lazily *)
}

type snapshot_state = {
  sn_n_strata : int;
  sn_rels : snap_relation list;
  sn_base : (Term.t * Rel.t) list;  (* asserted (extensional) facts *)
  sn_witnesses : (Term.t * witness) list;
  sn_prov : int * int * int * int;
      (* refreshed, reconstructs, max depth, max size *)
  sn_counters : counters;  (* a private copy, never aliased to a live fp *)
  sn_strata_stats : stratum_stats list;
  sn_incr : istate;  (* idem *)
}

let export fp =
  let sn_rels =
    Hashtbl.fold
      (fun rel (r : Relation.t) acc ->
        {
          sr_rel = rel;
          sr_facts = Array.sub r.Relation.arr 0 r.Relation.n;
          sr_indexes = List.map fst r.Relation.indexes;
        }
        :: acc)
      fp.rels []
    |> List.sort (fun a b -> Rel.compare a.sr_rel b.sr_rel)
  in
  let sn_base =
    Term_tbl.fold (fun t rel acc -> (t, rel) :: acc) fp.base []
    |> List.sort (fun (a, _) (b, _) -> Term.compare a b)
  in
  let ps = fp.lineage in
  {
    sn_n_strata = fp.n_strata;
    sn_rels;
    sn_base;
    sn_witnesses =
      Term_tbl.fold (fun t w acc -> (t, w) :: acc) ps.ptbl []
      |> List.sort (fun (a, _) (b, _) -> Term.compare a b);
    sn_prov = (ps.p_refreshed, ps.p_reconstructs, ps.p_max_depth, ps.p_max_size);
    sn_counters = { fp.ctr with c_facts = fp.ctr.c_facts };
    sn_strata_stats = fp.strata_stats;
    sn_incr = { fp.incr with i_batches = fp.incr.i_batches };
  }

let snapshot_facts state = state.sn_counters.c_facts

let import ?(strategy = Semi_naive) ?(indexing = true) ?spatial
    ?(spatial_indexing = true) ?(refine = fun _ -> None)
    ?(tracer = Gdp_obs.Tracer.disabled) db state =
  Gdp_obs.Tracer.with_span tracer ~cat:"snapshot"
    ~args:[ ("facts", Gdp_obs.Tracer.Int (snapshot_facts state)) ]
    "snap.import"
  @@ fun () ->
  let fp, _parsed =
    build_fixpoint ~strategy ~indexing ~spatial ~spatial_indexing ~refine
      ~tracer db
  in
  if fp.n_strata <> state.sn_n_strata then
    invalid_arg
      (Printf.sprintf
         "Bottom_up.import: snapshot stratifies into %d strata, the \
          database into %d — the snapshot belongs to a different program"
         state.sn_n_strata fp.n_strata);
  (* bulk-load, bypassing [add]: the saved counters already account for
     every insert, and restoring them wholesale afterwards keeps the
     loaded fixpoint's telemetry textually identical to the saved one.
     Saved relations hold pairwise-distinct facts, so the membership
     probe [add] pays per fact is skipped; [Relation.distinct] plus the
     total-count check below keep a malformed payload detectable. *)
  let total = ref 0 in
  List.iter
    (fun sr ->
      let r = get fp sr.sr_rel in
      let interned = Array.map Term.hcons sr.sr_facts in
      Relation.bulk r interned;
      if not (Relation.distinct r) then
        invalid_arg
          (Printf.sprintf
             "Bottom_up.import: %s holds duplicate facts — the snapshot \
              payload is malformed"
             (Rel.to_string sr.sr_rel));
      total := !total + Array.length interned)
    state.sn_rels;
  if !total <> state.sn_counters.c_facts then
    invalid_arg
      (Printf.sprintf
         "Bottom_up.import: loaded %d facts, snapshot counters claim %d"
         !total state.sn_counters.c_facts);
  List.iter
    (fun (t, rel) -> Term_tbl.replace fp.base (Term.hcons t) rel)
    state.sn_base;
  let ps = fp.lineage in
  let intern_step = function
    | Wfact u -> Wfact (Term.hcons u)
    | Wnaf u -> Wnaf (Term.hcons u)
    | Wguard u -> Wguard (Term.hcons u)
  in
  List.iter
    (fun (t, w) ->
      Term_tbl.replace ps.ptbl (Term.hcons t)
        { w with w_steps = List.map intern_step w.w_steps })
    state.sn_witnesses;
  let refreshed, reconstructs, max_depth, max_size = state.sn_prov in
  ps.p_refreshed <- refreshed;
  ps.p_reconstructs <- reconstructs;
  ps.p_max_depth <- max_depth;
  ps.p_max_size <- max_size;
  fold_counters ~into:fp.ctr state.sn_counters;
  fp.strata_stats <- state.sn_strata_stats;
  let i = state.sn_incr in
  fp.incr.i_batches <- i.i_batches;
  fp.incr.i_asserts <- i.i_asserts;
  fp.incr.i_retracts <- i.i_retracts;
  fp.incr.i_noops <- i.i_noops;
  fp.incr.i_inserted <- i.i_inserted;
  fp.incr.i_deleted <- i.i_deleted;
  fp.incr.i_overdeleted <- i.i_overdeleted;
  fp.incr.i_rederived <- i.i_rederived;
  fp.incr.i_visited <- i.i_visited;
  fp.incr.i_recomputed <- i.i_recomputed;
  (* the indexes the saved fixpoint had built lazily are rebuilt now, so
     warm-start query latency is uniform from the first probe on *)
  List.iter
    (fun sr ->
      let r = get fp sr.sr_rel in
      List.iter
        (fun positions -> Stdlib.ignore (Relation.index r positions))
        sr.sr_indexes)
    state.sn_rels;
  prebuild_spatial fp;
  emit_gauges fp;
  fp
