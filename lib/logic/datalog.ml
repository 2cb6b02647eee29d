(* The Datalog fragment: which clauses the bottom-up engine evaluates,
   how a clause body is represented, when it is safe, how predicates
   stratify, and in what order body literals join. [Bottom_up] evaluates
   through it and [Magic] rewrites through it, so the two agree on the
   fragment, its rejection reasons and the sideways information passing
   by construction. *)

module Iset = Set.Make (Int)

exception Unsupported of string

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

type sprobe =
  | Sp_within of Gdp_space.Spatial_index.box
      (** bound region guard: probe its bounding box *)
  | Sp_near of Term.t * float  (** pt_dist anchor term and distance bound *)

(* Body literals in textual order. Positive literals carry their join
   position so the semi-naive driver can aim the delta at one of them. *)
type lit =
  | Pos of int * Rel.t * Term.t * (int * sprobe) option
      (** join position, relation, atom and the plan's optional spatial
          probe [(apos, probe)]: before unifying, pre-filter the relation
          through the spatial index over argument [apos] using the box
          the probe implies — sound because the box covers every tuple
          the downstream spatial guard can accept *)
  | Neg of Rel.t * Term.t * string
      (** relation, negated atom, and the source's negation functor *)
  | Cmp of string * Term.t * Term.t  (** arithmetic comparison guard *)
  | Eq of bool * Term.t * Term.t  (** ground ==/2 (true) or \==/2 (false) *)
  | Is of Term.t * Term.t
  | Ext of int list * Term.t
      (** whitelisted spatial builtin: bound input positions, goal *)
  | Never  (** fail/false in the body: the rule can never fire *)

type rule = {
  id : int;  (** stable rule identifier, parse order *)
  head : Term.t;
  head_rel : Rel.t;
  body : lit list;
  pos_rels : Rel.t array;  (** relation at each positive join position *)
}

let goal_of = function
  | Pos (_, _, atom, _) | Ext (_, atom) -> atom
  | Neg (_, atom, op) -> Term.App (op, [ atom ])
  | Cmp (op, a, b) -> Term.App (op, [ a; b ])
  | Eq (true, a, b) -> Term.App ("==", [ a; b ])
  | Eq (false, a, b) -> Term.App ("\\==", [ a; b ])
  | Is (l, r) -> Term.App ("is", [ l; r ])
  | Never -> Term.Atom "fail"

let control_functors = [ ","; ";"; "->"; "call"; "="; "\\=" ]
let cmp_ops = [ "<"; ">"; "=<"; ">="; "=:="; "=\\=" ]

(* Library clauses ({!Prelude}) are invisible to classification, so engine
   databases created by {!Engine.create} classify on user clauses only. *)
let library = Prelude.predicates

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
          match t with
          | Term.App (_, args) -> (
              match List.nth_opt args pos with
              | Some (Term.Atom p) -> Ok { Rel.name; arity; sub = Some p }
              | _ -> Error (`Unrefined (name, arity, pos)))
          | _ -> Error (`Unrefined (name, arity, pos))))

let rel_of ~refine ~what t =
  match resolve_rel refine t with
  | Ok rel -> rel
  | Error `Not_atom ->
      unsupported "%s: %s is not a predicate atom" what (Term.to_string t)
  | Error (`Unrefined (name, arity, pos)) ->
      unsupported "%s: %s/%d needs a constant at refining argument %d in %s"
        what name arity pos (Term.to_string t)

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

(* A guard is ready once every variable it reads is bound. A spatial
   builtin is ready once its input arguments are: it then acts as a
   generator for its output arguments, extending the bound set. *)
let guard_ready bound = function
  | Cmp (_, a, b) | Eq (_, a, b) ->
      Iset.subset (Iset.union (vset a) (vset b)) bound
  | Is (_, r) -> Iset.subset (vset r) bound
  | Neg (_, atom, _) -> Iset.subset (vset atom) bound
  | Ext (inputs, atom) -> Iset.subset (ext_input_vars inputs atom) bound
  | Never -> true
  | Pos _ -> false

let extend_bound bound = function
  | Pos (_, _, atom, _) | Ext (_, atom) -> Iset.union bound (vset atom)
  | Is (l, _) -> Iset.union bound (vset l)
  | Neg _ | Cmp _ | Eq _ | Never -> bound

(* ------------------------------------------------------------------ *)
(* classification: one pass deciding membership in the fragment         *)

let parse_body_goal db ~refine ~ext ~ctx ~next_pos g =
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
            else Some (Neg (rel_of ~refine ~what:ctx inner, inner, name))
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
        match ext (name, arity) with
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
        (if not (guard_ready bound lit) then
           match lit with
           | Is (_, r) ->
               unsupported
                 "%s: arithmetic expression %s uses variables not bound by a \
                  preceding positive literal" ctx (Term.to_string r)
           | Cmp _ | Eq _ ->
               unsupported
                 "%s: comparison guard uses variables not bound by a preceding \
                  positive literal" ctx
           | Neg (_, atom, _) ->
               unsupported
                 "%s: negated literal %s must be ground when reached (bind its \
                  variables with a preceding positive literal)" ctx
                 (Term.to_string atom)
           | Ext (_, atom) ->
               unsupported
                 "%s: spatial builtin %s needs its input arguments bound by a \
                  preceding positive literal" ctx (Term.to_string atom)
           | Pos _ | Never -> ());
        extend_bound bound lit)
      Iset.empty body
  in
  if not (Iset.subset (vset head) bound) then
    unsupported "%s: head variable not bound by the body" ctx

let parse_clause db ~refine ~ext (c : Database.clause) =
  let head_rel = rel_of ~refine ~what:"clause head" c.Database.head in
  if c.Database.body = [] then begin
    if not (Term.is_ground c.Database.head) then
      unsupported "%s: non-ground fact %s" (Rel.to_string head_rel)
        (Term.to_string c.Database.head);
    `Fact (head_rel, c.Database.head)
  end
  else begin
    let ctx = Rel.to_string head_rel in
    let next_pos = ref 0 in
    let body =
      List.filter_map (parse_body_goal db ~refine ~ext ~ctx ~next_pos)
        c.Database.body
    in
    check_safety ~ctx c.Database.head body;
    let pos_rels = Array.make !next_pos head_rel in
    List.iter (function Pos (i, rel, _, _) -> pos_rels.(i) <- rel | _ -> ()) body;
    `Rule { id = -1; head = c.Database.head; head_rel; body; pos_rels }
  end

let parse db ~refine ~ext =
  let facts = ref [] and rules = ref [] in
  List.iter
    (fun fa ->
      (* library clauses are invisible *)
      if not (List.mem fa library) then
        List.iter
          (fun c ->
            match parse_clause db ~refine ~ext c with
            | `Fact f -> facts := f :: !facts
            | `Rule r -> rules := r :: !rules)
          (Database.all_clauses db fa))
    (Database.predicates db);
  (List.rev !facts, List.mapi (fun i r -> { r with id = i }) (List.rev !rules))

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
          | Neg (rel, _, _) ->
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
          | Neg (rel, _, _) when comp_of rel = comp_of r.head_rel ->
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

(* ------------------------------------------------------------------ *)
(* join planning: a greedy sideways-information-passing order            *)

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

(* Reorder one rule body from the variables [bound] already binds: the
   delta literal (if the semi-naive driver aims one) goes first, then
   repeatedly (a) flush every guard whose variables are bound — [is/2]
   results extend the bound set, which can ready further guards — and
   (b) pick the positive literal with the most bound arguments (ties:
   one over a relation other than [avoid], then textual order). Guards
   and negated literals only ever run with all read variables ground,
   exactly as [check_safety] guaranteed for the textual order, so
   reordering preserves semantics: ground guards are
   order-independent filters and negation reads a strictly lower
   (already complete) stratum. *)
let order_body ?avoid ~bound ~delta_at body =
  if List.exists (function Never -> true | _ -> false) body then [ Never ]
  else begin
    let rec flush_guards bound plan remaining =
      let ready, rest = List.partition (guard_ready bound) remaining in
      if ready = [] then (bound, plan, rest)
      else
        flush_guards
          (List.fold_left extend_bound bound ready)
          (plan @ ready) rest
    in
    let rec go bound plan remaining =
      let bound, plan, remaining = flush_guards bound plan remaining in
      if remaining = [] then plan
      else
        let best =
          List.fold_left
            (fun best lit ->
              match lit with
              | Pos (_, rel, atom, _) -> (
                  let other =
                    match avoid with
                    | Some a when Rel.compare a rel = 0 -> 0
                    | _ -> 1
                  in
                  let c = (2 * bound_arg_count bound atom) + other in
                  match best with
                  | Some (bc, _) when bc >= c -> best
                  | _ -> Some (c, lit))
              | _ -> best)
            None remaining
        in
        match best with
        | Some (_, lit) ->
            go (extend_bound bound lit) (plan @ [ lit ])
              (remove_first lit remaining)
        | None ->
            (* unreachable for safety-checked bodies; keep textual order *)
            plan @ remaining
    in
    match delta_at with
    | None -> go bound [] body
    | Some i -> (
        match
          List.find_opt
            (function Pos (j, _, _, _) -> j = i | _ -> false)
            body
        with
        | Some lit ->
            go (extend_bound bound lit) [ lit ] (remove_first lit body)
        | None -> go bound [] body)
  end
