module Term_tbl = Path_key.Tbl

module Sx = Gdp_space.Spatial_index

(* A materialised relation: a hash set of hash-consed ground facts (O(1)
   expected membership, physical-equality fast paths on the stored
   terms), the facts in insertion order for deterministic scans, and
   lazily built subterm indexes for join probes. An index is keyed by
   paths into the fact — [[3; 0]] is the first element of the list at
   argument 3 — and maps the tuple of subterms at those paths to the
   facts carrying exactly those subterms there; [eval_rule] probes the
   index of whichever subterms the in-flowing substitution has made
   ground. *)
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
    facts : Term.t Term_tbl.t;  (* fact -> its stored canonical copy *)
    mutable arr : Term.t array; (* slots [0, n) valid, insertion order *)
    mutable n : int;
    mutable indexes : (int list list * Term.t list Term_tbl.t) list;
        (* subterm paths (in term order) -> probe table *)
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

  let index_insert idx paths fact =
    match Path_key.key_at paths fact with
    | None -> ()
    | Some k ->
        Term_tbl.replace idx k
          (fact :: Option.value ~default:[] (Term_tbl.find_opt idx k))

  (* Buckets hold their facts in reverse insertion order: built from the
     insertion-order array by prepending, then maintained by prepending
     on [add] and order-preserving filtering on [remove]. *)
  let index r paths =
    match List.assoc_opt paths r.indexes with
    | Some idx -> idx
    | None ->
        let idx = Term_tbl.create (max 64 r.n) in
        iter (index_insert idx paths) r;
        r.indexes <- (paths, idx) :: r.indexes;
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
      Term_tbl.replace r.facts t t;
      if r.n = Array.length r.arr then begin
        let bigger = Array.make (2 * r.n) dummy in
        Array.blit r.arr 0 bigger 0 r.n;
        r.arr <- bigger
      end;
      r.arr.(r.n) <- t;
      r.n <- r.n + 1;
      List.iter (fun (paths, idx) -> index_insert idx paths t) r.indexes;
      List.iter (fun (apos, sp) -> spat_insert apos sp t) r.spatials;
      true
    end

  (* Bulk load for snapshot import: slots [0, n) of [arr] hold a saved
     relation's canonical facts in insertion order, and the relation is
     built around the array itself. The hash set is created at the size
     [add]'s doubling would have grown it to, so no rehash runs and its
     bucket order matches a relation filled fact by fact; [distinct]
     afterwards is false when the array repeats a fact. *)
  let of_array arr n =
    let facts = Term_tbl.create (max 64 ((n + 1) / 2)) in
    for i = 0 to n - 1 do
      let t = Array.unsafe_get arr i in
      Term_tbl.replace facts t t
    done;
    { facts; arr; n; indexes = []; spatials = [] }

  let distinct r = Term_tbl.length r.facts = r.n

  (* Physical deletion for incremental maintenance, one batch at a time:
     drop every member of [ts] from the hash set, then compact the
     insertion-order array once (later scans stay deterministic) and
     filter once each index bucket a removed fact sat in. After the hash
     set is updated, a stored fact survives iff the set still maps it to
     itself, so compaction compares stored canonical terms with [==]
     instead of walking them structurally once per removed fact. Returns
     the members of [ts] that were present, in order. *)
  let remove r ts =
    let gone =
      List.filter_map
        (fun t ->
          match Term_tbl.find_opt r.facts t with
          | Some stored ->
              Term_tbl.remove r.facts t;
              Some (t, stored)
          | None -> None)
        ts
    in
    if gone <> [] then begin
      let live x =
        match Term_tbl.find_opt r.facts x with Some s -> s == x | None -> false
      in
      let j = ref 0 in
      for i = 0 to r.n - 1 do
        let x = Array.unsafe_get r.arr i in
        if live x then begin
          r.arr.(!j) <- x;
          incr j
        end
      done;
      Array.fill r.arr !j (r.n - !j) dummy;
      r.n <- !j;
      List.iter
        (fun (paths, idx) ->
          let filtered = Term_tbl.create 16 in
          List.iter
            (fun (_, stored) ->
              match Path_key.key_at paths stored with
              | Some k when not (Term_tbl.mem filtered k) -> (
                  Term_tbl.replace filtered k ();
                  match Term_tbl.find_opt idx k with
                  | None -> ()
                  | Some bucket -> (
                      match List.filter live bucket with
                      | [] -> Term_tbl.remove idx k
                      | bucket -> Term_tbl.replace idx k bucket))
              | _ -> ())
            gone)
        r.indexes;
      List.iter
        (fun (apos, sp) ->
          List.iter
            (fun (_, stored) ->
              match spat_box sp apos stored with
              | Some b -> Stdlib.ignore (Sx.remove sp.s_idx b stored)
              | None -> sp.s_rest <- List.filter live sp.s_rest)
            gone)
        r.spatials
    end;
    List.map fst gone

  (* Facts whose subterms at [paths] equal those of the atom [g], which
     is ground at every one of them — a superset check is not needed:
     unification of a ground subterm succeeds only on structural
     equality, so the bucket holds exactly the unification candidates
     for those subterms. *)
  let probe r paths g =
    match Path_key.key_at paths g with
    | None -> []
    | Some k -> Option.value ~default:[] (Term_tbl.find_opt (index r paths) k)
end

open Datalog

exception Unsupported = Datalog.Unsupported

type strategy = Naive | Semi_naive
type refine = Datalog.refine

(* Spatial builtin hooks, supplied by the compiler. [sp_ext] whitelists
   builtins the engine may evaluate natively as [Ext] literals (returning
   the argument positions that must be bound first); [sp_solve] runs one
   ground-input instance and returns its ground solutions; the remaining
   fields let the planner compile spatially guarded joins into index
   probes: region bounding boxes by name, point extraction from pos/2-3
   shaped arguments, whether the space's metric is covered by ±eps boxes
   (cartesian-like coordinates only), and the preferred index structure
   ([Some cell] for a uniform grid, [None] for the R-tree). *)
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

(* Evaluation bounds, per operation (an initial run or one update batch):
   only unsafe function-symbol recursion can reach them. *)
let max_iterations = 10_000
let max_facts = 1_000_000

(* Whether [subst] binds a variable of [t]. *)
let rec binds subst = function
  | Term.Var v -> Option.is_some (Subst.lookup v subst)
  | Term.App (_, args) -> List.exists (binds subst) args
  | _ -> false

let prepare db ~refine ~spatial =
  let ext = match spatial with Some sp -> sp.sp_ext | None -> fun _ -> None in
  let facts, rules = parse db ~refine ~ext in
  let stratum_of, n_strata = compute_strata rules (List.map fst facts) in
  (facts, rules, stratum_of, n_strata)

let classify ?(refine = fun _ -> None) ?spatial db =
  match prepare db ~refine ~spatial with
  | _ -> Ok ()
  | exception Unsupported reason -> Error reason

let supported ?refine ?spatial db =
  match classify ?refine ?spatial db with Ok () -> true | Error _ -> false

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
        walk (extend_bound bound lit) (lit :: acc) rest
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
        | Neg (_, atom, _) -> Some (Wnaf (app atom))
        | Never -> None
        | (Cmp _ | Eq _ | Is _ | Ext _) as lit ->
            Some (Wguard (app (goal_of lit))))
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
   but tracks the logical size of the witnesses written out as trees
   (the snapshot encoding stores each distinct node once). *)
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
   grounds it, an index probe on its ground subterms ([hash_join]), and
   a full scan only when no top-level argument is ground (or indexing
   is off).

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
  (* hash access path for the instance [g] of [atom]: probe the index
     over its ground top-level arguments — and, once the substitution
     binds one of [atom]'s variables, over every maximal ground subterm,
     so a join variable bound inside a list argument narrows the bucket.
     Both buckets keep the coarse one's reverse insertion order, so the
     enumeration of unifying facts is the same either way. Scan when no
     top-level argument is ground: a fine bucket would then come back in
     the reverse of the scan's order. *)
  let hash_join r atom g subst each =
    let paths =
      if fp.indexing then Path_key.ground_paths ~fine:(binds subst atom) g else []
    in
    if List.exists (function [ _ ] -> true | _ -> false) paths then begin
      ctr.c_probes <- ctr.c_probes + 1;
      List.iter each (Relation.probe r paths g)
    end
    else begin
      ctr.c_scans <- ctr.c_scans + 1;
      Relation.iter each r
    end
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
              | None -> hash_join r atom g subst each
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
                      hash_join r atom g subst each));
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
    | Neg (rel, atom, _) :: rest ->
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
            plan = annotate (order_body ~bound:Iset.empty ~delta_at:None r.body);
            delta_plans =
              Array.init (Array.length r.pos_rels) (fun i ->
                  annotate
                    (order_body ~bound:Iset.empty ~delta_at:(Some i) r.body));
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
        (function Neg (rel, _, _) -> Stdlib.ignore (get fp rel) | _ -> ())
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
   ground goal, an index probe on the goal's ground top-level arguments
   for a half-bound goal, the whole relation otherwise. The result is a
   superset of the facts unifiable with [goal] (exactly the bucket of
   facts agreeing with the goal's ground arguments) and is unsorted. *)
let probe fp goal =
  let candidates r =
    if Term.is_ground goal then if Relation.mem r goal then [ goal ] else []
    else
      match Path_key.ground_paths ~fine:false goal with
      | [] -> Relation.elements r
      | paths -> Relation.probe r paths goal
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

(* Physically remove those of the [(rel, t)] pairs the store holds and
   drop their witnesses; each touched relation is compacted once, by
   {!Relation.remove}. Returns the pairs removed, in input order. *)
let remove_facts fp pairs =
  let by_rel = Hashtbl.create 8 in
  List.iter
    (fun (rel, t) ->
      Hashtbl.replace by_rel rel
        (t :: Option.value ~default:[] (Hashtbl.find_opt by_rel rel)))
    pairs;
  let gone = Term_tbl.create 16 in
  Hashtbl.iter
    (fun rel ts ->
      List.iter
        (fun t -> Term_tbl.replace gone t ())
        (Relation.remove (get fp rel) (List.rev ts)))
    by_rel;
  List.filter
    (fun (_, t) ->
      Term_tbl.mem gone t
      && begin
           (* a pair listed twice is removed once *)
           Term_tbl.remove gone t;
           fp.ctr.c_facts <- fp.ctr.c_facts - 1;
           drop_witness fp t;
           true
         end)
    pairs

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
  let removed =
    remove_facts fp
      (List.rev (Term_tbl.fold (fun t rel acc -> (rel, t) :: acc) marked []))
  in
  List.iter (fun (rel, t) -> note rel t true) removed;
  (* 4. rederive: a removed fact survives if it is still asserted, or
     some rule of this stratum derives it from the remaining facts.
     Iterated to a fixpoint so chains of mutually supporting facts are
     reinstated in dependency order. The surviving derivation found here
     becomes the fact's refreshed witness — its old witness was dropped
     with the physical removal above, so every surviving tuple's lineage
     is valid against the post-batch store. *)
  let ps = fp.lineage in
  let pending = ref (List.rev removed) and progress = ref true in
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
  net_dels :=
    List.rev
      (remove_facts fp (List.filter (fun (rel, _) -> not (is_head rel)) seeds_d));
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
            (function Neg (rel, _, _) -> Hashtbl.mem changed rel | _ -> false)
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
(* persistent snapshots: a data-only export of a materialised fixpoint,
   encoded as a term DAG. Closures (join plans, spatial hooks, the
   tracer) never persist — [import] rebuilds them from the database
   through the same [prepare] / planning path [run] uses, then loads the
   saved facts without re-deriving anything.

   Layout (every number a {!Wire} varint, [int] zigzag-mapped):
     header   the strata, base fact and witness counts (nat); the 10
              counters, the 4 lineage counters and the 10 maintenance
              counters (int); per-stratum statistics (count, then 6 ints
              and the float milliseconds each); the symbol and node
              counts (nat)
     symbols  each string: atom and functor names and string constants
     nodes    one record per distinct node in post order, so a node's
              children always come before it:
              tag 0 Atom sym | 1 Int int | 2 Float f64 | 3 Str sym
                | 4 App sym arity child*
              (every stored term is ground, so there is no variable tag)
     relations  count, then in {!Rel.compare} order: name sym, arity,
              sub (0 or 1 + sym), the facts as node ids in insertion
              order, the base facts and the witnessed facts as position
              gaps (position - previous - 1), each witness as its rule
              id and its steps, each a (kind, node) pair
   Keying base facts and witnesses by fact position makes the export
   deterministic without sorting, and the import takes their terms from
   the loaded relation instead of interning them again. *)

type snapshot_state = { data : string; pos : int; len : int }

module Node_tbl = Hashtbl.Make (struct
  type t = Term.t

  (* stored terms are canonical, so physical equality finds every
     shared node; a stray non-canonical copy only costs a node *)
  let equal = ( == )
  let hash = Term.hash
end)

(* The header, symbols, nodes and relations go to separate buffers,
   because the counts the header declares are known only once the
   relations have been walked; the sections are then copied once into
   the exact-size result. *)
let export fp =
  let syms = Hashtbl.create 256 and sym_buf = Buffer.create 4096 in
  let sym s =
    match Hashtbl.find_opt syms s with
    | Some i -> i
    | None ->
        let i = Hashtbl.length syms in
        Hashtbl.add syms s i;
        Wire.add_string sym_buf s;
        i
  in
  let ids = Node_tbl.create (max 256 fp.ctr.c_facts) in
  let node_buf = Buffer.create 65536 in
  let rec node t =
    match Node_tbl.find_opt ids t with
    | Some i -> i
    | None ->
        let b = node_buf in
        (match t with
        | Term.Atom s ->
            Buffer.add_uint8 b 0;
            Wire.add_nat b (sym s)
        | Term.Int n ->
            Buffer.add_uint8 b 1;
            Wire.add_int b n
        | Term.Float f ->
            Buffer.add_uint8 b 2;
            Wire.add_float b f
        | Term.Str s ->
            Buffer.add_uint8 b 3;
            Wire.add_nat b (sym s)
        | Term.Var _ ->
            invalid_arg "Bottom_up.export: the store holds a non-ground term"
        | Term.App (f, args) ->
            let children = List.map node args in
            Buffer.add_uint8 b 4;
            Wire.add_nat b (sym f);
            Wire.add_nat b (List.length children);
            List.iter (Wire.add_nat b) children);
        let i = Node_tbl.length ids in
        Node_tbl.add ids t i;
        i
  in
  let rels =
    Hashtbl.fold (fun rel r acc -> (rel, r) :: acc) fp.rels []
    |> List.sort (fun (a, _) (b, _) -> Rel.compare a b)
  in
  let rel_buf = Buffer.create 65536 and part = Buffer.create 4096 in
  let n_base = ref 0 and n_wit = ref 0 in
  (* [emit] writes one relation's entries for the positions [keep]
     selects into [part]; their count goes first *)
  let positions (r : Relation.t) keep emit =
    let prev = ref (-1) and k = ref 0 in
    for i = 0 to r.n - 1 do
      match keep r.arr.(i) with
      | None -> ()
      | Some x ->
          Wire.add_nat part (i - !prev - 1);
          emit x;
          prev := i;
          incr k
    done;
    Wire.add_nat rel_buf !k;
    Buffer.add_buffer rel_buf part;
    Buffer.clear part;
    !k
  in
  Wire.add_nat rel_buf (List.length rels);
  List.iter
    (fun ((rel : Rel.t), (r : Relation.t)) ->
      Wire.add_nat rel_buf (sym rel.name);
      Wire.add_nat rel_buf rel.arity;
      Wire.add_nat rel_buf
        (match rel.sub with None -> 0 | Some s -> 1 + sym s);
      Wire.add_nat rel_buf r.n;
      for i = 0 to r.n - 1 do
        Wire.add_nat rel_buf (node r.arr.(i))
      done;
      n_base :=
        !n_base
        + positions r
            (fun t -> if Term_tbl.mem fp.base t then Some () else None)
            ignore;
      n_wit :=
        !n_wit
        + positions r (Term_tbl.find_opt fp.lineage.ptbl) (fun w ->
              Wire.add_int part w.w_rule;
              Wire.add_nat part (List.length w.w_steps);
              List.iter
                (fun s ->
                  let kind, u =
                    match s with
                    | Wfact u -> (0, u)
                    | Wnaf u -> (1, u)
                    | Wguard u -> (2, u)
                  in
                  Buffer.add_uint8 part kind;
                  Wire.add_nat part (node u))
                w.w_steps))
    rels;
  (* every asserted fact and every witnessed tuple is stored, so keying
     them by position loses nothing; a miss here is an engine bug *)
  if
    !n_base <> Term_tbl.length fp.base
    || !n_wit <> Term_tbl.length fp.lineage.ptbl
  then failwith "Bottom_up.export: a base fact or witness is not stored";
  let head = Buffer.create 256 in
  let c = fp.ctr and ps = fp.lineage and inc = fp.incr in
  List.iter (Wire.add_nat head) [ fp.n_strata; !n_base; !n_wit ];
  List.iter (Wire.add_int head)
    [
      c.c_facts; c.c_passes; c.c_firings; c.c_probes; c.c_scans; c.c_members;
      c.c_sprobes; c.c_sscans; c.c_hits; c.c_misses;
      ps.p_refreshed; ps.p_reconstructs; ps.p_max_depth; ps.p_max_size;
      inc.i_batches; inc.i_asserts; inc.i_retracts; inc.i_noops;
      inc.i_inserted; inc.i_deleted; inc.i_overdeleted; inc.i_rederived;
      inc.i_visited; inc.i_recomputed;
    ];
  Wire.add_nat head (List.length fp.strata_stats);
  List.iter
    (fun st ->
      List.iter (Wire.add_int head)
        [
          st.st_stratum; st.st_rules; st.st_passes; st.st_firings;
          st.st_derived; st.st_max_delta;
        ];
      Wire.add_float head st.st_ms)
    fp.strata_stats;
  Wire.add_nat head (Hashtbl.length syms);
  Wire.add_nat head (Node_tbl.length ids);
  let sections = [ head; sym_buf; node_buf; rel_buf ] in
  let len = List.fold_left (fun n b -> n + Buffer.length b) 0 sections in
  let out = Bytes.create len in
  let (_ : int) =
    List.fold_left
      (fun at b ->
        Buffer.blit b 0 out at (Buffer.length b);
        at + Buffer.length b)
      0 sections
  in
  { data = Bytes.unsafe_to_string out; pos = 0; len }

(* the saved [c_facts]: the first counter, after three counts *)
let snapshot_facts st =
  let r = Wire.reader st.data ~pos:st.pos ~len:st.len in
  for _ = 1 to 3 do
    ignore (Wire.nat r : int)
  done;
  Wire.int r

let read_stratum_stats r =
  (* record fields evaluate in no fixed order, so each read is bound first *)
  let st_stratum = Wire.int r in
  let st_rules = Wire.int r in
  let st_passes = Wire.int r in
  let st_firings = Wire.int r in
  let st_derived = Wire.int r in
  let st_max_delta = Wire.int r in
  let st_ms = Wire.float r in
  { st_stratum; st_rules; st_passes; st_firings; st_derived; st_max_delta; st_ms }

(* The size [Term_tbl.create] needs to end where doubling from [init]
   would have grown a table of [n] entries, so iteration order is that of
   a table filled one entry at a time. *)
let presized init n = Term_tbl.create (max init ((n + 1) / 2))

let rec read_list r k read acc =
  if k = 0 then List.rev acc else read_list r (k - 1) read (read r :: acc)

let import ?(strategy = Semi_naive) ?(indexing = true) ?spatial
    ?(spatial_indexing = true) ?(refine = fun _ -> None)
    ?(tracer = Gdp_obs.Tracer.disabled) db st =
  Gdp_obs.Tracer.with_span tracer ~cat:"snapshot"
    ~args:[ ("facts", Gdp_obs.Tracer.Int (snapshot_facts st)) ]
    "snap.import"
  @@ fun () ->
  let fp, _parsed =
    build_fixpoint ~strategy ~indexing ~spatial ~spatial_indexing ~refine
      ~tracer db
  in
  let r = Wire.reader st.data ~pos:st.pos ~len:st.len in
  let n_strata = Wire.nat r in
  if n_strata <> fp.n_strata then
    Wire.corrupt
      "the snapshot stratifies into %d strata, the database into %d: it \
       belongs to a different program"
      n_strata fp.n_strata;
  (* the tables the payload fills are created at their final size *)
  let n_base = Wire.count r ~min_bytes:1 "base fact" in
  let n_wit = Wire.count r ~min_bytes:3 "witness" in
  let fp =
    {
      fp with
      base = presized 64 n_base;
      lineage = { fp.lineage with ptbl = presized 256 n_wit };
    }
  in
  (* the saved counters replace the fresh ones wholesale, which keeps
     the loaded fixpoint's telemetry textually identical to the saved
     one *)
  let c = fp.ctr in
  c.c_facts <- Wire.int r;
  c.c_passes <- Wire.int r;
  c.c_firings <- Wire.int r;
  c.c_probes <- Wire.int r;
  c.c_scans <- Wire.int r;
  c.c_members <- Wire.int r;
  c.c_sprobes <- Wire.int r;
  c.c_sscans <- Wire.int r;
  c.c_hits <- Wire.int r;
  c.c_misses <- Wire.int r;
  let ps = fp.lineage in
  ps.p_refreshed <- Wire.int r;
  ps.p_reconstructs <- Wire.int r;
  ps.p_max_depth <- Wire.int r;
  ps.p_max_size <- Wire.int r;
  let inc = fp.incr in
  inc.i_batches <- Wire.int r;
  inc.i_asserts <- Wire.int r;
  inc.i_retracts <- Wire.int r;
  inc.i_noops <- Wire.int r;
  inc.i_inserted <- Wire.int r;
  inc.i_deleted <- Wire.int r;
  inc.i_overdeleted <- Wire.int r;
  inc.i_rederived <- Wire.int r;
  inc.i_visited <- Wire.int r;
  inc.i_recomputed <- Wire.int r;
  fp.strata_stats <-
    read_list r
      (Wire.count r ~min_bytes:14 "stratum statistics")
      read_stratum_stats [];
  let n_syms = Wire.count r ~min_bytes:1 "symbol" in
  let n_nodes = Wire.count r ~min_bytes:2 "node" in
  let syms = Array.init n_syms (fun _ -> Wire.string r) in
  let sym () = syms.(Wire.below r n_syms "symbol") in
  (* post order: every child id is below its parent's, so each node is
     built from canonical children and interned exactly once *)
  let nodes = Array.make n_nodes Relation.dummy in
  for i = 0 to n_nodes - 1 do
    let t =
      match Wire.byte r with
      | 0 -> Term.Atom (sym ())
      | 1 -> Term.Int (Wire.int r)
      | 2 -> Term.Float (Wire.float r)
      | 3 -> Term.Str (sym ())
      | 4 ->
          let f = sym () in
          let arity = Wire.count r ~min_bytes:1 "argument" in
          Term.App
            (f, read_list r arity (fun r -> nodes.(Wire.below r i "child")) [])
      | tag -> Wire.corrupt "node %d has unknown tag %d" i tag
    in
    nodes.(i) <- Term.intern t
  done;
  let node () = nodes.(Wire.below r n_nodes "node") in
  let step r =
    let kind = Wire.byte r in
    let u = node () in
    match kind with
    | 0 -> Wfact u
    | 1 -> Wnaf u
    | 2 -> Wguard u
    | k -> Wire.corrupt "unknown witness step kind %d" k
  in
  (* [each] gets the positions of a gap-coded position list *)
  let positions n each =
    let prev = ref (-1) in
    for _ = 1 to Wire.count r ~min_bytes:1 "position" do
      let i = !prev + 1 + Wire.below r (n - !prev - 1) "position gap" in
      each i;
      prev := i
    done
  in
  let n_rels = Wire.count r ~min_bytes:6 "relation" in
  let total = ref 0 and last = ref None in
  for _ = 1 to n_rels do
    let name = sym () in
    let arity = Wire.nat r in
    let sub =
      match Wire.below r (n_syms + 1) "refinement symbol" with
      | 0 -> None
      | s -> Some syms.(s - 1)
    in
    let rel = { Rel.name; arity; sub } in
    (match !last with
    | Some prev when Rel.compare prev rel >= 0 ->
        Wire.corrupt "relation %s is out of order" (Rel.to_string rel)
    | _ -> last := Some rel);
    let n = Wire.count r ~min_bytes:1 "fact" in
    let arr = Array.make (if n = 0 then 0 else max 16 n) Relation.dummy in
    for i = 0 to n - 1 do
      let t = node () in
      (match resolve_rel refine t with
      | Ok rel' when Rel.compare rel rel' = 0 -> ()
      | _ ->
          Wire.corrupt "fact %d of %s belongs to another relation" i
            (Rel.to_string rel));
      arr.(i) <- t
    done;
    (* an emptied relation is listed too, and stays listed on export *)
    if n = 0 then ignore (get fp rel : Relation.t)
    else begin
      let loaded = Relation.of_array arr n in
      if not (Relation.distinct loaded) then
        Wire.corrupt "%s holds duplicate facts" (Rel.to_string rel);
      Hashtbl.replace fp.rels rel loaded;
      total := !total + n
    end;
    positions n (fun i -> Term_tbl.replace fp.base arr.(i) rel);
    positions n (fun i ->
        let w_rule = Wire.int r in
        let k = Wire.count r ~min_bytes:2 "witness step" in
        Term_tbl.replace fp.lineage.ptbl arr.(i)
          { w_rule; w_steps = read_list r k step [] })
  done;
  if not (Wire.at_end r) then
    Wire.corrupt "%d trailing bytes after the relations" (Wire.remaining r);
  if !total <> c.c_facts then
    Wire.corrupt "loaded %d facts, the snapshot counters claim %d" !total
      c.c_facts;
  if
    Term_tbl.length fp.base <> n_base
    || Term_tbl.length fp.lineage.ptbl <> n_wit
  then Wire.corrupt "base or witness count disagrees with the header";
  (* hash indexes stay lazy: each is built by the first probe that needs
     it, so a load pays only for the indexes its queries use *)
  prebuild_spatial fp;
  emit_gauges fp;
  fp
