(** Bottom-up (fixpoint) evaluation of the stratified Datalog fragment:
    ground facts, conjunctive rules, negation as failure over strictly
    lower strata, and ground arithmetic / comparison guards.

    Two evaluation strategies share one stratified core:

    - {e Naive}: within each stratum, every rule re-fires against the full
      relations on every pass until nothing changes. Kept as the reference
      implementation and as the baseline the benchmarks compare against.
    - {e Semi-naive} (the default): each pass only re-fires rules that
      mention a predicate whose relation changed in the previous pass, and
      one positive body literal is matched against that {e delta} rather
      than the full relation — the classic Datalog optimisation.

    Facts are stored per relation in hash sets of hash-consed terms
    (O(1) expected membership; see {!Term.hash} and {!Term.hcons}), so a
    body literal only ever joins against its own predicate's facts.
    Joins are index-driven: each rule body is reordered by a greedy
    sideways-information-passing plan (most bound arguments first, delta
    literal leading under semi-naive evaluation), and every positive
    literal with at least one ground argument probes a lazily built hash
    index on those argument positions instead of scanning the relation.
    [run ~indexing:false] disables both the plans and the probes — the
    scan baseline the [engine-bu] benchmarks measure against.

    Three uses: materialising the consequences of a requirements base (all
    realised facts at once, independent of query order — see
    [Gdp_core.Query]'s materialised mode), whole-base [ERROR]-constraint
    sweeps, and differential testing of the top-down {!Solve} engine — on
    the shared fragment all three must derive exactly the same ground
    atoms ([test/suite_engine_props.ml]). *)

type fixpoint
(** A materialised least model: the derived relations plus everything
    needed to serve, repair ({!apply}), explain ({!witness}) and
    persist ({!export}) them. *)

exception Unsupported of string
(** Raised when the database leaves the fragment. See {!classify}. *)

type strategy = Naive | Semi_naive
(** [Naive] re-fires every rule against the whole store each pass (the
    textbook baseline, kept for benchmarking); [Semi_naive] — the
    default — restricts each firing to the previous pass's delta. Both
    compute the same least model. *)

type refine = string * int -> int option
(** Relation refinement: [refine (name, arity) = Some pos] splits the
    predicate [name/arity] into one relation per constant found at
    argument position [pos] (0-based). The GDP compiler reifies every
    fact into [holds/6] with the user predicate at position 1; without
    refinement the whole base would collapse into a single recursive
    relation and stratified negation could never apply. Atoms of a
    refined predicate must carry a constant at [pos]. The default refines
    nothing. *)

(** A query box a spatially annotated join probes with: the bounding box
    of a named region ([region_mem] guards) or the ±eps box around a
    to-be-bound anchor point ([pt_dist] guards with a bound distance). *)
type sprobe = Sp_within of Gdp_space.Spatial_index.box | Sp_near of Term.t * float

type spatial = {
  sp_ext : string * int -> int list option;
      (** whitelist: [Some inputs] admits the builtin as a native body
          literal whose argument positions [inputs] must be bound by
          preceding literals; everything else keeps the builtin
          rejection that makes the base non-materializable *)
  sp_solve : Term.t -> Term.t list;
      (** all ground solutions of one whitelisted goal instance whose
          input arguments are ground — must agree exactly with the
          top-down builtin's semantics *)
  sp_region_box : string -> Gdp_space.Spatial_index.box option;
      (** bounding box of a named region, for [region_mem] probes *)
  sp_point : Term.t -> (float * float) option;
      (** planar coordinates of a point-carrying term ([pos/2-3], bare
          or one reification constructor deep) — both the index key
          extractor and the probe-anchor reader *)
  sp_boxable : bool;
      (** whether a ±eps coordinate box contains the metric eps-ball
          (cartesian-like coordinates; false for geographic/haversine,
          where [pt_dist] joins must not compile to box probes) *)
  sp_grid_cell : float option;
      (** [Some c]: maintain uniform-grid indexes with cell size [c];
          [None]: STR-packed R-trees *)
}
(** Spatial evaluation hooks, supplied by the GDP compiler
    ([Gdp_core.Compile.spatial_hints]). With [~spatial] set, {!run}
    whitelists the hook's builtins as native body literals and — unless
    [~spatial_indexing:false] — compiles joins guarded by [region_mem]
    or bounded [pt_dist] into spatial-index probes over lazily built
    per-relation point indexes. The probes are sound pre-filters (the
    exact guard always re-checks), so the derived model, stratification
    and provenance are identical with indexing on and off. *)

val classify :
  ?refine:refine -> ?spatial:spatial -> Database.t -> (unit, string) result
(** One classification pass shared by {!supported}, {!run} and the
    stratification error messages: [Ok ()] when every clause lies in the
    evaluable fragment, [Error reason] naming the first offending clause
    otherwise. Reasons include: control constructs ([;], [->], [call],
    [=], [\=]) or builtins in a body; negation of a non-atomic goal;
    a guard or negated literal with variables not bound by a preceding
    positive literal; a non-ground fact; a head variable not bound by the
    body; and negation through a recursive stratum. Clauses of the
    library predicates ({!Prelude.predicates}) are invisible, so engine
    databases created by {!Engine.create} classify on user clauses only;
    body references to them are rejected. *)

val supported : ?refine:refine -> ?spatial:spatial -> Database.t -> bool
(** [classify db = Ok ()]. *)

type stratum_stats = {
  st_stratum : int;  (** stratum number, 0-based, dependency order *)
  st_rules : int;
  st_passes : int;
  st_firings : int;
  st_derived : int;  (** new facts this stratum added *)
  st_max_delta : int;
      (** largest delta (new facts carried into a semi-naive pass) *)
  st_ms : float;  (** wall-clock milliseconds (monotonic) *)
}

type incr_stats = {
  upd_batches : int;  (** {!apply} calls (each {!assert_fact} is one) *)
  upd_asserts : int;  (** [`Assert] script entries seen *)
  upd_retracts : int;  (** [`Retract] script entries seen *)
  upd_noops : int;
      (** script entries whose net effect on the asserted base was nil *)
  upd_inserted : int;  (** net facts the maintained store gained *)
  upd_deleted : int;  (** net facts the maintained store lost *)
  upd_overdeleted : int;
      (** facts DRed marked as possibly losing a derivation *)
  upd_rederived : int;
      (** over-deleted facts reinstated by the rederivation step *)
  upd_strata_visited : int;  (** strata any update batch propagated into *)
  upd_strata_recomputed : int;
      (** strata re-run from scratch because a negated input changed *)
}
(** Cumulative incremental-maintenance counters, all deterministic. *)

type prov_stats = {
  prov_tracked : int;  (** derived tuples with a recorded witness *)
  prov_bytes : int;
      (** approximate witness-store footprint: 8 bytes per structural
          node over every (head, rule id, step terms) record. Witness
          terms are hash-consed against the fact store, so the real
          marginal footprint is lower; a serialised export carries this
          much. *)
  prov_refreshed : int;
      (** witnesses re-captured for facts surviving a DRed rederivation *)
  prov_reconstructs : int;  (** {!proof} calls that returned a tree *)
  prov_max_depth : int;  (** deepest reconstructed proof *)
  prov_max_size : int;  (** largest reconstructed proof (nodes) *)
}
(** Lineage-store counters. *)

type stats = {
  bu_passes : int;
  bu_firings : int;
  bu_strata : int;
  bu_facts : int;  (** facts stored, initial and derived *)
  bu_index_probes : int;
      (** positive-literal matches answered by a hash-index probe *)
  bu_full_scans : int;
      (** positive-literal matches that scanned the whole relation *)
  bu_membership_tests : int;
      (** positive-literal matches on a fully ground goal: O(1) membership *)
  bu_spatial_probes : int;
      (** spatially annotated joins answered by a spatial-index probe *)
  bu_spatial_scans : int;
      (** spatially annotated joins that fell back to the hash path —
          all of them under [~spatial_indexing:false], else the joins
          whose probe box could not be computed at evaluation time *)
  bu_hcons_hits : int;
      (** derived terms already interned — structurally equal to a stored
          fact, deduplicated by physical equality *)
  bu_hcons_misses : int;  (** derived terms interned fresh *)
  bu_prov : prov_stats;  (** the why-provenance sidecar's counters *)
  bu_strata_stats : stratum_stats list;  (** non-empty strata, in order *)
  bu_incr : incr_stats;  (** all zeros until the first {!apply} *)
}

val run :
  ?strategy:strategy ->
  ?indexing:bool ->
  ?spatial:spatial ->
  ?spatial_indexing:bool ->
  ?refine:refine ->
  ?tracer:Gdp_obs.Tracer.t ->
  ?seed:Term.t list ->
  Database.t ->
  fixpoint
(** Evaluate strata in dependency order to the least fixpoint (default
    strategy {!Semi_naive}; fixed bounds: 10_000 passes, 1_000_000
    facts — exceeding either raises [Failure], which only unsafe
    function-symbol recursion can trigger). Raises {!Unsupported} with
    the {!classify} reason when the database leaves the fragment.
    [indexing] (default [true]) controls the join machinery: when off,
    bodies evaluate in textual order and positive literals scan their
    whole relation — the measured-against baseline, semantically
    identical to the indexed path. [spatial] (default absent) supplies
    the {!spatial} hooks: whitelisted spatial builtins evaluate natively
    and, with [spatial_indexing] (default [true]), joins guarded by
    [region_mem] or a bounded [pt_dist] probe lazily built spatial
    indexes (one ["bu.spatial.build"] span each at load time, final
    [bu.spatial.probes]/[bu.spatial.scans] counter samples);
    [~spatial_indexing:false] keeps the exact same model and guard
    semantics while every annotated join takes the hash/scan path. [tracer] (default disabled) records
    one ["fixpoint"]-category span for the whole run, one per non-empty
    stratum (with rule/pass/derived-fact counts as span arguments) and
    one per pass (with the delta size), plus final [bu.*] counter
    samples — see {!Gdp_obs.Tracer}. Evaluation is sequential and
    deterministic: within a pass, rules fire in rule order and each
    derived fact is inserted (and visible to later firings of the same
    pass) as soon as it is found. [seed] (default empty) is a list of
    extra ground facts injected into the base before the strata run —
    the hook the magic-set rewrite ({!Magic}) uses to plant the query
    seed; a non-ground or non-atomic seed raises {!Unsupported}.
    Seeds are netted against the parsed facts and each other: a seed
    already present, or repeated, counts once. Every derived tuple
    records one witness at its first derivation — see the
    {{!section:provenance} provenance section}. Lineage never changes
    what is derived, the pass structure, or any counter in {!stats}
    other than the [bu_prov] block. *)

val facts : fixpoint -> Term.t list
(** All derived ground atoms, sorted in the standard order of terms. *)

val holds : fixpoint -> Term.t -> bool
(** Membership of a ground atom. *)

val facts_matching : fixpoint -> Term.t -> Term.t list
(** The stored facts of the goal's relation (refined by the goal's
    constant at the refinement position when possible; the union of the
    predicate's refined relations when that argument is a variable),
    sorted. The goal itself is not unified against them — callers filter. *)

val probe : fixpoint -> Term.t -> Term.t list
(** Candidate facts for a possibly non-ground goal, narrowed by the
    cheapest access path: a membership test when the goal is ground, a
    hash-index probe on the goal's ground argument positions when it is
    half-bound, and the stored relation(s) otherwise. Always a superset
    of the facts unifiable with the goal — callers still unify/filter —
    and unsorted (unlike {!facts_matching}). [Gdp_core.Query]'s
    materialised mode answers through this instead of scanning. *)

val count : fixpoint -> int
(** Total facts in the store (asserted and derived), across all
    relations. *)

val iterations : fixpoint -> int
(** Total number of passes across all strata until the least fixpoint. *)

val rule_firings : fixpoint -> int
(** Number of rule-body evaluations: per pass, naive evaluation fires
    every rule of the stratum, semi-naive fires one evaluation per
    (rule, changed-predicate position). The benchmark's "fewer
    full-relation joins" claim is this counter. *)

val strata_count : fixpoint -> int
(** Number of strata the program was split into (1 for pure positive
    programs with a single recursive component family). *)

val stats : fixpoint -> stats
(** Everything the fixpoint measured, cumulative over the initial run
    and every later {!apply}. Counter fields are deterministic for a
    given database, options and update history; only
    {!stratum_stats.st_ms} varies. *)

val incr_stats : fixpoint -> incr_stats
(** The incremental-maintenance counters alone (same data as
    [(stats fp).bu_incr]). *)

val hcons_hit_rate : stats -> float
(** [bu_hcons_hits / (bu_hcons_hits + bu_hcons_misses)], 0 when no term
    was interned. *)

val pp_stats : Format.formatter -> stats -> unit
(** Multi-line summary. Deliberately omits the per-stratum timings so the
    output is deterministic (CLI [--stats] is cram-tested). The
    maintenance counter block is printed only after the first update
    batch. *)

(** {1 Incremental maintenance}

    A fixpoint returned by {!run} is a live view: asserted (extensional)
    facts can be added and removed after the fact, and the derived
    consequences are repaired in place instead of recomputing the whole
    base. Additions propagate through the same semi-naive delta passes
    the initial run used, restricted to the strata whose relations
    changed. Deletions use DRed (delete-and-rederive): per stratum, the
    consequences of every deleted fact are over-deleted by running the
    delta passes against the pre-deletion state, then each over-deleted
    fact is rederived from the surviving facts (or its own base
    assertion) — exact, so over-deletion may safely over-approximate.
    Stratified negation stays correct because any stratum with a negated
    literal over a changed relation is re-run from scratch against the
    (already repaired) lower strata. After every update the store is
    exactly what {!run} on the updated database would build — the
    invariant [test/suite_incremental.ml] checks differentially. *)

type update = [ `Assert of Term.t | `Retract of Term.t ]
(** One change to the asserted base, as a ground engine atom — the
    logic-level counterpart of [Gdp_core.Spec.update]. *)

val apply : fixpoint -> update list -> unit
(** Apply one batch of updates to the asserted base, in script order —
    per fact only the net effect matters (assert-then-retract in one
    batch is a no-op) — then repair the derived consequences. Facts must
    be ground atoms of non-library predicates (with a constant at the
    refining position when their predicate is refined); anything else
    raises {!Unsupported}. The whole batch is validated before anything
    changes, so a rejected batch leaves the fixpoint untouched.
    Retracting a fact that was never asserted, or one only ever derived
    by rules, is a no-op;
    asserting a fact that rules already derive marks it extensional (it
    then survives losing its rule derivations) without changing the
    store. Shares {!run}'s iteration/fact bounds per batch. Witnesses
    stay coherent across the batch: witnesses of
    deleted facts are dropped, facts reinstated by rederivation get the
    surviving derivation as a fresh witness (counted in
    [prov_refreshed]), and strata recomputed outright re-capture from
    scratch — after every batch each witness's supports are again facts
    of the store. *)

val assert_fact : fixpoint -> Term.t -> bool
(** [apply fp [`Assert t]]; [true] iff [t] was not already asserted
    (the asserted base grew — the derived store may or may not have). *)

val retract_fact : fixpoint -> Term.t -> bool
(** [apply fp [`Retract t]]; [true] iff [t] had been asserted. *)

(** {1:provenance Why-provenance}

    Every fixpoint keeps a sidecar store mapping
    every {e derived} tuple to one witness: the rule that first produced
    it plus that firing's instantiated body — supporting positive tuples,
    negated literals that had no proof, and satisfied arithmetic /
    equality guards. Asserted base facts carry no witness (they are their
    own evidence). Witness supports always predate the fact they support,
    so the store is a DAG and {!proof} reconstruction terminates.

    The witness is the firing that inserted the tuple in {!run}'s
    deterministic pass order, so two runs over the same database record
    identical lineage. *)

type wstep =
  | Wfact of Term.t  (** supporting positive body tuple *)
  | Wnaf of Term.t  (** negated literal instance that had no proof *)
  | Wguard of Term.t  (** arithmetic / equality guard instance *)
      (** One instantiated body literal of a recorded witness. *)

val witness : fixpoint -> Term.t -> (int * wstep list) option
(** The recorded witness of a derived tuple: the deriving rule's id
    (0-based position among the database's evaluable rules) and the
    instantiated body steps. [None] when the tuple is not in the store,
    and for asserted base facts. *)

val proof : fixpoint -> Term.t -> Explain.proof option
(** Reconstruct a derivation tree for a stored ground atom by chasing
    witnesses: derived tuples become [Rule] nodes over their supports,
    base facts bottom out as [Fact] leaves, negated steps as [Naf]
    leaves and guards as [Builtin] leaves — the same shapes
    {!Explain.prove} returns, so printers and exporters apply unchanged.
    [None] when the atom is not in the store. Updates
    the [prov_reconstructs] / max depth / max size counters and, when
    the tracer is live, emits a ["prov.reconstruct"] span. *)

(** {1:snapshots Persistent snapshots}

    A materialised fixpoint can be exported as a pure-data value and
    later re-imported against a freshly compiled database — the
    compile-once/query-many path {!Gdp_core.Query} and the [gdprs
    compile] subcommand build on (see {!Snapshot} for the on-disk
    container). Only data persists: per-relation facts in insertion
    order, which lazy argument indexes had been built, the asserted
    base, recorded witnesses, and every cumulative counter. Join plans,
    stratification and all closures are rebuilt from the database at
    import time, and spatial indexes are rebuilt eagerly, exactly as
    {!run} builds them. *)

type snapshot_state
(** The exported state of one fixpoint. Contains only marshallable data
    (terms, relation names, counters) — safe to [Marshal] and reload in
    another process. *)

val export : fixpoint -> snapshot_state
(** Capture the fixpoint's current facts, asserted base, witnesses and
    cumulative counters. The fixpoint stays live and is not aliased by
    the returned value: later {!apply} calls do not alter the export. *)

val snapshot_facts : snapshot_state -> int
(** Number of stored facts the snapshot carries (the saved fixpoint's
    [bu_facts]). *)

val import :
  ?strategy:strategy ->
  ?indexing:bool ->
  ?spatial:spatial ->
  ?spatial_indexing:bool ->
  ?refine:refine ->
  ?tracer:Gdp_obs.Tracer.t ->
  Database.t ->
  snapshot_state ->
  fixpoint
(** Rebuild a live fixpoint from [db] and a snapshot {e without
    re-deriving anything}: the database is classified, stratified and
    planned exactly as {!run} would (same options, same meaning), then
    the saved facts are bulk-inserted — re-interned through
    {!Term.hcons} — the saved counters, per-stratum statistics,
    maintenance counters and witnesses are restored, the recorded lazy
    hash indexes and the planned spatial indexes are rebuilt eagerly,
    and the usual final counter gauges are emitted (plus one
    ["snap.import"] span) when the tracer is live. The result answers
    {!holds}/{!probe}/{!proof} and accepts {!apply} exactly like the
    fixpoint {!export} captured. Callers must pass a database compiled
    from the same program under the same options the snapshot was
    saved from — [Gdp_core] enforces this with a content hash; as
    defence in depth, a stratification-shape or fact-count mismatch
    raises [Invalid_argument]. Raises {!Unsupported} when [db] leaves
    the evaluable fragment. *)
