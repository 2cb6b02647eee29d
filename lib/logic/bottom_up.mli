(** Bottom-up (fixpoint) evaluation of the stratified Datalog fragment:
    ground facts, conjunctive rules, negation as failure over strictly
    lower strata, and ground arithmetic / comparison guards.

    Within each stratum, evaluation is {e semi-naive}: each pass only
    re-fires rules that mention a predicate whose relation changed in the
    previous pass, and one positive body literal is matched against that
    {e delta} rather than the full relation — the classic Datalog
    optimisation. The reference evaluations the tests and benchmarks
    compare against are selected by {!run}'s [?baseline] alone.

    Each fixpoint interns every ground term it holds in its own node
    bank: a term is an int id, equal terms get equal ids, and terms are
    rebuilt (memoised per id, sharing the bank's DAG) only at this
    interface, for arithmetic and spatial guards, and for proofs. Facts
    are stored per relation as a column of ids, with their ranks in one
    column of the bank (membership is one array read), so a body literal
    only ever joins against its own predicate's facts. Joins are index-driven: each rule body is
    reordered by a greedy sideways-information-passing plan (most bound
    arguments first, delta literal leading under semi-naive evaluation)
    and compiled once against the bank, and every positive literal with
    at least one ground argument probes a lazily built index instead of
    scanning the relation. The index is keyed on the id of one ground
    subterm ({!Path_key.key_path}): the first maximal ground subterm that
    holds a variable the plan has bound, else one that not every fact of
    the relation shares — so a join variable bound inside a list
    argument (the objects of a [holds/6] fact), or a constant object,
    narrows the probe to the facts carrying it, and unification checks
    the rest.

    Three uses: materialising the consequences of a requirements base (all
    realised facts at once, independent of query order — see
    [Gdp_core.Query]'s materialised mode), whole-base [ERROR]-constraint
    sweeps, and differential testing of the top-down {!Solve} engine — on
    the shared fragment all three must derive exactly the same ground
    atoms ([test/suite_engine_props.ml]). *)

type fixpoint
(** A materialised least model: the derived relations plus everything
    needed to serve, repair ({!apply}), explain ({!proof}) and
    persist ({!export}) them. *)

exception Unsupported of string
(** {!Datalog.Unsupported}: raised when the database leaves the
    fragment. See {!classify}. *)

exception Bound_exceeded of [ `Facts | `Passes ] * int
(** Raised when one operation — a {!run} or one {!apply} batch — stores
    more facts than its fact bound (1_000_000) or runs more passes than
    its pass bound (10_000); the payload names the bound and its limit.
    Only rules that derive without end (unsafe function-symbol or
    arithmetic recursion) reach either. A fixpoint whose {!apply}
    raised it is half-updated and must be dropped. *)

type baseline =
  | Naive
      (** every rule re-fires against the whole store each pass: the
          textbook evaluation, without deltas *)
  | Scan
      (** bodies evaluate in textual order and every positive literal
          scans its whole relation: no join plans, no hash probes.
          Spatial probes stay on; no caller combines this with
          [~spatial]. *)
  | Spatial_scan
      (** production plans and hash probes, but every spatially
          annotated join takes the hash/scan path instead of a spatial
          index probe *)
(** The reference evaluations tests and benchmarks compare the engine
    against. Each computes the same least model, stratification and
    provenance as the default; only the pass structure and access-path
    counters differ. Nothing outside tests and benchmarks selects one. *)

type refine = Datalog.refine
(** Relation refinement (see {!Datalog.refine}); the default refines
    nothing. *)

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
}
(** Spatial evaluation hooks, supplied by the GDP compiler
    ([Gdp_core.Compile.spatial_hints]). With [~spatial] set, {!run}
    whitelists the hook's builtins as native body literals and compiles
    joins guarded by [region_mem] or bounded [pt_dist] into
    spatial-index probes over per-relation point indexes. The probes
    are sound pre-filters (the exact guard always re-checks), so the
    derived model, stratification and provenance are identical to the
    {!Spatial_scan} baseline's. *)

val classify :
  ?refine:refine -> ?spatial:spatial -> Database.t -> (unit, string) result
(** The fragment check {!run} starts with: {!Datalog.parse} then
    {!Datalog.compute_strata}. [Ok ()] when every clause lies in the
    evaluable fragment and the base stratifies, [Error reason] naming
    the first offending clause otherwise — a {!Datalog.parse} reason or
    negation through a recursive stratum. Library clauses
    ({!Prelude.predicates}) are invisible, so engine databases created
    by {!Engine.create} classify on user clauses only. *)

type stratum_stats = {
  st_stratum : int;  (** stratum number, 0-based, dependency order *)
  st_rules : int;
  st_passes : int;
  st_firings : int;
  st_derived : int;  (** new facts this stratum added *)
  st_max_delta : int;
      (** largest delta (new facts carried into a semi-naive pass) *)
}
(** Per-stratum counters of the initial run. Each stratum's wall-clock
    time is the duration of the tracer's [stratum N] span. *)

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
      (** retired: strata an earlier maintenance path re-ran from scratch
          when a negated input changed. {!apply} repairs every stratum
          through DRed and never moves it; only a snapshot written before
          carries a non-zero count. *)
}
(** Cumulative incremental-maintenance counters, all deterministic. *)

type prov_stats = {
  prov_bytes : int;
      (** the rank column's size: one 8-byte word per stored fact *)
  prov_reconstructs : int;  (** {!proof} calls that returned a tree *)
  prov_max_depth : int;  (** deepest reconstructed proof *)
  prov_max_size : int;  (** largest reconstructed proof (nodes) *)
}
(** Lineage counters. *)

type stats = {
  bu_passes : int;  (** passes across all strata *)
  bu_firings : int;
      (** rule-body evaluations: per pass, {!Naive} fires every rule of
          the stratum, the default one per (rule, changed-predicate
          position) *)
  bu_strata : int;  (** strata the program was split into *)
  bu_facts : int;  (** facts stored, initial and derived *)
  bu_index_probes : int;
      (** positive-literal matches answered by a hash-index probe *)
  bu_full_scans : int;
      (** positive-literal matches that scanned the whole relation *)
  bu_candidates : int;
      (** facts the probes, scans, delta and spatial lookups handed to a
          positive literal's match: the work a less selective probe key
          adds. Counted in this process only; a snapshot does not carry
          it, so it restarts at 0 on {!import}. *)
  bu_membership_tests : int;
      (** positive-literal matches on a fully ground goal: O(1) membership *)
  bu_spatial_probes : int;
      (** spatially annotated joins answered by a spatial-index probe *)
  bu_spatial_scans : int;
      (** spatially annotated joins that fell back to the hash path —
          all of them under the {!Spatial_scan} baseline, else the joins
          whose probe box could not be computed at evaluation time *)
  bu_hcons_hits : int;
      (** store adds of a fact its relation already held *)
  bu_hcons_misses : int;  (** store adds that stored a new fact *)
  bu_prov : prov_stats;  (** the why-provenance counters *)
  bu_strata_stats : stratum_stats list;  (** non-empty strata, in order *)
  bu_incr : incr_stats;  (** all zeros until the first {!apply} *)
}

val run :
  ?baseline:baseline ->
  ?spatial:spatial ->
  ?refine:refine ->
  ?tracer:Gdp_obs.Tracer.t ->
  ?seed:Term.t list ->
  Database.t ->
  fixpoint
(** Evaluate strata in dependency order to the least fixpoint (fixed
    bounds: 10_000 passes, 1_000_000 facts — exceeding either raises
    {!Bound_exceeded}). Raises {!Unsupported} with the {!classify}
    reason when the database leaves the fragment.
    [baseline] (default absent: the production evaluation) selects a
    reference evaluation; {!apply} keeps evaluating in it. [spatial]
    (default absent) supplies the {!spatial} hooks: whitelisted spatial
    builtins evaluate natively, and joins guarded by [region_mem] or a
    bounded [pt_dist] probe spatial indexes, each built before the first
    pass (one ["bu.spatial.build"] span each, final
    [bu.spatial.probes]/[bu.spatial.scans] counter samples). [tracer]
    (default disabled) records
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
    already present, or repeated, counts once. Every stored fact gets a
    rank as it enters the store — see the
    {{!section:provenance} provenance section}. Ranks never change what
    is derived, the pass structure, or any counter in {!stats}. *)

val facts : fixpoint -> Term.t list
(** All derived ground atoms, sorted in the standard order of terms. *)

val holds : fixpoint -> Term.t -> bool
(** Membership of a ground atom. *)

val probe : fixpoint -> Term.t -> Term.t list
(** Candidate facts for a possibly non-ground goal, narrowed by the
    cheapest access path: a membership test when the goal is ground, an
    index probe on one ground subterm when it is half-bound
    ({!Path_key.key_path}: a [holds/6] goal's object list or first bound
    object, its values or position, rather than the model or predicate
    every fact of the relation shares), and the stored relation(s)
    otherwise. A key no stored fact carries finds no
    candidates and builds no index. The first probe of a path that has
    no index scans the relation's id column for the key and builds
    none, since a one-shot query (a CLI [query]) probes once; the
    second probe of that path builds the index, which later probes and
    rule joins share. Either way the candidates are the same list in
    the same order. Always a superset
    of the facts unifiable with the goal — callers still unify/filter —
    and unsorted (unlike {!facts}). [Gdp_core.Query]'s
    materialised mode answers through this instead of scanning. *)

val count : fixpoint -> int
(** Total facts in the store (asserted and derived), across all
    relations. *)

val stats : fixpoint -> stats
(** Everything the fixpoint measured, cumulative over the initial run
    and every later {!apply}. Counter fields are deterministic for a
    given database, baseline and update history. *)

val incr_stats : fixpoint -> incr_stats
(** The incremental-maintenance counters alone (same data as
    [(stats fp).bu_incr]). *)

val hcons_hit_rate : stats -> float
(** [bu_hcons_hits / (bu_hcons_hits + bu_hcons_misses)]: the share of
    store adds that found their fact already stored, 0 when nothing was
    added. *)

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
    consequences of every deleted fact, found by delta evaluation
    against the pre-deletion state, are decided lowest rank first: one
    that is still asserted or has a derivation from unmarked facts of
    lower rank is kept, any other is over-deleted and its own
    consequences join the candidates. Each over-deleted fact is then
    rederived from the surviving facts (or its own base assertion) —
    exact, so over-deletion may safely over-approximate.
    Stratified negation is one more delta: a negated literal over a
    relation a lower stratum changed is read as a positive join against
    that change, so the facts the lower stratum added find the firings
    they block (over-deletion candidates) and the facts it deleted find
    the firings they unblock (insertions). The keep check and
    rederivation read negation against the already repaired lower
    strata. After every update the store is
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
    store. Shares {!run}'s pass and fact bounds per batch. The rank
    invariant of the {{!section:provenance} provenance section} holds
    after every batch: a fact the batch inserts or rederivation
    reinstates gets a fresh rank, and every other fact keeps its rank,
    also in a stratum whose negated inputs changed. *)

val assert_fact : fixpoint -> Term.t -> bool
(** [apply fp [`Assert t]]; [true] iff [t] was not already asserted
    (the asserted base grew — the derived store may or may not have). *)

val retract_fact : fixpoint -> Term.t -> bool
(** [apply fp [`Retract t]]; [true] iff [t] had been asserted. *)

(** {1:provenance Why-provenance}

    Every stored fact carries a {e rank}: the value of the fixpoint's
    insertion counter when it entered the store, so the premises of its
    first derivation rank below it. {!proof} rebuilds a proof on demand
    with DRed's derivation search, taking premises from the fact's own
    stratum only when they rank lower. Two runs over the same database
    give identical ranks and proofs. *)

val rank : fixpoint -> Term.t -> (int * int) option
(** [(stratum, rank)] of a stored ground atom: the stratum of its
    relation and its rank. [None] when the atom is not stored. {!apply}
    moves only the ranks of the facts it inserts or reinstates. *)

val proof : fixpoint -> Term.t -> Explain.proof option
(** Rebuild a derivation tree for a stored ground atom, [None] when it
    is not stored. Base facts are [Fact] leaves; a derived fact is a
    [Rule] node over the first firing, in rule order, whose premises
    from its stratum rank lower, with [Naf] leaves for negated literals
    and [Builtin] leaves for guards — the shapes {!Explain.prove}
    returns. Shared sub-proofs are searched once. The search moves only
    the [prov_reconstructs] / max depth / max size counters and, when
    the tracer is live, emits a ["prov.reconstruct"] span. A derived
    fact with no rank-bounded firing, which only a crafted snapshot can
    hold, raises {!Wire.Corrupt}. *)

(** {1:snapshots Persistent snapshots}

    A materialised fixpoint can be exported in a binary encoding and
    later re-imported against a freshly compiled database — the
    compile-once/query-many path {!Gdp_core.Query} and the [gdprs
    compile] subcommand build on (see {!Snapshot} for the on-disk
    container). Only data persists: per-relation facts in insertion
    order with their ranks, the asserted base, and every cumulative
    counter. Join plans, stratification and all closures are rebuilt
    from the database at import time. No index is: a spatial index is
    built by the first rule join that probes it (an {!apply}), a hash
    index by the first rule join or the second {!probe} that needs it,
    each over the facts stored then. *)

type snapshot_state = { data : string; pos : int; len : int }
(** The exported state of one fixpoint: bytes [\[pos, pos + len)] of
    [data] hold its encoding, a table of the distinct terms (each node
    once, children before parents) that the relations refer to by
    index. The encoding is plain bytes with no
    OCaml value layout in it, so another build or process can read it,
    and a view into a larger string (a whole snapshot file) decodes in
    place. *)

val export : fixpoint -> snapshot_state
(** Encode the fixpoint's current facts, their ranks renumbered densely
    in the same order, the asserted base and the cumulative counters.
    The result is deterministic — the same store
    always encodes to the same bytes, so exporting an import of an
    export reproduces it — and later {!apply} calls do not alter it.
    Symbols and nodes are numbered in the order a walk over the
    relations (in {!Datalog.Rel.compare} order, each in insertion order,
    each fact in post order) first meets them, so the encoding does not
    depend on the node bank's own ids. *)

val snapshot_facts : snapshot_state -> int
(** Number of stored facts the snapshot carries (the saved fixpoint's
    [bu_facts]), read from the encoding's header. Raises
    {!Wire.Corrupt} when the header is unreadable. *)

val import :
  ?spatial:spatial ->
  ?refine:refine ->
  ?tracer:Gdp_obs.Tracer.t ->
  Database.t ->
  snapshot_state ->
  fixpoint
(** Rebuild a live fixpoint from [db] and a snapshot {e without
    re-deriving anything}: the database is classified, stratified and
    planned exactly as a default {!run} would, then
    the encoding is decoded in place — each node record is interned once
    into a bank sized for it, the relations take the mapped fact ids as
    their columns, and the saved ranks, counters, per-stratum
    statistics and maintenance counters are restored. No fact is
    rebuilt as a term or hashed as a tree, so loading is linear in the
    file even when its DAG unfolds to an exponential tree. No index is
    built, spatial or hash: the first probe that needs one builds it
    (a spatial build keeps its ["bu.spatial.build"] span). When the
    tracer is live the usual final counter gauges are emitted, plus a
    ["snap.import"] span holding a ["snap.nodes"] span (the symbols and
    node records) and a ["snap.relations"] span (the relations, their
    ranks and base facts). The result holds the
    facts, ranks and counters {!export} captured and evaluates {!apply}
    and {!proof} along the production plans, so it answers exactly like
    the fixpoint of a default {!run} did. Callers must pass a database
    compiled from the same program the snapshot was saved from —
    [Gdp_core] enforces this with a content hash. Every
    id, count and tag is bounds-checked: a malformed encoding, a node
    record that repeats an earlier one, a stratification-shape
    mismatch, a fact filed under the wrong relation, ranks that are not each of [0 .. facts - 1] once and
    increasing within each relation, or a counter that disagrees with
    the loaded store raises
    {!Wire.Corrupt} (which {!Snapshot.Corrupt} re-exports). Raises
    {!Unsupported} when [db] leaves the evaluable fragment. *)
