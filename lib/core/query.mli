(** Querying a compiled specification: provability, answer enumeration,
    accuracy retrieval and consistency checking.

    Answers follow the open world assumption (§III-A): {!holds} returning
    [false] means {e not provable} ("undefined"), never "false" — falsity
    is expressible only through complementary predicates or an explicit
    CWA meta-model. *)

open Gdp_logic

type t
(** A compiled specification under a fixed world view and meta-view,
    ready to answer questions. Mutable: {!update} repairs it in place,
    and lazily computed fixpoints are cached inside. *)

type engine_mode =
  | Top_down  (** SLDNF resolution per query ({!Gdp_logic.Solve}) *)
  | Materialized
      (** answer from the stratified bottom-up fixpoint
          ({!Gdp_logic.Bottom_up}), computed once per query object and
          cached — the right choice for whole-base questions
          ({!violations}, broad {!solutions}) over specifications inside
          the Datalog fragment *)
  | Magic
      (** goal-directed bottom-up: the database is rewritten per goal with
          {!Gdp_logic.Magic.rewrite} and only the portion of the model the
          goal can observe is derived — the right choice for point queries
          over large materializable bases. The last (goal, fixpoint) pair
          is cached and dropped on {!update}. Same fragment restriction as
          {!Materialized}. *)

val create :
  ?world_view:string list ->
  ?meta_view:string list ->
  ?max_depth:int ->
  ?on_depth:[ `Fail | `Raise ] ->
  ?mode:engine_mode ->
  ?tracer:Gdp_obs.Tracer.t ->
  Spec.t ->
  t
(** Compile and wrap. The engine's ancestor loop check is enabled
    automatically when an active meta-model requires it. Defaults:
    [max_depth = 100_000], [on_depth = `Raise] (a blown budget surfaces as
    {!Gdp_logic.Solve.Depth_exhausted} rather than silent failure);
    [mode = Top_down]; [tracer = Gdp_obs.Tracer.disabled]. An
    enabled tracer also switches on {!Gdp_logic.Solve.stats} collection
    (see {!solve_stats}) and spans around compilation, each query
    operation and the engines' internals. *)

val of_compiled :
  ?max_depth:int ->
  ?on_depth:[ `Fail | `Raise ] ->
  ?mode:engine_mode ->
  ?tracer:Gdp_obs.Tracer.t ->
  Compile.t ->
  t
(** Wrap an existing compilation — {!create} without the compile step;
    same defaults. *)

val mode : t -> engine_mode
(** The answering strategy this query was built with. *)

val with_mode : t -> engine_mode -> t
(** Same compiled database, different answering strategy. The fixpoint
    and magic cache cells are shared, not copied: materialising through
    either copy — and later {!update}s through either copy — are seen by
    both. *)

val materializable : t -> (unit, string) result
(** Whether the compiled database lies in the stratified Datalog fragment
    the bottom-up engine evaluates; [Error reason] names the first
    offending clause. Specifications using [forall], disjunction or
    computed (builtin) predicates in rule bodies are not materializable. *)

val materialization : t -> Gdp_logic.Bottom_up.fixpoint
(** The materialised consequences of the database (computed on first use,
    then cached). Raises {!Gdp_logic.Bottom_up.Unsupported} when the
    database is outside the fragment — check {!materializable} first for
    a [result]. *)

val spec : t -> Spec.t
(** The specification this query was compiled from. *)

val db : t -> Database.t
(** The compiled engine database (the reified [holds/6] vocabulary). *)

val world_view : t -> string list
(** The models selected at compilation (§III-E), sorted. *)

val meta_view : t -> string list
(** The meta-models selected at compilation (§IV-D), sorted. *)

val holds : t -> Gfact.t -> bool
(** Is the (possibly non-ground) pattern provable? Unqualified patterns
    refer to the default model [w]. In {!Materialized} mode the answer
    comes from the fixpoint: a ground pattern is a set-membership test,
    an open one a scan of its predicate's relation. *)

val solutions : ?limit:int -> t -> Gfact.t -> Gfact.t list
(** All provable instantiations of the pattern, deduplicated, in
    first-derivation order. Answers that are not fully ground (e.g.
    through unbound qualifier slots) are returned as patterns with
    variables. [limit] bounds the underlying derivations, so with many
    duplicate derivations fewer distinct answers may come back. In
    {!Materialized} mode answers come from the fixpoint in the standard
    order of terms and are always ground. *)

val accuracy : t -> Gfact.t -> float option
(** The unified accuracy [%[A]] of the pattern (§VII-D) under whichever
    unified-operator meta-model is active; [None] when no accuracy is
    derivable. When several instantiations match, the first one's
    accuracy is returned. *)

val accuracies : ?limit:int -> t -> Gfact.t -> (Gfact.t * float) list
(** Instantiations together with their unified accuracies. *)

type violation = {
  v_model : string;
  v_tag : string;  (** the ERROR type-of-violation *)
  v_args : Term.t list;
  v_objects : Term.t list;
}

val violations : ?limit:int -> t -> violation list
(** All provable [ERROR] facts across the world view (§III-C): the
    world view "is called consistent" iff this is empty. Violations are
    deduplicated. In {!Materialized} mode this is a scan of the
    fixpoint's [ERROR] relation — the natural whole-base sweep.

    {!accuracy} always runs top-down regardless of mode: accuracy
    maximisation needs the SLDNF machinery. {!explain} answers from the
    fixpoint's recorded lineage in {!Materialized} and {!Magic} modes
    (see {!explain_proof}). {!ask} and
    {!ask_all} run top-down in {!Top_down} mode; in {!Materialized} and
    {!Magic} modes a single atomic goal is answered from the fixpoint
    (the goal-directed one in {!Magic} mode) and a conjunction raises
    {!Gdp_logic.Bottom_up.Unsupported}. *)

val consistent : t -> bool
(** [violations q = []] — the §III-E consistency verdict. *)

val violation_proofs :
  ?limit:int -> t -> (violation * Gdp_logic.Explain.proof) list
(** {!violations} paired with a derivation tree per [ERROR] fact — the
    "why is this world view inconsistent?" evidence (§III-C). In
    {!Materialized} and {!Magic} modes the trees are reconstructed from
    the fixpoint's lineage (standard order of terms, [limit] applied
    after sorting); in {!Top_down} mode each distinct violation carries
    its first SLDNF proof, in first-derivation order. *)

val update : t -> Spec.update list -> t
(** Apply a batch of ground basic-fact assertions / retractions to the
    live query, in order, and return the (same, mutated) query for
    chaining. Three stores are kept coherent: the compiled database (one
    duplicate-free unit clause per asserted fact, so top-down answers
    change immediately), the cached bottom-up fixpoint if
    {!materialization} has run (repaired incrementally —
    {!Gdp_logic.Bottom_up.apply}, never recomputed from scratch; a
    fixpoint materialised later starts from the updated database), and
    the specification's update log ({!Spec.log_update}, so a fresh
    {!create} from the same spec agrees). Because the cache cell is
    shared, every {!with_mode} copy of this query sees the update.
    Raises [Invalid_argument] on non-ground facts or non-constant
    predicates — validated before anything is touched. Retracting an
    absent fact is a no-op; asserting a fact rules already derive marks
    it basic (it then survives losing its derivations). When the repair
    raises {!Gdp_logic.Bottom_up.Bound_exceeded}, the half-repaired
    fixpoint is dropped and the database and the log are put back as
    they were before the batch, before the exception propagates: the
    next materialised answer re-runs from the base without the batch. *)

val explain : t -> Gfact.t -> string option
(** A human-readable derivation of the first proof of the pattern (the
    requirements-review evidence): an indented tree of the rules, facts,
    builtins and negation-as-failure steps used, with reified [holds]
    terms rendered back in the paper's fact notation. [None] when the
    pattern is not provable. *)

val explain_proof : t -> Gfact.t -> Gdp_logic.Explain.proof option
(** The raw proof tree, for programmatic inspection. In {!Top_down}
    mode the tree is the first SLDNF proof ({!Gdp_logic.Explain.first}).
    In {!Materialized} and {!Magic} modes the tree is reconstructed from
    the answering fixpoint's lineage ({!Gdp_logic.Bottom_up.proof})
    without invoking SLDNF: derived
    tuples expand through their first rank-bounded derivation, base facts bottom
    out as [Fact] leaves, negated and guard steps appear as [Naf] /
    [Builtin] leaves, and magic-mode trees are stripped of the
    rewrite's [magic$…] guard premises
    ({!Gdp_logic.Magic.strip_proof}). A non-ground pattern explains its
    first stored instance in the standard order of terms — which may
    differ from the instance top-down search finds first. *)

val pp_reified_term : Format.formatter -> Term.t -> unit
(** Render a reified [holds/6] / [acc/7] term back in fact notation
    (other terms print as themselves) — pass as [pp_goal] to
    {!Gdp_logic.Explain.pp} or {!Gdp_logic.Explain.to_dot}. *)

val ask : t -> string -> bool
(** Escape hatch: run a raw engine goal (Reader syntax) against the
    compiled database — the vocabulary of DESIGN.md §4 ([holds/6],
    [acc/7], builtins) is available. *)

val ask_all :
  ?limit:int -> t -> string -> (string * Term.t) list list
(** Every solution of a raw engine goal as (variable name, binding)
    rows, in derivation order. *)

(** {1 Persistent snapshots}

    Compile once, query many: {!save_snapshot} writes the materialised
    fixpoint (facts and their ranks, stratification shape, incremental
    state, counters) plus the specification's update log
    to a [.gdpx] file keyed by {!Compile.content_hash};
    {!of_snapshot} loads one back — skipping rule evaluation entirely —
    after proving the key still matches this compilation. A stale or
    corrupt file is reported, never silently reused. The CLI surface is
    [gdprs compile -o FILE.gdpx] / [--snapshot FILE.gdpx]. *)

type snapshot_error =
  | Snapshot_stale of string
      (** the file is well-formed but belongs to a different
          specification, engine configuration or update history — safe
          (and expected) to rebuild and overwrite *)
  | Snapshot_corrupt of string
      (** the file is truncated, tampered with or unreadable — the CLI
          treats this as a hard error (exit 2) rather than rebuilding,
          so disk trouble is never papered over *)

val snapshot_error_message : snapshot_error -> string
(** The human-readable reason, without the stale/corrupt prefix. *)

val save_snapshot : t -> string -> int * int
(** [save_snapshot q path] materialises (if not already cached), exports
    the fixpoint with {!Gdp_logic.Bottom_up.export} and writes it to
    [path], returning [(bytes_written, facts)]. The snapshot embeds the
    update log, so saving after {!update} batches round-trips them.
    Raises {!Gdp_logic.Bottom_up.Unsupported} outside the Datalog
    fragment and [Sys_error] on unwritable paths. *)

val of_snapshot : t -> string -> (int * int, snapshot_error) result
(** [of_snapshot q path] loads the snapshot at [path] into this query's
    fixpoint cache, returning [(bytes_read, facts)] on success. Steps:
    verify the file ({!Gdp_logic.Snapshot.load}), compare its key
    against {!Compile.content_hash} of this compilation, replay the
    update-log suffix this session has not seen into the compiled
    database (so top-down answers agree too), and rebuild the in-memory
    fixpoint with {!Gdp_logic.Bottom_up.import} — building each
    distinct term once and rebuilding the spatial indexes, but firing no
    rules. A payload that does not decode is [Snapshot_corrupt]. After
    [Ok], {!holds} /
    {!solutions} / {!violations} / {!explain} answer from the loaded
    model in {!Materialized} {e and} {!Magic} modes (the full model is
    already in memory, so goal-directed rewriting is pointless), and
    {!update} maintains it incrementally as usual. *)

val snapshot_loaded : t -> (int * int) option
(** [(bytes, facts)] of the snapshot this query answered from, if any. *)

val tracer : t -> Gdp_obs.Tracer.t
(** The telemetry sink this query reports into (possibly disabled). Call
    {!Gdp_obs.Tracer.finish} before exporting — an abandoned SLDNF answer
    stream can leave spans open. *)

val solve_stats : t -> Gdp_logic.Solve.stats option
(** Four-port / unification / loop-prune counters accumulated by the
    top-down engine across every operation run through this query —
    [Some] exactly when the query's tracer is enabled. *)

val pp_stats : Format.formatter -> t -> unit
(** Per-predicate port-counter table plus, once {!materialization} has
    run, the fixpoint's {!Gdp_logic.Bottom_up.pp_stats}; after a magic
    evaluation, the rewrite summary (adornments, rule counts, seeds, the
    negation-fallback counter) followed by the goal-directed fixpoint's
    stats. Deterministic for a deterministic query sequence (no timings)
    — the CLI [--stats] flag prints exactly this. *)

val pp_violation : Format.formatter -> violation -> unit
(** One-line rendering: [model: tag(args) [objects]]. *)
