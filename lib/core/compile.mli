(** Compilation of a specification, under a chosen world view (§III-E) and
    meta-view (§IV-D), into an engine database.

    The world view decides which models' facts, rules and constraints are
    loaded: "any fact that is true only with respect to models not present
    in WV ... is assumed to be not provable". The meta-view decides which
    packaged rule sets (meta-models) are loaded. Compilation is cheap and
    deterministic; comparing alternate views means compiling twice. *)

open Gdp_logic

type t = private {
  spec : Spec.t;
  db : Database.t;
  world_view : string list;
  meta_view : string list;
  needs_loop_check : bool;
      (** true when an active meta-model requires the ancestor loop check *)
  clause_digest : string Lazy.t;
      (** MD5 (hex) of the canonically rendered compiled clause sequence
          as it stood {e before} the update-log replay and the meta
          clauses — the program part of {!content_hash}. The clause lists
          are captured at compile time; the digest is computed on first
          use. *)
}

val compile :
  ?world_view:string list ->
  ?meta_view:string list ->
  ?tracer:Gdp_obs.Tracer.t ->
  Spec.t ->
  t
(** Defaults: all declared models, empty meta-view, disabled tracer
    (when enabled the whole compilation is recorded as one
    ["compile"]-category span). Raises
    [Invalid_argument] on names that are not declared. The database
    contains, in order: generator facts ([model/1], [pred/3], [obj/1],
    [space/1], [tspace/1], [region/1]), each model's basic facts
    ([holds/6]), accuracy statements ([acc/7]), compiled virtual-fact
    definitions and constraints, per-rule accuracy-propagation clauses
    (only when the [fuzzy_propagation] meta-model is active), and the
    meta-view's clauses. *)

val holds_update : Spec.update -> Gdp_logic.Bottom_up.update
(** A base update in the engine's terms: its fact as the [holds/6]
    term, under the default model when the fact names none. *)

val rule_clause : model:string -> Spec.rule -> Database.clause
(** The engine clause of one virtual-fact definition (exposed for tests
    and for the documentation generator). *)

val propagation_clause : model:string -> Spec.rule -> Database.clause option
(** The §VII-F mechanical companion clause
    [acc(...) :- body, ac_eval(reified_body, A)] — [None] for rules that
    are themselves accuracy definitions. *)

val datalog_refine : Gdp_logic.Bottom_up.refine
(** Relation refinement for compiled databases: splits [holds/6], [acc/7]
    and [acc_max/7] by the user-predicate constant at argument 1, so
    {!Gdp_logic.Bottom_up} stratifies a compiled specification predicate
    by predicate. Pass to [Bottom_up.classify] / [Bottom_up.run] whenever
    the database came from {!compile}. *)

val spatial_hints : Spec.t -> Gdp_logic.Bottom_up.spatial
(** Spatial evaluation hooks for the bottom-up engine, specialised to
    [spec]: whitelists [pt_dist/3], [region_mem/2], [region_reps/3] and
    [res_subcells/4] as native body literals (solved by the registered
    top-down builtins of {!Gdp_builtins}), exposes region bounding boxes and the
    point reader (bare [pos/2-3] or one [at(...)] constructor deep) the
    index probes need, and declares ±eps boxes sound only for
    planar coordinate systems ([Cartesian]/[Utm] — geographic haversine
    balls are not Chebyshev-bounded). Pass to {!Gdp_logic.Bottom_up.run} as [~spatial] whenever
    the database came from {!compile}. *)

val content_hash : t -> string
(** The snapshot key of this compilation: a digest over the exact
    compiled clause sequence (rule order included — the derivation a
    proof shows depends on it), both views, the coordinate system, region
    geometries, logical space and time resolutions and the fuzzy
    algebra family.
    Deliberately independent of the specification's update log
    (updates persist inside the snapshot and are replayed on load — see
    [Query.of_snapshot]). Two processes
    compiling the same specification under the same views compute the
    same hash; any divergence marks a snapshot {e stale}. *)
