(** Goal-directed bottom-up evaluation via magic-set rewriting (the
    classic Bancilhon/Beeri/Maier/Ullman transformation, adapted to the
    GDP engine's refined relations and stratified negation).

    Given a query goal, {!rewrite} produces a new database in which
    every rule relevant to the goal is guarded by a [magic$...] predicate
    recording which calls can actually reach it, and a seed fact planting
    the goal's bound arguments. Evaluating the rewritten program with
    {!Bottom_up.run} [~seed] then derives only the portion of the model
    the goal can observe — SLDNF's goal relevance with the bottom-up
    engine's termination, indexing and telemetry. The rewrite reads the
    program through {!Datalog}, as the evaluator does: the same
    fragment, the same rejection reasons and the same join order, which
    serves as the sideways-information-passing order.

    Soundness under stratified negation: a predicate that is (transitively)
    needed under negation cannot be magic-restricted — an absent fact must
    mean "false", not "not yet asked for". The rewrite therefore computes
    the set of predicates reachable from any negated literal of a relevant
    rule, closes it under dependencies, and keeps their rules {e unguarded}
    (full evaluation), recording how many strata of the original program
    this fallback covers. Rules unreachable from the goal are dropped
    entirely. *)

(** Summary of one rewrite, for stats and tests. *)
type info = {
  adorned : (string * string) list;
      (** (predicate, adornment) pairs processed, sorted; adornments are
          strings of ['b']/['f'] per argument position, e.g. ["bf"]. *)
  magic_rules : int;  (** magic-predicate rules generated *)
  guarded_rules : int;  (** adorned rule copies guarded by a magic literal *)
  copied_rules : int;
      (** rules copied unguarded: the negation-soundness fallback *)
  dropped_rules : int;  (** rules unreachable from the goal, dropped *)
  seeds : Term.t list;
      (** ground magic facts to pass to {!Bottom_up.run} as [~seed] *)
  fallback_preds : string list;
      (** predicates forced to full evaluation for negation soundness *)
  fallback_strata : int;
      (** distinct strata of the original program fully evaluated *)
  full_fallback : bool;
      (** the whole query fell back to full (but still goal-projected)
          evaluation: the goal predicate itself is needed under negation,
          or the goal's predicate position is unbound *)
}

val magic_name : string -> sub:string option -> adornment:string -> string
(** The functor name of the magic predicate for a (possibly refined)
    predicate and adornment — deterministic, used by the tests to pin
    rewrite output. *)

val rewrite :
  ?refine:Bottom_up.refine ->
  ?spatial:Bottom_up.spatial ->
  ?tracer:Gdp_obs.Tracer.t ->
  goal:Term.t ->
  Database.t ->
  Database.t * info
(** Rewrite [db] for goal-directed evaluation of [goal] (an atom whose
    ground arguments are the bound positions). [refine] and [spatial]
    must be what will be passed to {!Bottom_up.run} (defaults: no
    refinement, no spatial hooks): whitelisted spatial builtins pass
    through the rewrite as inert body literals — they bind sideways
    information (their output variables extend each adornment's bound
    set) but generate no magic rules. Clauses are classified, checked
    and join-ordered by {!Datalog}, exactly as the evaluator does, so
    library clauses ({!Prelude.predicates}) are invisible and a clause
    outside the Datalog fragment raises {!Bottom_up.Unsupported} with
    the reason {!Bottom_up.classify} gives. Unlike [classify], the
    rewrite does not stratify: a negation cycle the goal cannot reach is
    dropped with the rest of the irrelevant rules. The [tracer] records
    a ["magic.rewrite"] span and [bu.magic.*] counters (adorned
    predicates, magic/guarded/copied/dropped rule counts, seeds,
    fallback strata, full-fallback flag). *)

val strip_proof : Explain.proof -> Explain.proof
(** Drop every [magic$…] premise from a derivation tree, recursively:
    proofs reconstructed from a magic-rewritten fixpoint
    ({!Bottom_up.proof}) then read in the original program's vocabulary —
    the guard literals are evaluation artefacts, not evidence. *)
