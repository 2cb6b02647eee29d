(** The built-in meta-model library (§IV): packaged rules of reasoning
    about space, time and accuracy, stated as clause schemata over the
    reified representation and "activated on demand" by naming them in the
    meta-view at compile time.

    Every function returns a {!Spec.meta_model}; register the ones a
    specification wants available with {!Spec.add_meta_model} (or
    {!install_standard}), then select per compilation via
    [Compile.compile ~meta_view].

    Termination notes. The rule sets are written with guard literals
    ([ground/1], [nonvar/1]) and strict-refinement enumeration so that each
    meta-model terminates on the documented query modes. The one genuinely
    mutually-recursive pair — area-uniform downward inheritance
    ({!spatial_uniform}) together with upward acquisition
    ({!spatial_uniform_up}) — is marked [needs_loop_check]; {!Query} turns
    on the engine's ancestor check automatically when such a meta-model is
    active. *)

val contradiction : unit -> Spec.meta_model
(** §IV-B: "no fact may be both true and false" —
    [M'Q(true)(X) ∧ M'Q(false)(X) ⇒ M'ERROR(contradiction, Q, X)], with
    the two facts sharing spatial and temporal qualification. *)

val cwa : unit -> Spec.meta_model
(** §IV-A: the closed world assumption for unary, value-free predicates:
    [M'Q(X) ⇒ M'Q(true)(X)] and
    [MODEL(M) ∧ PREDICATE(Q) ∧ OBJECT(X) ∧ not M'Q(true)(X) ⇒
    M'Q(false)(X)]. Quantifies over the compiler-emitted [model/1],
    [pred/3] and [obj/1] generators. *)

val spatial_simple : unit -> Spec.meta_model
(** §V-C simple spatial operator: space-independent facts are true at
    every (ground) point. *)

val spatial_uniform : unit -> Spec.meta_model
(** §V-C area-uniform operator, derivation direction: the property is true
    at all points of the patch, and is inherited by the higher-resolution
    subareas of a low-resolution area. *)

val spatial_uniform_up : unit -> Spec.meta_model
(** §V-C area-uniform operator, acquisition direction: a low-resolution
    area acquires a property shared by all of its high-resolution
    subareas. [needs_loop_check]. *)

val spatial_sampled : unit -> Spec.meta_model
(** §V-C area-sampled operator: an area acquires a sample from any point
    or any subarea. *)

val spatial_averaged : unit -> Spec.meta_model
(** §V-C area-average operator: averages over uniform (or averaged)
    single-value facts of the subareas, requiring a value for every
    subarea ("the average may be computed if values are known for each
    subarea"). *)

val point_type : unit -> Spec.meta_model
(** §V-D's first geometric-property definition: an object is a point-type
    feature when all its position-dependent properties are realised at a
    single point. *)

val overlap : unit -> Spec.meta_model
(** §V-D: two objects overlap when position-dependent properties of both
    are realised at the same point (space-independent facts are excluded
    by construction — they carry no [at] qualifier). *)

val temporal_simple : unit -> Spec.meta_model
(** §VI: time-independent facts are true at every (ground) instant. *)

val temporal_uniform : unit -> Spec.meta_model
(** §VI-B interval-uniform operator: expansion to member instants and
    inheritance by subintervals. *)

val temporal_sampled : unit -> Spec.meta_model
(** §VI interval-sampled operator. *)

val temporal_averaged : unit -> Spec.meta_model
(** §VI interval-average operator [&a]: the mean of an object's
    single-value instant observations inside the interval (at least one
    observation required). *)

val temporal_comprehension : unit -> Spec.meta_model
(** §VI-B comprehension principle: an instant observation inside the
    interval of interest licenses interval-uniform truth. *)

val temporal_continuity : unit -> Spec.meta_model
(** §VI-B continuity assumption for single-value facts: a value holds
    uniformly over [T1, T2) when observed at T1, re-observed at T2 and
    never contradicted strictly in between. *)

val temporal_persistence : unit -> Spec.meta_model
(** §I's introductory meta-fact: "a fact known to be true at t0 is still
    true at some later time t1 if no conflicting fact is known to be true
    between t0 and t1" — bounded above by the clock's present. *)

val temporal_cyclic : unit -> Spec.meta_model
(** The cyclic extension of the interval-uniform operator that §VI-B
    mentions without describing: a fact qualified [cyc(Period, Iv)]
    (surface syntax [&c[period] interval]) is realised at every instant
    whose phase [T mod Period] lies in the phase interval. *)

val temporal_now : unit -> Spec.meta_model
(** §VI-B: [&now Q(X) ∧ present(T) ⇒ &T Q(X)]. *)

val fuzzy_unified_max : unit -> Spec.meta_model
(** §VII-D default unified fuzzy operator: [%[A]] is the {e highest}
    accuracy assigned to a fact. *)

val fuzzy_unified_min : unit -> Spec.meta_model
val fuzzy_unified_avg : unit -> Spec.meta_model
(** Alternative unified operators the paper suggests "may be needed for
    specific types of facts". *)

val fuzzy_threshold : model:string -> threshold:float -> Spec.meta_model
(** §VII-C: facts whose unified accuracy strictly exceeds the threshold
    are realised (crisply) in the target model. *)

val fuzzy_propagation_name : string
(** Activating a meta-model with this name makes the compiler emit, for
    every virtual-fact definition, the mechanical accuracy-propagation
    companion clause of §VII-F ([(∀Xi) F(Xi) ∧ A = AC(F(Xi)) ⇒ %A q(Xk)]).
    The meta-model itself carries no clauses. *)

val fuzzy_propagation : unit -> Spec.meta_model

val sorts : Spec.t -> Spec.meta_model
(** §III-C many-sorted logic: one constraint clause per declared value
    position, flagging [ERROR(bad_sort, Q, V)] when a value falls outside
    its declared semantic domain. Generated from the spec's signatures —
    the compiler regenerates it at compile time, so registration order
    does not matter. *)

(** {1 Abstraction-rule combinators (§V-D)}

    The four rule families for interpreting data at lower resolution.
    Each returns a meta-model specific to a predicate (and optionally a
    resolution pair), mirroring how the paper's rules name concrete
    predicates ([island], [shore-line]). Passing [None] for a resolution
    leaves it universally quantified over declared spaces. *)

val copying :
  ?name:string -> pred:string -> ?fine:string -> ?coarse:string -> unit -> Spec.meta_model
(** A sampled fact at the fine resolution is copied to the coarse cell it
    falls in. *)

val thresholding :
  ?name:string ->
  pred:string ->
  ?fine:string ->
  ?coarse:string ->
  min_cells:int ->
  unit ->
  Spec.meta_model
(** The island example: the copy happens only when the feature covers
    strictly more than [min_cells] distinct fine cells ([size(X, R2) >
    delta]). *)

val averaging :
  ?name:string -> pred:string -> ?fine:string -> ?coarse:string -> unit -> Spec.meta_model
(** Per-predicate restriction of {!spatial_averaged}. *)

val composition :
  ?name:string ->
  a:string ->
  b:string ->
  result:string ->
  ?fine:string ->
  ?coarse:string ->
  unit ->
  Spec.meta_model
(** The shore-line example: when point facts [a] and [b] (same object)
    fall in one coarse cell, derive [result] at that cell's
    representative point. *)

(** {1 Spatial-relation combinators (§V-D)}

    "Spatial relations between objects cover concepts such as relative
    position, relative orientation, relative size, adjacency (usually, at
    some given resolution), and overlap." Each combinator derives a
    binary relation between objects from their point facts. *)

val adjacency :
  ?name:string -> located:string -> resolution:string -> max_gap:float -> unit ->
  Spec.meta_model
(** [adjacent(X, Y)] when an [located] point of X and one of Y fall in
    distinct cells of the named resolution whose representative points
    are at most [max_gap] apart (typically the cell size, for 4-adjacency,
    or cell size × √2 for 8-adjacency). *)

val relative_position : ?name:string -> located:string -> unit -> Spec.meta_model
(** [north_of/south_of/east_of/west_of(X, Y)] by the direction from Y's
    point to X's point, quadrant convention counterclockwise from +x. *)

val relative_size : ?name:string -> pred:string -> resolution:string -> unit -> Spec.meta_model
(** [larger_than(X, Y)] when X's [pred] samples cover strictly more
    distinct cells of the resolution than Y's — the paper's [size]
    function applied pairwise. *)

val install_standard : Spec.t -> unit
(** Register every parameterless meta-model above (including {!sorts},
    which snapshots the spec's current signatures) under its canonical
    name. *)

val standard_names : string list
