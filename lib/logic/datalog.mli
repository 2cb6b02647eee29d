(** The stratified Datalog fragment, as one decision shared by the
    bottom-up evaluator ({!Bottom_up}) and the magic-set rewrite
    ({!Magic}): which clauses are in it and why the others are not, how
    a clause body is represented, how predicates stratify, and the
    greedy sideways-information-passing order body literals join in. *)

module Iset : Set.S with type elt = int

exception Unsupported of string
(** Raised when a database leaves the fragment, with a reason naming the
    first offending clause. *)

val unsupported : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Unsupported} with a formatted reason. *)

type refine = string * int -> int option
(** Relation refinement: [refine (name, arity) = Some pos] splits the
    predicate [name/arity] into one relation per constant found at
    argument position [pos] (0-based). The GDP compiler reifies every
    fact into [holds/6] with the user predicate at position 1; without
    refinement the whole base would collapse into a single recursive
    relation and stratified negation could never apply. Atoms of a
    refined predicate must carry a constant at [pos]. The default refines
    nothing. *)

(** A relation: a predicate, split by the constant at its refining
    argument when it has one. *)
module Rel : sig
  type t = { name : string; arity : int; sub : string option }

  val compare : t -> t -> int

  val to_string : t -> string
  (** [name/arity], or [name/arity[sub]] for a refined relation. *)
end

module Rel_map : Map.S with type key = Rel.t

(** A query box a spatially annotated join probes with: the bounding box
    of a named region ([region_mem] guards) or the ±eps box around a
    to-be-bound anchor point ([pt_dist] guards with a bound distance). *)
type sprobe =
  | Sp_within of Gdp_space.Spatial_index.box
  | Sp_near of Term.t * float

(** One classified body literal. *)
type lit =
  | Pos of int * Rel.t * Term.t * (int * sprobe) option
      (** join position, relation, atom, and the optional spatial probe
          [(apos, probe)] a join plan attaches: pre-filter the relation
          through the spatial index over argument [apos] *)
  | Neg of Rel.t * Term.t * string
      (** relation, negated atom, and the negation functor the source
          used ([not] or [\+]) *)
  | Cmp of string * Term.t * Term.t  (** arithmetic comparison guard *)
  | Eq of bool * Term.t * Term.t  (** [==/2] (true) or [\==/2] (false) *)
  | Is of Term.t * Term.t  (** [is/2]: result, expression *)
  | Ext of int list * Term.t
      (** whitelisted spatial builtin: input positions, goal *)
  | Never  (** [fail]/[false]: the rule can never fire *)

type rule = {
  id : int;  (** stable rule identifier: position among the parsed rules *)
  head : Term.t;
  head_rel : Rel.t;
  body : lit list;  (** textual order, [true] goals dropped *)
  pos_rels : Rel.t array;  (** relation at each positive join position *)
}

val goal_of : lit -> Term.t
(** The body goal a literal was classified from ([fail] for {!Never}). *)

val library : (string * int) list
(** The library predicates ({!Prelude.predicates}): their clauses are
    invisible to classification, and body references to them leave the
    fragment. *)

val resolve_rel :
  refine ->
  Term.t ->
  (Rel.t, [ `Not_atom | `Unrefined of string * int * int ]) result
(** The relation of an atom, or why it has none: it is not a predicate
    atom, or the refining argument [(name, arity, pos)] is not a
    constant. *)

val rel_of : refine:refine -> what:string -> Term.t -> Rel.t
(** {!resolve_rel}, raising {!Unsupported} with [what] as context. *)

val vset : Term.t -> Iset.t
(** The ids of a term's variables. *)

val extend_bound : Iset.t -> lit -> Iset.t
(** The bound variables after a literal ran: positive literals and
    spatial builtins bind their atom's variables, [is/2] its result;
    guards and negation bind nothing. *)

val parse :
  Database.t ->
  refine:refine ->
  ext:(string * int -> int list option) ->
  (Rel.t * Term.t) list * rule list
(** Classify every non-library clause, in database order: the ground
    facts with their relations, and the rules (numbered from 0), each
    checked for safety — every guard, negated literal and spatial-builtin
    input bound by a preceding literal in textual order, every head
    variable bound by the body. [ext] whitelists spatial builtins as
    {!Ext} literals with their input positions. Does not stratify.
    Raises {!Unsupported} on the first clause outside the fragment:
    control constructs ([;], [->], [call], [=], [\=]) or builtins in a
    body, negation of a non-atomic goal or of a builtin, a body
    reference to a library predicate, an unsafe literal, a non-ground
    fact, or an unrefinable atom. *)

val compute_strata : rule list -> Rel.t list -> (Rel.t -> int) * int
(** [compute_strata rules fact_rels] numbers the strata of the predicate
    dependency graph: the stratum of each relation (longest path, a
    negative edge counts one) and the stratum count. Raises
    {!Unsupported} on negation inside a recursive component. *)

val order_body :
  ?avoid:Rel.t -> bound:Iset.t -> delta_at:int option -> lit list -> lit list
(** The greedy join order of a safe rule body, starting from the
    variables [bound] already binds: the positive literal at join
    position [delta_at] first, if given; then, repeatedly, every guard,
    negation and spatial builtin whose inputs are bound, and the
    positive literal with the most bound arguments (ties: a literal
    over a relation other than [avoid], then textual order). A body
    containing {!Never} plans as [[Never]]. *)
