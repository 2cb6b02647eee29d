(** Clause store of the engine: definite clauses grouped by predicate
    (name/arity) with a composite argument index (see {!set_index_args}),
    plus a registry of built-in predicates implemented in OCaml. *)

type clause = { head : Term.t; body : Term.t list }
(** [head :- body1, ..., bodyn]. A fact is a clause with an empty body. *)

type t

(** The interface handed to a built-in predicate when it runs. [prove]
    solves an arbitrary goal in the current search (respecting depth
    limits); [depth] is the remaining depth budget. *)
type ctx = { db : t; prove : Subst.t -> Term.t -> Subst.t Seq.t; depth : int }

type builtin = ctx -> Subst.t -> Term.t list -> Subst.t Seq.t
(** A built-in receives the already-walked arguments of its goal and yields
    the stream of extended substitutions. *)

val create : unit -> t
val copy : t -> t
(** Independent snapshot; later assertions on either side are not shared. *)

val assertz : t -> clause -> unit
(** Append a clause at the end of its predicate (Prolog [assertz]).
    Raises [Invalid_argument] if the head is not an atom or compound, or if
    the predicate name is registered as a built-in. *)

val asserta : t -> clause -> unit
(** Prepend a clause (Prolog [asserta]). Same restrictions as {!assertz}. *)

val retract : t -> clause -> bool
(** Remove the first clause structurally equal (up to variable renaming) to
    the given one; [false] if absent. *)

val retract_all : t -> string * int -> unit
(** Drop every clause of a predicate. *)

val fact : t -> Term.t -> unit
(** [fact db h] is [assertz db { head = h; body = [] }]. *)

val retract_fact : t -> Term.t -> bool
(** [retract db { head; body = [] }]: remove the first stored unit clause
    whose head is a variant of [head]. The database-side half of an
    incremental base update (see [Bottom_up.retract_fact]). *)

val has_fact : t -> Term.t -> bool
(** Whether a unit clause with a head variant of the given (normally
    ground) term is stored. Lets update paths keep the clause store
    duplicate-free so assert/retract stay symmetric. *)

val set_index_args : t -> string * int -> int list -> unit
(** [set_index_args db (name, arity) positions] selects the argument
    positions (0-based) forming the predicate's composite clause-index
    key; existing clauses are re-keyed. The default is [[0]] (classic
    first-argument indexing). A component taken from a list-valued
    argument discriminates by the list's {e first element} — the GDP
    compiler indexes [holds/6] and [acc/7] on the predicate-name argument
    and the first object designator (positions [[1; 3]], DESIGN.md §4).
    Raises [Invalid_argument] on an empty list or a position outside the
    arity. *)

val set_index_arg : t -> string * int -> int -> unit
(** [set_index_arg db fa pos] is [set_index_args db fa [pos]]. *)

val clauses : t -> Term.t -> clause list
(** [clauses db goal] returns the candidate clauses for [goal]: the
    bucket of the goal's first index component when that is bound
    (otherwise every clause), less the clauses whose key clashes with the
    goal's on any bound component of {!set_index_args}. The goal must
    have a functor. Clauses come back in assertion order and must be
    freshly renamed (see {!rename_clause}) before resolution. *)

val all_clauses : t -> (string * int) -> clause list
(** Every clause of a predicate, unfiltered, in assertion order. *)

val predicates : t -> (string * int) list
(** All predicates that currently have clauses, sorted. *)

val register_builtin : t -> string * int -> builtin -> unit
(** Raises [Invalid_argument] if the predicate already has clauses. *)

val find_builtin : t -> string * int -> builtin option
val rename_clause : clause -> clause
(** Fresh variables throughout the clause, consistently. *)

val size : t -> int
(** Total number of stored clauses. *)

val pp : Format.formatter -> t -> unit
