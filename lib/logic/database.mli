(** Clause store of the engine: definite clauses grouped by predicate
    (name/arity), plus a registry of built-in predicates implemented in
    OCaml. Clause lookup is indexed on demand by the call's access
    pattern: each predicate's clauses sit in a trie over subterm paths
    ({!Path_key}) whose branches are built by the first goal that binds
    their path, and asserts and retracts keep every built branch
    current. A lookup skips the paths under a top-level argument that
    every clause of the predicate shares (DESIGN.md §6). *)

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
    the given one; [false] if absent. Only the candidates {!clauses}
    returns for its head are compared. *)

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
    duplicate-free so assert/retract stay symmetric. Like {!retract}, it
    compares only the candidates {!clauses} returns for the term. *)

val update_fact : t -> [< `Assert of Term.t | `Retract of Term.t ] -> unit
(** Apply one base-fact update and keep the unit clauses duplicate-free:
    [`Assert h] adds [h] unless {!has_fact} finds it, [`Retract h]
    removes every stored copy. One retraction then undoes one assertion,
    as in the fixpoint's set view ([Bottom_up.apply]). *)

val clauses : t -> Term.t -> clause Seq.t
(** [clauses db goal] returns the candidate clauses for [goal], in
    assertion order: every clause that can unify with it, and few that
    cannot. The goal's ground subterm paths
    ([Path_key.ground_paths]) select them: a clause is a
    candidate when its head has, at each of those paths, either the
    goal's subterm or a subterm with a variable in it, or a variable
    above the path. A goal with no ground path gets every clause. The goal must have a functor. The sequence
    reads lists captured at call time, so asserts and retracts made while
    it is consumed do not change it (Prolog's logical update view).
    Clauses must be freshly renamed (see {!rename_clause}) before
    resolution. *)

type index_counts = private {
  mutable branch_builds : int;  (** trie branches built *)
  mutable branch_entries : int;  (** clause entries those builds walked *)
  mutable shared_skips : int;
      (** lookups that dropped a path under an argument every clause of
          the predicate shares, or that such an argument answered with no
          candidates *)
}
(** The work of the clause index ({!clauses}, {!retract}, {!has_fact}),
    counted since {!create} or {!copy}. *)

val index_counts : t -> index_counts
(** The database's live counters: later lookups keep adding to them. *)

val all_clauses : t -> (string * int) -> clause list
(** Every clause of a predicate, unfiltered, in assertion order. *)

val predicates : t -> (string * int) list
(** All predicates that currently have clauses, sorted. *)

val freeze : t -> unit -> ((string * int) * clause list) list
(** [freeze db] records the clause store as it stands, in time linear in
    the number of predicates and without copying a clause. Applying the
    result lists that store later — {!predicates} order, each with its
    {!all_clauses} — whatever was asserted or retracted in between. *)

val register_builtin : t -> string * int -> builtin -> unit
(** Raises [Invalid_argument] if the predicate already has clauses. *)

val find_builtin : t -> string * int -> builtin option
val rename_clause : clause -> clause
(** Fresh variables throughout the clause, consistently. *)

val size : t -> int
(** Total number of stored clauses. *)

val pp : Format.formatter -> t -> unit
