(** Subterm paths: the one key scheme of the engine's two term stores,
    the bottom-up fact relations ([Bottom_up]) and the top-down clause
    store ({!Database}). A path names a subterm by argument positions
    from the root: [[3; 0]] is the first element of the list at argument
    3, [[3; 1]] that list's tail. A store indexes its terms on the
    subterms at the paths a lookup has ground (DESIGN.md §6). *)

module Tbl : Hashtbl.S with type key = Term.t
(** Hash tables over {!Term.hash}/{!Term.equal}. *)

val subterm_at : int list -> Term.t -> Term.t option
(** The subterm at a path. [None] when the term lacks the path: a
    non-variable on the way has no argument there, so the term cannot
    unify with one that has a subterm at that path. A path that runs
    into a variable stops there and yields that variable. *)

val key_at : int list list -> Term.t -> Term.t option
(** [key_at paths t] packs the subterms of [t] at [paths] into one
    ["$key"] compound, in path order; [None] when [t] lacks a path. *)

val ground_paths : fine:bool -> Term.t -> int list list
(** Paths to the ground subterms of a partially bound atom that a lookup
    can key on, in term order. [~fine:false] gives the ground top-level
    arguments. [~fine:true] also walks down into partially ground
    compound arguments and gives every maximal ground subterm: for
    [p(k, cons(X, cons(a, nil)))] that is [[0]; [1; 1]]. *)
