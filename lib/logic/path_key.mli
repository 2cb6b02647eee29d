(** Subterm paths: the one key scheme of the engine's two term stores,
    the bottom-up fact relations ([Bottom_up], which walks the same
    paths over its node bank) and the top-down clause store
    ({!Database}). A path names a subterm by argument positions from the
    root: [[3; 0]] is the first element of the list at argument 3,
    [[3; 1]] that list's tail. A store indexes its terms on the subterms
    at the paths a lookup has ground (DESIGN.md §6). *)

module Tbl : Hashtbl.S with type key = Term.t
(** Hash tables over {!Term.hash}/{!Term.equal}. *)

val subterm_at : int list -> Term.t -> Term.t option
(** The subterm at a path. [None] when the term lacks the path: a
    non-variable on the way has no argument there, so the term cannot
    unify with one that has a subterm at that path. A path that runs
    into a variable stops there and yields that variable. *)

val ground_paths : ?bound:(Term.var -> bool) -> Term.t -> int list list
(** Paths to the maximal ground subterms of a partially bound atom, in
    term order: the lookup keys a store can choose from. For
    [p(k, cons(X, cons(a, nil)))] that is [[0]; [1; 1]]. A variable for
    which [bound] holds (by default none) counts as ground: it will be
    by the time the lookup runs. *)

val shared : int list -> Term.t -> bool
(** Whether a ground subterm at a path is one every term of a relation
    tends to carry, and so a key that narrows nothing: a constant
    top-level argument (a [holds/6] fact's model and predicate,
    [no_space], [no_time]) or the empty list that ends a list argument. *)

val key_path : Term.t -> int list option
(** The path among {!ground_paths} a query goal's single-path probe keys
    on: the first whose subterm is not {!shared}; else the first
    top-level one; else the first. [None] when nothing is ground. For
    [holds(w, p, cons(V, nil), cons(o, nil), no_space, no_time)] that is
    [[3]], the object list; for [holds(w, reach, nil, cons(n7, cons(X,
    nil)), no_space, no_time)] it is [[3; 0]]. *)
