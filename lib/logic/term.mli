(** First-order terms for the GDP logic engine.

    Terms are the universal data representation of the engine: constants,
    numbers, strings, logic variables, and compound applications. The GDP
    formalism (facts, qualifiers, positions, intervals, accuracies) is
    reified into this term language before inference. *)

(** A logic variable. Two variables are the same variable iff their [id]s
    are equal; [name] is kept only for printing and for recovering the
    bindings of a query's original variables. *)
type var = private { name : string; id : int }

type t =
  | Var of var
  | Atom of string  (** symbolic constant, e.g. [saint_louis] *)
  | Int of int
  | Float of float
  | Str of string
  | App of string * t list  (** compound term, e.g. [pos(3.0, 4.0)] *)

(** {1 Construction} *)

val var : string -> t
(** [var name] is a fresh variable (globally unique id) printed as [name]. *)

val var_with_id : string -> int -> var
(** [var_with_id name id] rebuilds a variable with a known id. Intended for
    substitutions and renaming machinery, not for user code. *)

val atom : string -> t
val int : int -> t
val float : float -> t
val str : string -> t

val app : string -> t list -> t
(** [app f args] is [Atom f] when [args] is empty, [App (f, args)]
    otherwise, so nullary compounds and atoms are identified. *)

val list : t list -> t
(** [list ts] builds the engine's list representation, a right fold of
    ["cons"/2] cells ending in the atom ["nil"]. *)

val fresh_id : unit -> int
(** A globally unique variable id (atomic counter, safe across domains). *)

(** {1 Inspection} *)

val is_ground : t -> bool
(** [is_ground t] is [true] iff [t] contains no variable. *)

val vars : t -> var list
(** All variables of [t], in first-occurrence order, without duplicates. *)

val functor_of : t -> (string * int) option
(** [functor_of t] is [Some (name, arity)] for atoms and compounds,
    [None] for variables, numbers and strings. *)

val as_list : t -> t list option
(** Inverse of {!list}: decode a cons/nil chain, [None] if improper. *)

val equal : t -> t -> bool
(** Structural equality. Distinct variables are never equal; floats compare
    by IEEE equality (as in Prolog's [==]). *)

val variant : t -> t -> bool
(** Equality up to a consistent (bijective) renaming of variables — the
    relation the solver's ancestor loop check needs, since each clause
    expansion freshens variable ids. *)

val compare : t -> t -> int
(** A total *standard order of terms*: [Var < Float < Int < Atom < Str <
    App], variables by id, compounds by arity, then name, then arguments.
    Physically equal terms short-circuit to [0]. *)

val hash : t -> int
(** Structural hash, consistent with {!equal} and {!compare}:
    [compare a b = 0] implies [hash a = hash b]. Unlike [Hashtbl.hash]
    there is no depth cutoff, so deep ground facts spread over buckets
    instead of colliding; variables hash by [id] only, matching {!equal}.
    Non-negative. *)

val hcons : t -> t
(** [hcons t] is the canonical, maximally shared representative of [t]:
    [equal t (hcons t)] always, and [hcons a == hcons b] whenever
    [equal a b] (for variables, per shared [var] record). Canonical terms
    make the physical-equality fast paths of {!equal}/{!compare} hit on
    every shared subterm, so set membership and tuple dedup in the
    bottom-up engine are cheap even for deep terms. Representatives are
    held weakly: the GC reclaims what no live index still references.
    The intern table is global and {b not} domain-safe: only one domain
    may call [hcons]. *)

val rename : (int -> var option) -> (var -> t) -> t -> t
(** [rename lookup fresh t] replaces every variable [v] of [t] by
    [fresh v], memoised through [lookup] (by id). Used for clause
    instantiation; see {!Database}. *)

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
(** Prolog-ish syntax: [f(a, X_3, [1, 2])]. Variables print as
    [Name_id] so distinct variables with equal names stay apart. *)

val to_string : t -> string
