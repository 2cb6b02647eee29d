(** Arithmetic evaluation of ground terms, in the style of Prolog [is/2]. *)

type number = I of int | F of float

exception Error of string
(** Raised on unbound variables, unknown functions, wrong argument counts,
    division by zero, and type errors inside an arithmetic expression. *)

val eval : Subst.t -> Term.t -> number
(** Evaluate an expression under a substitution. Supported: integer and
    float literals; [+ - * /] (with int/float promotion; [/] on two
    integers is integer division when exact, float otherwise), [//] integer
    division, [mod], [abs], [min], [max], [-] unary, [sqrt], [sin], [cos],
    [tan], [atan2], [exp], [log], [**], [float], [truncate], [round],
    [ceiling], [floor], [pi], [sign]. *)

val to_term : number -> Term.t
val compare_num : number -> number -> int
(** Numeric comparison with int/float promotion. *)

val as_int : number -> int
(** Raises {!Error} if the number is a non-integral float. *)
