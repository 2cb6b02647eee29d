(** Semantic domains (§III-B): "a set of values and operations over them".

    Values qualify properties of objects but are never themselves objects:
    the value 50 of the domain [temperature] may appear in
    [average_temperature(50)(saint_louis)] but denotes no geographic
    entity. Domains carry a characteristic function (used to enforce
    many-sorted logic, §III-C) and named operations that return Boolean or
    term results; per the paper, an operation returning "false" is
    interpreted as "not provable" when used as a test. *)

open Gdp_logic

type operation = Term.t list -> Term.t option
(** Total OCaml implementation of a domain operation: [None] encodes
    failure/not-provable; a Boolean operation returns [Some (Atom "true")]
    or [None]. *)

(** Syntactic shape of a domain, kept for serialisation (the
    requirements-language printer); [None] for domains built from custom
    characteristic functions. *)
type shape =
  | Enum of string list
  | Int_range of int * int
  | Real_range of float * float
  | Number_shape
  | Text_shape
  | Any_shape

type t = private {
  name : string;
  contains : Term.t -> bool;  (** characteristic function *)
  enumerate : Term.t list option;  (** all values, for finite domains *)
  operations : (string * operation) list;
  shape : shape option;
}

val make :
  ?enumerate:Term.t list ->
  ?operations:(string * operation) list ->
  name:string ->
  contains:(Term.t -> bool) ->
  unit ->
  t

val enumeration : name:string -> string list -> t
(** Finite domain of atoms, e.g. vegetation = {pine, oak, grass}. *)

val int_range : name:string -> lo:int -> hi:int -> t
(** Integers in [lo, hi], enumerable. *)

val real_range : name:string -> lo:float -> hi:float -> t
(** Numbers (ints or floats) within [lo, hi]; not enumerable. *)

val number : name:string -> t
(** Any int or float. *)

val text : name:string -> t
(** Any string. *)

val any : name:string -> t
(** Every ground term — the unconstrained domain. *)

val contains : t -> Term.t -> bool

val apply_operation : t -> string -> Term.t list -> Term.t option
(** [None] when the operation is unknown or fails. *)

val with_operation : t -> string -> operation -> t
val pp : Format.formatter -> t -> unit

(** {1 Registry} *)

module Registry : sig
  type domain = t
  type t

  val create : unit -> t
  val add : t -> domain -> unit
  (** Raises [Invalid_argument] on duplicate names. *)

  val find : t -> string -> domain option
  val names : t -> string list
  (** Sorted. *)

  val builtin : unit -> t
  (** A registry preloaded with [number], [text], [boolean] (true/false)
      and [any]. *)
end
