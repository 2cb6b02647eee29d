(** Bounds-checked binary encoding primitives for snapshot payloads.

    Writers append to a [Buffer.t]; a {!reader} walks a slice of a
    string in place, without copying it. Naturals are unsigned LEB128
    varints over the 63 bits of an OCaml [int], signed integers are
    zigzag-mapped first, floats are their 8 IEEE bytes little-endian and
    strings are a natural length followed by the bytes. Every read checks
    its bounds: a truncated slice, an overlong varint, an out-of-range
    id or a count larger than the bytes left raises {!Corrupt}, never
    [Invalid_argument]. *)

exception Corrupt of string
(** Malformed encoded data; the message says what and at which byte. *)

val corrupt : ('a, unit, string, 'b) format4 -> 'a
(** [corrupt fmt ...] raises {!Corrupt} with a formatted message. *)

(** {1 Writing} *)

val add_nat : Buffer.t -> int -> unit
(** A non-negative [int] (a negative one is written as its 63-bit
    unsigned value, which {!nat} rejects). *)

val add_int : Buffer.t -> int -> unit
val add_float : Buffer.t -> float -> unit
val add_string : Buffer.t -> string -> unit

val add_term : Buffer.t -> Term.t -> unit
(** A ground term as a tree, each node a tag byte — 0 atom, 1 int,
    2 float, 3 string, 4 compound — then its name or value, and for a
    compound its arity and arguments. Raises [Invalid_argument] on a
    variable. *)

(** {1 Reading} *)

type reader

val reader : string -> pos:int -> len:int -> reader
(** A reader over bytes [\[pos, pos + len)] of the string. Raises
    {!Corrupt} when the slice lies outside it. *)

val copy : reader -> reader
(** A second reader at the same position, for reading ahead. *)

val remaining : reader -> int
val at_end : reader -> bool

val byte : reader -> int
val nat : reader -> int
val int : reader -> int
val float : reader -> float
val string : reader -> string
val term : reader -> Term.t

val skip_nats : reader -> int -> unit
(** Moves past [n] varints without decoding them, or to the end of the
    slice if it holds fewer. *)

val below : reader -> int -> string -> int
(** [below r bound what] reads a natural [n] with [0 <= n < bound];
    [what] names it in the error message. *)

val count : reader -> min_bytes:int -> string -> int
(** A declared element count, each element taking at least [min_bytes]
    bytes: a count the remaining bytes cannot hold raises {!Corrupt}, so
    a crafted payload cannot make its reader allocate more than the
    payload's own size. *)
