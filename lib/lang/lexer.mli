(** Lexer for the GDP requirements language. [%] does {e not} start a
    comment here (it is the accuracy operator); comments are [//] to end
    of line and [/* ... */] (nesting).

    One pass, dispatching on each token's first byte; the parser pulls
    tokens on demand from a {!stream}, so no token list is built. *)

type token =
  | Ident of string  (** lowercase-initial identifier *)
  | Var of string  (** uppercase/underscore-initial identifier *)
  | Int of int
  | Float of float
  | Str of string
  | Punct of string
      (** one of ( ) [ ] { } , . ; : ' @ & | and the operators
          => <- >= =< == \== \= =:= =\= > < = + - * / % *)
  | Raw of string  (** brace-delimited raw block, braces stripped *)
  | Eof

type t = { token : token; line : int; col : int }
(** A token and the line and column (both from 1) of its first byte. *)

exception Error of string
(** Message includes line:col. *)

val operators : string list
(** The multi-character operators (and the one-character ones they
    extend), longest first: the lexer takes the longest that matches. *)

type stream
(** A cursor over one source string. *)

val create : ?raw_after:string list -> string -> stream
(** [raw_after] (default none): whenever an [Ident k] with [k] in the
    list is followed, before the next ["."], by a ["{"], the braces'
    content is captured verbatim as a single [Raw] token (respecting
    nested braces and quoted atoms). Used for [metamodel name { ... }]
    blocks whose interior is engine-clause syntax. *)

val next : stream -> t
(** The next token; [Eof] at the end, and again on every later call.
    Raises {!Error} on a malformed token: an unexpected character, an
    unterminated string, comment or raw block, or an integer literal
    outside the range of [int]. *)

val tokens : ?raw_after:string list -> string -> t list
(** The whole stream of {!create}, up to and including [Eof]. *)
