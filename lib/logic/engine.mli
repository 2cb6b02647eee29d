(** Convenience facade over the engine: a ready-to-use database with
    built-ins and the prelude installed, plus string-level helpers that
    combine {!Reader} and {!Solve}. *)

val create : unit -> Database.t
(** Fresh database with {!Builtins.install} and {!Prelude.install} done. *)

val consult : Database.t -> string -> unit
(** Assert the clauses of a program given in concrete syntax. *)

val named_vars : Term.t list -> Term.var list
(** The named variables of the goals (not [_]-prefixed), each once, in
    order of first occurrence — the variables an answer reports. *)

val ask : ?options:Solve.options -> Database.t -> string -> bool
(** [ask db "p(X), q(X)"] — is the query provable? *)

val ask_all :
  ?options:Solve.options ->
  ?limit:int ->
  Database.t ->
  string ->
  (string * Term.t) list list
(** All answers (at most [limit]). *)
