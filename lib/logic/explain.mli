(** Proof trees: the derivation behind an answer — the evidence a
    requirements analyst reviews when validating a specification ("why is
    this fact realised?") — with its measures and renderings.

    Top-down trees come from {!Solve.prove}, which is {!Solve}'s own
    resolution loop with each answer paired with its derivation, so a
    goal is provable here iff it is provable there and the search feeds
    the same ports, counters and spans. {!Bottom_up.proof} rebuilds the
    same type from a fixpoint's lineage. *)

type proof = Solve.proof =
  | Fact of Term.t
  | Rule of { goal : Term.t; premises : proof list }
  | Builtin of Term.t
  | Naf of Term.t
  | Branch of { goal : Term.t; taken : proof }

val prove :
  ?options:Solve.options ->
  Database.t ->
  Term.t list ->
  (Subst.t * proof list) Seq.t
(** {!Solve.prove}: one proof list (one proof per conjunct) per answer,
    lazily. *)

val first :
  ?options:Solve.options -> Database.t -> Term.t list -> (Subst.t * proof list) option

val goal_of : proof -> Term.t
val size : proof -> int
(** Number of nodes. *)

val depth : proof -> int

val pp : ?pp_goal:(Format.formatter -> Term.t -> unit) -> Format.formatter -> proof -> unit
(** Indented tree; [pp_goal] customises how goals render (the GDP layer
    passes a printer that restores the paper's fact notation). *)

val to_dot :
  ?pp_goal:(Format.formatter -> Term.t -> unit) -> proof -> string
(** GraphViz rendering of the derivation: one node per proof step, edges
    from conclusions to premises; facts are boxes, builtins are diamonds,
    negation leaves are dashed. *)

val to_json :
  ?pp_goal:(Format.formatter -> Term.t -> unit) -> proof -> string
(** JSON rendering of the same graph {!to_dot} draws: an object with
    ["root"] (node id), ["nodes"] (objects with ["id"], ["kind"] ∈
    [fact], [rule], [builtin], [naf], and ["label"]) and ["edges"]
    (["from"] conclusion to ["to"] premise). Branch nodes collapse into
    the taken alternative, as in {!to_dot}. *)
