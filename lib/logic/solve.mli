(** SLDNF resolution: depth-first proof search over a {!Database.t} with
    negation as failure, in the style of the Prolog inference mechanism the
    paper targets.

    Control constructs are interpreted by the solver itself:
    [true], [fail]/[false], [','/2] conjunction, [';'/2] disjunction,
    ['->'/2] inside [';'/2] (if-then-else, committed choice on the
    condition), [not/1] and ['\\+'/1] (negation as failure), [call/1].
    Everything else is looked up first among built-ins (see {!Builtins})
    and then among database clauses. *)

type event =
  | Call of int * Term.t  (** call depth, goal — entering a goal *)
  | Exit of int * Term.t  (** a solution was produced for the goal *)
  | Redo of int * Term.t
      (** backtracking re-entered the goal's answer stream for the next
          solution *)
  | Fail of int * Term.t  (** the goal's solution stream is exhausted *)

(** The four ports of the classic Prolog box model, per user predicate.
    The integer carried by each event is the call depth (0 at the top
    level). An answer stream abandoned by committed choice (['->'/2],
    [not/1], or a caller that stops consuming) never reaches its Fail
    port, exactly as a cut discards choice points in Prolog. *)

type port_counts = {
  mutable calls : int;
  mutable exits : int;
  mutable redos : int;
  mutable fails : int;
}

type stats = {
  per_pred : (string * int, port_counts) Hashtbl.t;
      (** keyed by (name, arity) *)
  mutable unifications : int;
      (** head-unification attempts (clause resolutions tried) *)
  mutable loop_prunes : int;
      (** goals failed by the ancestor loop check *)
  mutable deepest_call : int;  (** maximum call depth reached *)
}

val create_stats : unit -> stats

val stats_ports : stats -> ((string * int) * port_counts) list
(** Per-predicate port counters sorted by (name, arity). *)

val total_calls : stats -> int
(** Sum of the per-predicate call counters — equals the number of
    ["solve"]-category tracer spans when a tracer is attached. *)

type options = {
  max_depth : int;
      (** resolution-step budget; each user-clause expansion costs 1 *)
  occurs_check : bool;
  loop_check : bool;
      (** fail a goal that is identical up to variable renaming (under the
          current substitution) to one of its ancestors — a pragmatic guard
          against left-recursive meta-rule loops. Sound for failure
          detection on ground goals, but INCOMPLETE in general: a
          left-recursive predicate queried with free variables may lose
          answers that need deeper recursion, because the recursive subgoal
          is a variant of its ancestor. The GDP meta-models only need it on
          ground(ish) spatial goals, where the pruned branch is exactly the
          non-productive infinite one. *)
  on_depth : [ `Fail | `Raise ];
      (** what to do when the budget runs out: treat the branch as failed
          (Prolog-like incompleteness, silent) or raise {!Depth_exhausted}
          so the caller can distinguish "unprovable" from "gave up" *)
  trace : (event -> unit) option;
  stats : stats option;
      (** when set, port/unification/loop-prune counters are accumulated
          into the record as the search runs *)
  tracer : Gdp_obs.Tracer.t;
      (** when enabled, every user-predicate call opens a ["solve"]
          category span named [pred/arity], closed at its Fail port (or by
          {!Gdp_obs.Tracer.finish} for abandoned streams) *)
}

exception Depth_exhausted of { depth : int; goal : Term.t }
(** Raised under [on_depth = `Raise] when the resolution budget runs out;
    carries the configured budget and the goal (under the substitution at
    the time) whose expansion exhausted it. *)

val default_options : options
(** [max_depth = 100_000], no occurs check, loop check off, [`Raise],
    no trace, no stats, disabled tracer. *)

val solve : ?options:options -> Database.t -> Term.t list -> Subst.t Seq.t
(** Lazy stream of answer substitutions for the conjunction of goals. *)

(** The derivation behind an answer, re-exported as {!Explain.proof}.
    Negative subproofs record the failed goal, not a refutation tree
    (negation as failure has none). *)
type proof =
  | Fact of Term.t  (** matched a unit clause *)
  | Rule of { goal : Term.t; premises : proof list }
      (** matched a clause with a body, or proved both parts of a
          [','/2] or ['->'/2] goal *)
  | Builtin of Term.t  (** [true] or a built-in predicate *)
  | Naf of Term.t  (** [\+ G] succeeded because [G] has no proof *)
  | Branch of { goal : Term.t; taken : proof }
      (** a disjunction or if-then-else, with the successful branch *)

val prove :
  ?options:options -> Database.t -> Term.t list -> (Subst.t * proof list) Seq.t
(** {!solve} with each answer paired with one proof per goal. It is the
    same search, not a copy of it: the same answers in the same order,
    and the same ports, counters and spans under [trace], [stats] and
    [tracer]. *)

val succeeds : ?options:options -> Database.t -> Term.t list -> bool
val first : ?options:options -> Database.t -> Term.t list -> Subst.t option

val count : ?options:options -> ?limit:int -> Database.t -> Term.t list -> int
(** Number of solutions, stopping at [limit] if given. *)

val all :
  ?options:options -> ?limit:int -> Database.t -> Term.t list -> Subst.t list
