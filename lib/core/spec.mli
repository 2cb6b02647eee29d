(** A GDP requirements specification: the paper's full modelling
    vocabulary assembled into one value.

    A specification declares the universe (objects, predicates, semantic
    domains, logical spaces, regions, the coordinate system, the clock),
    groups facts / virtual-fact definitions / constraints into {e models}
    (§III-D), and packages rules of reasoning into {e meta-models} (§IV-C).
    Selecting a {e world view} (a set of models, §III-E) and a
    {e meta-view} (a set of meta-models, §IV-D) is done at compilation
    time; see {!Compile}. Specifications are mutable builders — the
    functions below add declarations in place and raise
    [Invalid_argument] on duplicates or references to undeclared names. *)

open Gdp_logic

type signature = {
  pred_name : string;
  value_domains : string list;
      (** semantic domain of each value position, in order *)
  object_arity : int;
}

type rule = {
  rule_head : Gfact.t;
  rule_accuracy : Term.t option;
      (** [Some a] makes this an accuracy definition [%a head ⇐ body]
          (§VII-B); the term is typically a variable bound by the body or
          a float constant *)
  rule_body : Formula.t;
  rule_name : string;  (** diagnostic label *)
}

type model_def = {
  model_name : string;
  mutable facts : Gfact.t list;
      (** ground basic facts, newest first (the compiler restores
          assertion order) *)
  mutable acc_statements : (Gfact.t * float) list;
      (** accuracy statements [%a q(x)], newest first — separate from
          basic facts, as §VII-B requires *)
  mutable rules : rule list;  (** virtual fact definitions, newest first *)
  mutable constraints : rule list;
      (** heads use the ERROR predicate; newest first *)
}

type meta_model = {
  meta_name : string;
  meta_doc : string;
  meta_clauses : Database.clause list;
  needs_loop_check : bool;
      (** true when the rule set can recurse through itself (e.g. the
          area-uniform up+down inheritance pair) and queries must run with
          the ancestor loop check on *)
}

type update = [ `Assert of Gfact.t | `Retract of Gfact.t ]
(** One post-compilation change to a model's asserted base — the unit of
    the specification's update log (see {!log_update}). *)

(** Every declaration list below is kept newest first, so a declaration
    costs O(1); readers that care about declaration order reverse it.
    Mutate the lists only through the functions of this module: the
    duplicate checks rely on it. *)
type t = {
  mutable objects : string list;  (** newest first *)
  object_index : (string, unit) Hashtbl.t;
      (** the names in [objects], for the O(1) duplicate check of
          {!declare_object} *)
  mutable signatures : signature list;  (** newest first *)
  domains : Gdp_domain.Semantic_domain.Registry.t;
  mutable spaces : Gdp_space.Resolution.t list;  (** newest first *)
  mutable tspaces : Gdp_temporal.Resolution1d.t list;
      (** named logical-time resolutions (§VI-A), newest first *)
  mutable regions : (string * Gdp_space.Region.t) list;  (** newest first *)
  mutable coord : Gdp_space.Coord.t;
  clock : Gdp_temporal.Clock.t;
  mutable fuzzy_family : Gdp_fuzzy.Algebra.family;
  mutable models : model_def list;
      (** newest first: the default model [w] is last; {!model_names}
          gives declaration order *)
  mutable meta_models : meta_model list;  (** newest first *)
  mutable extra_builtins : ((string * int) * Database.builtin) list;
      (** application-specific computed predicates (e.g. the paper's depth
          interpolation function f, §VII-B), registered into every
          compiled database; newest first *)
  mutable jobs : int;
      (** ignored: evaluation is sequential and nothing in the library
          or the CLI reads this field. It remains only because the
          end-to-end benchmark's ledger still assigns it, and goes with
          the next change to that benchmark. *)
  mutable updates : update list;
      (** the update log, newest first — read it through {!update_log} *)
  mutable snapshot_path : string option;
      (** ignored: nothing in the library or the CLI reads this field;
          {!Query} takes snapshot paths explicitly. It remains only
          because the end-to-end benchmark's ledger still assigns it,
          and goes with the next change to that benchmark. *)
}

val create : ?coord:Gdp_space.Coord.t -> ?now:float -> unit -> t
(** Fresh specification with builtin domains, the default model [w]
    declared, Cartesian coordinates and the clock at [now] (default 0). *)

(** {1 Universe declarations} *)

val declare_object : t -> string -> unit
(** Declare one object designator (§III-A); raises on duplicates. *)

val declare_objects : t -> string list -> unit
(** {!declare_object} over a list, in order. *)

val declare_predicate : t -> ?value_domains:string list -> ?object_arity:int -> string -> unit
(** Raises on duplicate name or unknown domain name. *)

val declare_domain : t -> Gdp_domain.Semantic_domain.t -> unit
(** Register a semantic domain (§III-B); raises on duplicate names. *)

val declare_space : t -> Gdp_space.Resolution.t -> unit
(** The resolution's name must be non-empty and unique. *)

val declare_tspace : t -> Gdp_temporal.Resolution1d.t -> unit
(** Named temporal resolution; name must be non-empty and unique. *)

val find_tspace : t -> string -> Gdp_temporal.Resolution1d.t option
(** Look up a declared temporal resolution by name. *)

val declare_region : t -> string -> Gdp_space.Region.t -> unit
(** Name a region of absolute space (§V-A); raises on duplicates. *)

(** {1 Models} *)

val declare_model : t -> string -> unit
(** Declare an empty model (§III-D); raises on duplicates. *)

val model : t -> string -> model_def
(** Raises [Not_found] for undeclared models. *)

val add_fact : t -> ?model:string -> Gfact.t -> unit
(** Asserts a basic fact (default model [w]). Raises [Invalid_argument] if
    the fact is not ground, carries an explicit conflicting model
    qualifier, or uses an undeclared predicate (when signatures are
    declared). *)

val add_acc_statement : t -> ?model:string -> Gfact.t -> float -> unit
(** Accuracy statement; the pattern must be ground. *)

val add_rule :
  t ->
  ?model:string ->
  ?name:string ->
  ?accuracy:Term.t ->
  head:Gfact.t ->
  Formula.t ->
  unit
(** Adds a virtual-fact definition after safety-checking it
    ({!Formula.check_safety}); raises [Invalid_argument] with the safety
    message on rejection. With [?accuracy] the rule defines an uncertainty
    level (§VII-B) rather than the fact itself. *)

val add_constraint :
  t -> ?model:string -> ?name:string -> error:string -> args:Term.t list -> Formula.t -> unit
(** Adds [(∀Xi) F ⇒ ERROR(error, args)] (§III-C). *)

val declare_builtin : t -> string -> arity:int -> Database.builtin -> unit
(** Raises [Invalid_argument] on duplicates. *)

(** {1 Meta-models} *)

val add_meta_model : t -> meta_model -> unit
(** Register a packaged rule set (§IV-C) for meta-view selection;
    raises on duplicate names. *)

val find_meta_model : t -> string -> meta_model option
(** Look up a registered meta-model by name. *)

val signature_of : t -> string -> signature option
(** The declared signature of a predicate, if any. *)

val find_space : t -> string -> Gdp_space.Resolution.t option
(** Look up a declared logical space by name. *)

val find_region : t -> string -> Gdp_space.Region.t option
(** Look up a declared region by name. *)

val model_names : t -> string list
(** Names of all declared models, in declaration order. *)

val default_world_view : t -> string list
(** All declared models — the maximal world view. *)

(** {1 Update log}

    {!Query.update} records every base change it applies here, so a
    later fresh {!Compile.compile} of the same specification replays the
    log and agrees with the incrementally maintained database. The log
    deliberately does not rewrite {!model_def.facts}: the declared base
    and the applied updates stay separately inspectable. *)

val log_update : t -> update -> unit
(** Append one applied change to the log. *)

val update_log : t -> update list
(** Chronological (oldest first). *)
