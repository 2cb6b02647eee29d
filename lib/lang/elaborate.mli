(** Elaboration of a parsed program into a {!Gdp_core.Spec.t}.

    Elaboration performs the checks the paper's formalism implies: facts
    must be ground, models/spaces/domains must be declared before use,
    rules must pass the {!Gdp_core.Formula.check_safety} analysis, and
    accuracy statements may not decorate basic facts directly (they
    elaborate to separate [acc] statements per §VII-B). Errors carry the
    source position. *)

type view = { view_name : string; view_models : string list; view_metas : string list }

type result = {
  spec : Gdp_core.Spec.t;
  views : view list;
  uses : string list;  (** accumulated [use ...] meta-model activations *)
}

exception Error of string

val program : ?spec:Gdp_core.Spec.t -> ?base_dir:string -> Ast.program -> result
(** Elaborate into a fresh spec (with the standard meta-models installed)
    or extend the given one. [base_dir] (default ".") resolves relative
    [include] paths; circular includes raise {!Error}. *)

val load_string : ?spec:Gdp_core.Spec.t -> ?base_dir:string -> string -> result
(** Parse and elaborate. *)

val load_file : ?spec:Gdp_core.Spec.t -> string -> result

val query :
  result ->
  ?view:string ->
  ?models:string list ->
  ?metas:string list ->
  ?tracer:Gdp_obs.Tracer.t ->
  unit ->
  Gdp_core.Query.t
(** Build a query handle: by named view, by explicit model/meta lists, or
    (default) all models with the file's [use] activations. [tracer] is
    passed to {!Gdp_core.Query.create}. *)

val fact_to_pattern : Ast.fact_atom -> Gdp_core.Gfact.t
(** Shared with the CLI's ad-hoc query mode; variables with equal names
    unify within one call. *)
