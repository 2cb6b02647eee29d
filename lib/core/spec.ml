open Gdp_logic

type signature = {
  pred_name : string;
  value_domains : string list;
  object_arity : int;
}

type rule = {
  rule_head : Gfact.t;
  rule_accuracy : Term.t option;
  rule_body : Formula.t;
  rule_name : string;
}

type model_def = {
  model_name : string;
  mutable facts : Gfact.t list;
  mutable acc_statements : (Gfact.t * float) list;
  mutable rules : rule list;
  mutable constraints : rule list;
}

type meta_model = {
  meta_name : string;
  meta_doc : string;
  meta_clauses : Database.clause list;
  needs_loop_check : bool;
}

type update = [ `Assert of Gfact.t | `Retract of Gfact.t ]

type t = {
  mutable objects : string list;
  object_index : (string, unit) Hashtbl.t;
  mutable signatures : signature list;
  domains : Gdp_domain.Semantic_domain.Registry.t;
  mutable spaces : Gdp_space.Resolution.t list;
  mutable tspaces : Gdp_temporal.Resolution1d.t list;
  mutable regions : (string * Gdp_space.Region.t) list;
  mutable coord : Gdp_space.Coord.t;
  clock : Gdp_temporal.Clock.t;
  mutable fuzzy_family : Gdp_fuzzy.Algebra.family;
  mutable models : model_def list;
  mutable meta_models : meta_model list;
  mutable extra_builtins : ((string * int) * Database.builtin) list;
  mutable telemetry : bool;
  mutable jobs : int; (* ignored; kept only until the benchmark stops setting it *)
  mutable spatial_indexing : bool;
      (* compile spatially guarded joins to index probes in materialised
         fixpoints; off = the scan baseline, same model *)
  mutable updates : update list; (* newest first; update_log reverses *)
  mutable snapshot_path : string option;
      (* where a persistent fixpoint snapshot for this specification
         lives (CLI --snapshot / compile -o); informational — Query
         never reads it, the CLI threads it *)
}

let create ?(coord = Gdp_space.Coord.Cartesian) ?(now = 0.0) () =
  let spec =
    {
      objects = [];
      object_index = Hashtbl.create 64;
      signatures = [];
      domains = Gdp_domain.Semantic_domain.Registry.builtin ();
      spaces = [];
      tspaces = [];
      regions = [];
      coord;
      clock = Gdp_temporal.Clock.create ~now ();
      fuzzy_family = Gdp_fuzzy.Algebra.Min_max;
      models = [];
      meta_models = [];
      extra_builtins = [];
      telemetry = false;
      jobs = 1;
      spatial_indexing = true;
      updates = [];
      snapshot_path = None;
    }
  in
  spec.models <-
    [
      {
        model_name = Names.default_model;
        facts = [];
        acc_statements = [];
        rules = [];
        constraints = [];
      };
    ];
  spec

let declare_object spec name =
  if Hashtbl.mem spec.object_index name then
    invalid_arg (Printf.sprintf "Spec: duplicate object %s" name)
  else begin
    Hashtbl.add spec.object_index name ();
    spec.objects <- name :: spec.objects
  end

let declare_objects spec names = List.iter (declare_object spec) names

let signature_of spec name =
  List.find_opt (fun s -> String.equal s.pred_name name) spec.signatures

let declare_predicate spec ?(value_domains = []) ?(object_arity = 1) name =
  if signature_of spec name <> None then
    invalid_arg (Printf.sprintf "Spec: duplicate predicate %s" name);
  List.iter
    (fun d ->
      if Gdp_domain.Semantic_domain.Registry.find spec.domains d = None then
        invalid_arg (Printf.sprintf "Spec: predicate %s uses unknown domain %s" name d))
    value_domains;
  spec.signatures <- { pred_name = name; value_domains; object_arity } :: spec.signatures

let declare_domain spec d = Gdp_domain.Semantic_domain.Registry.add spec.domains d

let find_space spec name =
  List.find_opt
    (fun (r : Gdp_space.Resolution.t) -> String.equal r.Gdp_space.Resolution.name name)
    spec.spaces

let declare_space spec r =
  let name = r.Gdp_space.Resolution.name in
  if String.equal name "" then invalid_arg "Spec: resolution must be named";
  if find_space spec name <> None then
    invalid_arg (Printf.sprintf "Spec: duplicate logical space %s" name);
  spec.spaces <- r :: spec.spaces

let find_tspace spec name =
  List.find_opt
    (fun (r : Gdp_temporal.Resolution1d.t) ->
      String.equal r.Gdp_temporal.Resolution1d.name name)
    spec.tspaces

let declare_tspace spec r =
  let name = r.Gdp_temporal.Resolution1d.name in
  if String.equal name "" then invalid_arg "Spec: temporal resolution must be named";
  if find_tspace spec name <> None then
    invalid_arg (Printf.sprintf "Spec: duplicate logical time %s" name);
  spec.tspaces <- r :: spec.tspaces

let find_region spec name = List.assoc_opt name spec.regions

let declare_region spec name region =
  if find_region spec name <> None then
    invalid_arg (Printf.sprintf "Spec: duplicate region %s" name);
  spec.regions <- (name, region) :: spec.regions

let find_model spec name =
  List.find_opt (fun m -> String.equal m.model_name name) spec.models

let declare_model spec name =
  if find_model spec name <> None then
    invalid_arg (Printf.sprintf "Spec: duplicate model %s" name);
  spec.models <-
    { model_name = name; facts = []; acc_statements = []; rules = []; constraints = [] }
    :: spec.models

let model spec name =
  match find_model spec name with Some m -> m | None -> raise Not_found

let model_names spec = List.rev_map (fun m -> m.model_name) spec.models
let default_world_view = model_names

let check_predicate_use spec (p : Gfact.t) =
  match p.Gfact.pred with
  | Term.Atom name -> (
      match signature_of spec name with
      | None -> () (* undeclared predicates are permitted: open vocabulary *)
      | Some s ->
          if List.length p.Gfact.values <> List.length s.value_domains then
            invalid_arg
              (Printf.sprintf "Spec: %s expects %d value(s), got %d" name
                 (List.length s.value_domains)
                 (List.length p.Gfact.values));
          if List.length p.Gfact.objects <> s.object_arity then
            invalid_arg
              (Printf.sprintf "Spec: %s expects %d object(s), got %d" name
                 s.object_arity
                 (List.length p.Gfact.objects)))
  | _ -> ()

let resolve_model spec ?model:m (p : Gfact.t) =
  let name =
    match (m, p.Gfact.model) with
    | Some m, Some (Term.Atom pm) when not (String.equal m pm) ->
        invalid_arg
          (Printf.sprintf "Spec: fact qualified with model %s added to model %s" pm m)
    | Some m, _ -> m
    | None, Some (Term.Atom pm) -> pm
    | None, _ -> Names.default_model
  in
  match find_model spec name with
  | Some md -> md
  | None -> invalid_arg (Printf.sprintf "Spec: undeclared model %s" name)

let add_fact spec ?model (p : Gfact.t) =
  if not (Gfact.is_ground p) then
    invalid_arg "Spec.add_fact: basic facts must be ground";
  check_predicate_use spec p;
  let md = resolve_model spec ?model p in
  (* newest first; the compiler restores assertion order *)
  md.facts <- { p with Gfact.model = None } :: md.facts

let add_acc_statement spec ?model (p : Gfact.t) a =
  if not (Gfact.is_ground p) then
    invalid_arg "Spec.add_acc_statement: accuracy statements must be ground";
  if Float.is_nan a || a < 0.0 || a > 1.0 then
    invalid_arg "Spec.add_acc_statement: accuracy outside [0, 1]";
  check_predicate_use spec p;
  let md = resolve_model spec ?model p in
  md.acc_statements <- ({ p with Gfact.model = None }, a) :: md.acc_statements

let add_rule spec ?model ?(name = "") ?accuracy ~head body =
  check_predicate_use spec head;
  let head_vars =
    match accuracy with
    | None -> Gfact.vars head
    | Some a ->
        (* the accuracy variable is bound by the body or is a constant *)
        Gfact.vars head @ Term.vars a
  in
  (match Formula.check_safety ~head_vars body with
  | Ok () -> ()
  | Error e ->
      invalid_arg
        (Printf.sprintf "Spec.add_rule %s: unsafe rule: %s (%s)" name e.message
           (String.concat ", "
              (List.map (fun (v : Term.var) -> v.Term.name) e.offending))));
  let md = resolve_model spec ?model head in
  let rule =
    {
      rule_head = { head with Gfact.model = None };
      rule_accuracy = accuracy;
      rule_body = body;
      rule_name = name;
    }
  in
  md.rules <- rule :: md.rules

let add_constraint spec ?model ?(name = "") ~error ~args body =
  let head =
    {
      Gfact.model = None;
      pred = Term.atom Names.error_pred;
      values = Term.atom error :: args;
      objects = [];
      space = Gfact.S_everywhere;
      time = Gfact.T_always;
    }
  in
  let head_vars = Gfact.vars head in
  (match Formula.check_safety ~head_vars body with
  | Ok () -> ()
  | Error e ->
      invalid_arg
        (Printf.sprintf "Spec.add_constraint %s: unsafe constraint: %s" name e.message));
  let md =
    match model with
    | Some m -> (
        match find_model spec m with
        | Some md -> md
        | None -> invalid_arg (Printf.sprintf "Spec: undeclared model %s" m))
    | None -> (
        match find_model spec Names.default_model with
        | Some md -> md
        | None -> assert false)
  in
  md.constraints <-
    { rule_head = head; rule_accuracy = None; rule_body = body; rule_name = name }
    :: md.constraints

let declare_builtin spec name ~arity fn =
  if List.mem_assoc (name, arity) spec.extra_builtins then
    invalid_arg (Printf.sprintf "Spec: duplicate builtin %s/%d" name arity);
  spec.extra_builtins <- ((name, arity), fn) :: spec.extra_builtins

let find_meta_model spec name =
  List.find_opt (fun m -> String.equal m.meta_name name) spec.meta_models

let add_meta_model spec mm =
  if find_meta_model spec mm.meta_name <> None then
    invalid_arg (Printf.sprintf "Spec: duplicate meta-model %s" mm.meta_name);
  spec.meta_models <- mm :: spec.meta_models

let log_update spec (u : update) = spec.updates <- u :: spec.updates
let update_log spec = List.rev spec.updates
