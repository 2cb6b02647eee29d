open Gdp_logic

type severity = Error | Warning | Info

type finding = {
  severity : severity;
  code : string;
  message : string;
  context : string;
}

module Ss = Set.Make (String)

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

(* ------------------------------------------------------------------ *)
(* collecting the specification's use sites                            *)

type usage = {
  mutable objects_used : Ss.t;
  mutable preds_used : Ss.t;  (** any use: fact, head or body *)
  mutable preds_defined : Ss.t;  (** facts and rule heads *)
  mutable preds_in_bodies : (string * string) list;  (** pred, context *)
  mutable spaces_used : (string * string) list;
  mutable regions_used : (string * string) list;
}

let fresh_usage () =
  {
    objects_used = Ss.empty;
    preds_used = Ss.empty;
    preds_defined = Ss.empty;
    preds_in_bodies = [];
    spaces_used = [];
    regions_used = [];
  }

let record_objects u (p : Gfact.t) =
  List.iter
    (function
      | Term.Atom o -> u.objects_used <- Ss.add o u.objects_used
      | _ -> ())
    p.Gfact.objects

let pred_name (p : Gfact.t) =
  match p.Gfact.pred with Term.Atom n -> Some n | _ -> None

let space_of_qualifier (p : Gfact.t) =
  match p.Gfact.space with
  | Gfact.S_uniform (Term.Atom r, _)
  | Gfact.S_sampled (Term.Atom r, _)
  | Gfact.S_averaged (Term.Atom r, _) ->
      Some r
  | _ -> None

let record_pattern u ~context ~defines (p : Gfact.t) =
  record_objects u p;
  (match pred_name p with
  | Some n ->
      u.preds_used <- Ss.add n u.preds_used;
      if defines then u.preds_defined <- Ss.add n u.preds_defined
      else u.preds_in_bodies <- (n, context) :: u.preds_in_bodies
  | None -> ());
  match space_of_qualifier p with
  | Some r -> u.spaces_used <- (r, context) :: u.spaces_used
  | None -> ()

(* builtins whose first argument is a logical-space name *)
let space_keyed_builtins =
  [ "res_apply"; "res_same_cell"; "res_subcells"; "res_canon"; "region_reps" ]

let region_keyed_builtins = [ ("region_mem", 0); ("region_reps", 1) ]

let record_test u ~context (t : Term.t) =
  match t with
  | Term.App (f, args) ->
      if List.mem f space_keyed_builtins then begin
        match args with
        | Term.Atom r :: _ -> u.spaces_used <- (r, context) :: u.spaces_used
        | _ -> ()
      end;
      List.iter
        (fun (name, pos) ->
          if String.equal f name then
            match List.nth_opt args pos with
            | Some (Term.Atom region) ->
                u.regions_used <- (region, context) :: u.regions_used
            | _ -> ())
        region_keyed_builtins
  | _ -> ()

let rec record_formula u ~context = function
  | Formula.Atom p -> record_pattern u ~context ~defines:false p
  | Formula.Acc (p, _) -> record_pattern u ~context ~defines:false p
  | Formula.Test t -> record_test u ~context t
  | Formula.And (a, b) | Formula.Or (a, b) | Formula.Forall (a, b) ->
      record_formula u ~context a;
      record_formula u ~context b
  | Formula.Not a -> record_formula u ~context a

let collect (spec : Spec.t) =
  let u = fresh_usage () in
  List.iter
    (fun (m : Spec.model_def) ->
      let ctx kind name =
        if String.equal name "" then
          Printf.sprintf "%s in model %s" kind m.Spec.model_name
        else Printf.sprintf "%s %s (model %s)" kind name m.Spec.model_name
      in
      List.iter
        (fun f -> record_pattern u ~context:(ctx "fact" "") ~defines:true f)
        m.Spec.facts;
      List.iter
        (fun (f, _) -> record_pattern u ~context:(ctx "acc" "") ~defines:false f)
        m.Spec.acc_statements;
      List.iter
        (fun (r : Spec.rule) ->
          let context = ctx "rule" r.Spec.rule_name in
          record_pattern u ~context ~defines:(r.Spec.rule_accuracy = None)
            r.Spec.rule_head;
          record_formula u ~context r.Spec.rule_body)
        (List.rev m.Spec.rules);
      List.iter
        (fun (r : Spec.rule) ->
          let context = ctx "constraint" r.Spec.rule_name in
          record_formula u ~context r.Spec.rule_body)
        (List.rev m.Spec.constraints))
    (List.rev spec.Spec.models);
  u

(* ------------------------------------------------------------------ *)

let lint (spec : Spec.t) =
  let u = collect spec in
  let findings = ref [] in
  let add severity code context fmt =
    Format.kasprintf
      (fun message -> findings := { severity; code; message; context } :: !findings)
      fmt
  in

  let declared_objects = Ss.of_list spec.Spec.objects in
  (* undeclared / unused objects *)
  if not (Ss.is_empty declared_objects) then
    Ss.iter
      (fun o ->
        if not (Ss.mem o declared_objects) then
          add Warning "undeclared-object" ""
            "object '%s' is used but never declared" o)
      u.objects_used;
  Ss.iter
    (fun o ->
      if not (Ss.mem o u.objects_used) then
        add Info "unused-object" "" "object '%s' is declared but never used" o)
    declared_objects;

  (* undeclared predicates (only meaningful when signatures exist) *)
  let signed =
    Ss.of_list (List.map (fun s -> s.Spec.pred_name) spec.Spec.signatures)
  in
  if not (Ss.is_empty signed) then
    Ss.iter
      (fun p ->
        if (not (Ss.mem p signed)) && not (String.equal p Names.error_pred) then
          add Info "undeclared-predicate" ""
            "predicate '%s' is used without a signature (typo?)" p)
      u.preds_used;

  (* unknown spaces and regions *)
  let declared_spaces =
    Ss.of_list
      (List.map (fun (r : Gdp_space.Resolution.t) -> r.Gdp_space.Resolution.name)
         spec.Spec.spaces)
  in
  List.iter
    (fun (r, context) ->
      if not (Ss.mem r declared_spaces) then
        add Error "unknown-space" context "logical space '%s' is not declared" r)
    (List.sort_uniq compare u.spaces_used);
  let declared_regions = Ss.of_list (List.map fst spec.Spec.regions) in
  List.iter
    (fun (r, context) ->
      if not (Ss.mem r declared_regions) then
        add Error "unknown-region" context "region '%s' is not declared" r)
    (List.sort_uniq compare u.regions_used);

  (* undefined predicates in bodies: no facts, no defining rule anywhere *)
  let builtinish = Ss.of_list [ Names.error_pred ] in
  List.iter
    (fun (p, context) ->
      if (not (Ss.mem p u.preds_defined)) && not (Ss.mem p builtinish) then
        add Warning "undefined-predicate" context
          "predicate '%s' has no facts and no defining rule (a meta-model may \
           still realise it)"
          p)
    (List.sort_uniq compare u.preds_in_bodies);

  (* unused domains *)
  let used_domains =
    List.concat_map (fun s -> s.Spec.value_domains) spec.Spec.signatures
    |> Ss.of_list
  in
  let builtin_domains = Ss.of_list [ "number"; "text"; "boolean"; "any" ] in
  List.iter
    (fun name ->
      if (not (Ss.mem name used_domains)) && not (Ss.mem name builtin_domains) then
        add Info "unused-domain" ""
          "domain '%s' appears in no predicate signature" name)
    (Gdp_domain.Semantic_domain.Registry.names spec.Spec.domains);

  (* empty models *)
  List.iter
    (fun (m : Spec.model_def) ->
      if
        (not (String.equal m.Spec.model_name Names.default_model))
        && m.Spec.facts = [] && m.Spec.acc_statements = [] && m.Spec.rules = []
        && m.Spec.constraints = []
      then
        add Info "empty-model" m.Spec.model_name
          "model '%s' is declared but carries no facts, rules or constraints"
          m.Spec.model_name)
    (List.rev spec.Spec.models);

  (* accuracy statements without a plain fact *)
  let plain_facts = Path_key.Tbl.create 16 in
  List.iter
    (fun (m : Spec.model_def) ->
      List.iter
        (fun f ->
          Path_key.Tbl.replace plain_facts
            (Gfact.to_holds ~default_model:m.Spec.model_name f)
            ())
        m.Spec.facts)
    spec.Spec.models;
  List.iter
    (fun (m : Spec.model_def) ->
      List.iter
        (fun (f, _) ->
          let key = Gfact.to_holds ~default_model:m.Spec.model_name f in
          if not (Path_key.Tbl.mem plain_facts key) then
            add Info "accuracy-without-fact" m.Spec.model_name
              "accuracy statement for %s has no plain counterpart fact (fine \
               if only threshold views consume it)"
              (Format.asprintf "%a" Gfact.pp f))
        m.Spec.acc_statements)
    (List.rev spec.Spec.models);

  (* dynamic constraint sweep: when the default world view compiles into
     the bottom-up Datalog fragment, materialise it and report every
     derived ERROR fact — a whole-base check no static inspection can do.
     Specifications outside the fragment (forall, disjunction, computed
     predicates) are skipped silently; the sweep is best-effort and never
     crashes the linter. *)
  (if List.exists (fun (m : Spec.model_def) -> m.Spec.constraints <> []) spec.Spec.models
   then
     try
       let q = Query.of_compiled ~mode:Query.Materialized (Compile.compile spec) in
       match Query.materializable q with
       | Error _ -> ()
       | Ok () ->
           List.iter
             (fun v ->
               add Warning "constraint-violation" v.Query.v_model
                 "the materialised world view derives %s"
                 (Format.asprintf "%a" Query.pp_violation v))
             (Query.violations q)
     with Invalid_argument _ | Failure _ | Bottom_up.Unsupported _ -> ());

  List.stable_sort
    (fun a b ->
      match compare (severity_rank a.severity) (severity_rank b.severity) with
      | 0 -> compare (a.code, a.message) (b.code, b.message)
      | c -> c)
    !findings

let has_errors = List.exists (fun f -> f.severity = Error)

let pp_severity ppf = function
  | Error -> Format.pp_print_string ppf "error"
  | Warning -> Format.pp_print_string ppf "warning"
  | Info -> Format.pp_print_string ppf "info"

let pp_finding ppf f =
  Format.fprintf ppf "%a [%s]%s %s" pp_severity f.severity f.code
    (if String.equal f.context "" then "" else " (" ^ f.context ^ ")")
    f.message
