open Ast
module T = Gdp_logic.Term
open Gdp_core

type view = { view_name : string; view_models : string list; view_metas : string list }

type result = { spec : Spec.t; views : view list; uses : string list }

exception Error of string

let error pos fmt =
  Format.kasprintf
    (fun msg ->
      raise (Error (Format.asprintf "%a: %s" Ast.pp_position pos msg)))
    fmt

(* Variables with the same name share an id within one elaboration scope
   (a fact, a rule, a constraint). *)
type scope = (string, T.var) Hashtbl.t

let fresh_scope () : scope = Hashtbl.create 8

let scope_var scope name =
  if String.equal name "_" then T.Var (T.var_with_id "_" (T.fresh_id ()))
  else
    match Hashtbl.find_opt scope name with
    | Some v -> T.Var v
    | None ->
        let v = T.var_with_id name (T.fresh_id ()) in
        Hashtbl.add scope name v;
        T.Var v

let rec expr_to_term scope = function
  | E_atom a -> T.atom a
  | E_var v -> scope_var scope v
  | E_int n -> T.int n
  | E_float f -> T.float f
  | E_str s -> T.str s
  | E_app (f, args) -> T.app f (List.map (expr_to_term scope) args)

let position_term scope = function
  | [ E_var v ] -> scope_var scope v
  | [ x; y ] -> T.app Names.pos [ expr_to_term scope x; expr_to_term scope y ]
  | [ x; y; z ] ->
      T.app Names.pos
        [ expr_to_term scope x; expr_to_term scope y; expr_to_term scope z ]
  | _ -> invalid_arg "position_term"

let spatial_to_gfact scope = function
  | Sq_none -> Gfact.S_everywhere
  | Sq_at p -> Gfact.S_at (position_term scope p)
  | Sq_uniform (r, p) -> Gfact.S_uniform (T.atom r, position_term scope p)
  | Sq_sampled (r, p) -> Gfact.S_sampled (T.atom r, position_term scope p)
  | Sq_averaged (r, p) -> Gfact.S_averaged (T.atom r, position_term scope p)

let bound_term scope ~closed = function
  | B_num f -> T.app (if closed then Names.incl else Names.excl) [ T.float f ]
  | B_now 0.0 -> T.app (if closed then Names.incl else Names.excl) [ T.atom Names.now ]
  | B_now off ->
      let sym = if off >= 0.0 then "+" else "-" in
      T.app
        (if closed then Names.incl else Names.excl)
        [ T.app sym [ T.atom Names.now; T.float (Float.abs off) ] ]
  | B_inf -> T.atom Names.inf
  | B_var v -> T.app (if closed then Names.incl else Names.excl) [ scope_var scope v ]

let interval_to_term scope iv =
  T.app Names.interval
    [
      bound_term scope ~closed:iv.lower_closed iv.lower;
      bound_term scope ~closed:iv.upper_closed iv.upper;
    ]

let temporal_to_gfact scope = function
  | Tq_none -> Gfact.T_always
  | Tq_at (E_atom "now") -> Gfact.T_at (T.atom Names.now)
  | Tq_at e -> Gfact.T_at (expr_to_term scope e)
  | Tq_uniform iv -> Gfact.T_uniform (interval_to_term scope iv)
  | Tq_sampled iv -> Gfact.T_sampled (interval_to_term scope iv)
  | Tq_averaged iv -> Gfact.T_averaged (interval_to_term scope iv)
  | Tq_resolution (kind, tspace, instant) -> (
      (* symbolic logical-time cell, resolved against the spec's declared
         temporal resolutions when the engine decodes intervals *)
      let cell = T.app "cell" [ T.atom tspace; T.float instant ] in
      match kind with
      | "u" -> Gfact.T_uniform cell
      | "s" -> Gfact.T_sampled cell
      | _ -> Gfact.T_averaged cell)
  | Tq_cyclic (period, iv) ->
      Gfact.T_var
        (T.app "cyc" [ T.float period; interval_to_term scope iv ])
  | Tq_var v -> Gfact.T_var (scope_var scope v)

let fact_to_pattern_in scope (f : fact_atom) =
  {
    Gfact.model = Option.map T.atom f.fa_model;
    pred = T.atom f.fa_pred;
    values = List.map (expr_to_term scope) f.fa_values;
    objects = List.map (expr_to_term scope) f.fa_objects;
    space = spatial_to_gfact scope f.fa_space;
    time = temporal_to_gfact scope f.fa_time;
  }

let fact_to_pattern f = fact_to_pattern_in (fresh_scope ()) f

let rec body_to_formula_in scope = function
  | B_atom f -> Formula.Atom (fact_to_pattern_in scope f)
  | B_acc (f, a) -> Formula.Acc (fact_to_pattern_in scope f, expr_to_term scope a)
  | B_test e -> Formula.Test (expr_to_term scope e)
  | B_and (a, b) -> Formula.And (body_to_formula_in scope a, body_to_formula_in scope b)
  | B_or (a, b) -> Formula.Or (body_to_formula_in scope a, body_to_formula_in scope b)
  | B_forall (g, c) ->
      Formula.Forall (body_to_formula_in scope g, body_to_formula_in scope c)
  | B_not a -> Formula.Not (body_to_formula_in scope a)

let domain_of_def name = function
  | D_enum values -> Gdp_domain.Semantic_domain.enumeration ~name values
  | D_int_range (lo, hi) -> Gdp_domain.Semantic_domain.int_range ~name ~lo ~hi
  | D_real_range (lo, hi) -> Gdp_domain.Semantic_domain.real_range ~name ~lo ~hi
  | D_number -> Gdp_domain.Semantic_domain.number ~name
  | D_text -> Gdp_domain.Semantic_domain.text ~name
  | D_any -> Gdp_domain.Semantic_domain.any ~name

let region_of_def = function
  | R_rect (x0, y0, x1, y1) ->
      Gdp_space.Region.rect ~min_x:(Float.min x0 x1) ~min_y:(Float.min y0 y1)
        ~max_x:(Float.max x0 x1) ~max_y:(Float.max y0 y1)
  | R_circle (x, y, r) ->
      Gdp_space.Region.circle ~center:(Gdp_space.Point.make x y) ~radius:r
  | R_poly pts ->
      Gdp_space.Region.polygon (List.map (fun (x, y) -> Gdp_space.Point.make x y) pts)

let coordinate_of name zone pos =
  match (name, zone) with
  | "cartesian", None -> Gdp_space.Coord.Cartesian
  | "polar", None -> Gdp_space.Coord.Polar
  | "geographic", None -> Gdp_space.Coord.Geographic
  | "utm", Some z -> Gdp_space.Coord.Utm { zone = z }
  | "utm", None -> error pos "utm requires a zone: coordinate utm(18)."
  | other, _ -> error pos "unknown coordinate system '%s'" other

type ctx = { mutable base_dir : string; visited : (string, unit) Hashtbl.t }

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec elaborate_statement ctx state stmt =
  let spec, views, uses = state in
  match stmt with
  | S_include path -> (
      let resolved =
        if Filename.is_relative path then Filename.concat ctx.base_dir path
        else path
      in
      if Hashtbl.mem ctx.visited resolved then
        raise (Error (Printf.sprintf "circular include of %s" resolved));
      Hashtbl.add ctx.visited resolved ();
      let content =
        try read_file resolved
        with Sys_error msg -> raise (Error (Printf.sprintf "include: %s" msg))
      in
      let statements =
        try Parser.program content
        with Parser.Error msg ->
          raise (Error (Printf.sprintf "in %s: %s" resolved msg))
      in
      let saved = ctx.base_dir in
      ctx.base_dir <- Filename.dirname resolved;
      let state' = List.fold_left (elaborate_statement ctx) state statements in
      ctx.base_dir <- saved;
      state')
  | S_coordinate (name, zone) ->
      spec.Spec.coord <- coordinate_of name zone { line = 0; col = 0 };
      (spec, views, uses)
  | S_clock t ->
      Gdp_temporal.Clock.set spec.Spec.clock t;
      (spec, views, uses)
  | S_fuzzy name -> (
      match Gdp_fuzzy.Algebra.family_of_string name with
      | Some family ->
          spec.Spec.fuzzy_family <- family;
          (spec, views, uses)
      | None -> raise (Error (Printf.sprintf "unknown fuzzy family '%s'" name)))
  | S_domain (name, def) ->
      Spec.declare_domain spec (domain_of_def name def);
      (spec, views, uses)
  | S_objects names ->
      List.iter
        (fun (name, pos) ->
          try Spec.declare_object spec name with Invalid_argument msg -> error pos "%s" msg)
        names;
      (spec, views, uses)
  | S_predicate (name, domains, arity) ->
      Spec.declare_predicate spec name ~value_domains:domains ~object_arity:arity;
      (spec, views, uses)
  | S_space { name; dx; dy; ox; oy } ->
      Spec.declare_space spec
        (Gdp_space.Resolution.make ~name ~origin:(Gdp_space.Point.make ox oy) ~dx ~dy ());
      (spec, views, uses)
  | S_timespace { name; step; origin } ->
      Spec.declare_tspace spec
        (Gdp_temporal.Resolution1d.make ~name ~origin ~step ());
      (spec, views, uses)
  | S_region (name, def) ->
      Spec.declare_region spec name (region_of_def def);
      (spec, views, uses)
  | S_model name ->
      Spec.declare_model spec name;
      (spec, views, uses)
  | S_fact f -> (
      let pattern = fact_to_pattern f in
      try
        Spec.add_fact spec pattern;
        (spec, views, uses)
      with Invalid_argument msg -> error f.fa_pos "%s" msg)
  | S_acc_fact (f, a) -> (
      let pattern = fact_to_pattern f in
      try
        Spec.add_acc_statement spec pattern a;
        (spec, views, uses)
      with Invalid_argument msg -> error f.fa_pos "%s" msg)
  | S_rule { r_accuracy; r_head; r_body; r_pos } -> (
      let scope = fresh_scope () in
      let head = fact_to_pattern_in scope r_head in
      let body = body_to_formula_in scope r_body in
      let accuracy = Option.map (expr_to_term scope) r_accuracy in
      let model =
        match head.Gfact.model with Some (T.Atom m) -> Some m | _ -> None
      in
      let head = { head with Gfact.model = None } in
      try
        Spec.add_rule spec ?model ~name:r_head.fa_pred ?accuracy ~head body;
        (spec, views, uses)
      with Invalid_argument msg -> error r_pos "%s" msg)
  | S_constraint { c_tag; c_args; c_body; c_model; c_pos } -> (
      let scope = fresh_scope () in
      let body = body_to_formula_in scope c_body in
      let args = List.map (expr_to_term scope) c_args in
      try
        Spec.add_constraint spec ?model:c_model ~name:c_tag ~error:c_tag ~args body;
        (spec, views, uses)
      with Invalid_argument msg -> error c_pos "%s" msg)
  | S_metamodel { mm_name; mm_loopcheck; mm_clauses } -> (
      try
        let clauses = Gdp_logic.Reader.program mm_clauses in
        Spec.add_meta_model spec
          {
            Spec.meta_name = mm_name;
            meta_doc = "user-defined meta-model";
            meta_clauses = clauses;
            needs_loop_check = mm_loopcheck;
          };
        (spec, views, uses)
      with
      | Gdp_logic.Reader.Parse_error msg ->
          raise (Error (Printf.sprintf "in metamodel %s: %s" mm_name msg))
      | Invalid_argument msg -> raise (Error msg))
  | S_use names -> (spec, views, List.rev_append names uses)
  | S_view { v_name; v_models; v_metas } ->
      ( spec,
        { view_name = v_name; view_models = v_models; view_metas = v_metas } :: views,
        uses )

let program ?spec ?(base_dir = ".") stmts =
  let spec =
    match spec with
    | Some s -> s
    | None ->
        let s = Spec.create () in
        Meta.install_standard s;
        s
  in
  let ctx = { base_dir; visited = Hashtbl.create 4 } in
  (* views and uses accumulate newest first *)
  let spec, views, uses =
    try List.fold_left (elaborate_statement ctx) (spec, [], []) stmts
    with Invalid_argument msg -> raise (Error msg)
  in
  { spec; views = List.rev views; uses = List.rev uses }

let load_string ?spec ?base_dir src =
  try program ?spec ?base_dir (Parser.program src) with
  | Parser.Error msg -> raise (Error msg)
  | Lexer.Error msg -> raise (Error msg)

let load_file ?spec path =
  load_string ?spec ~base_dir:(Filename.dirname path) (read_file path)

let query result ?view ?models ?metas ?tracer () =
  match view with
  | Some name -> (
      match
        List.find_opt (fun v -> String.equal v.view_name name) result.views
      with
      | Some v ->
          Query.create result.spec ~world_view:v.view_models
            ~meta_view:v.view_metas ?tracer
      | None -> raise (Error (Printf.sprintf "unknown view '%s'" name)))
  | None ->
      let world_view =
        match models with Some m -> m | None -> Spec.default_world_view result.spec
      in
      let meta_view = match metas with Some m -> m | None -> result.uses in
      Query.create result.spec ~world_view ~meta_view ?tracer
