open Gdp_core
module T = Gdp_logic.Term
module Sd = Gdp_domain.Semantic_domain

(* Per-statement variable naming: every distinct variable id gets a unique
   surface name so the reparse reconstructs the same sharing. *)
type names = {
  by_id : (int, string) Hashtbl.t;
  used : (string, unit) Hashtbl.t;
}

let fresh_names () = { by_id = Hashtbl.create 8; used = Hashtbl.create 8 }

let var_name names (v : T.var) =
  match Hashtbl.find_opt names.by_id v.T.id with
  | Some n -> n
  | None ->
      let base =
        let n = v.T.name in
        if
          String.length n > 0
          && (match n.[0] with 'A' .. 'Z' -> true | '_' -> n <> "_" | _ -> false)
        then n
        else "V"
      in
      let candidate =
        if Hashtbl.mem names.used base then Printf.sprintf "%s_%d" base v.T.id
        else base
      in
      Hashtbl.add names.used candidate ();
      Hashtbl.add names.by_id v.T.id candidate;
      candidate

let rec pp_expr names ppf (t : T.t) =
  match t with
  | T.Var v -> Format.pp_print_string ppf (var_name names v)
  | T.Atom s -> Format.pp_print_string ppf s
  | T.Int n -> Format.pp_print_int ppf n
  | T.Float f -> T.pp_float ppf f
  | T.Str s -> Format.fprintf ppf "%S" s
  | T.App (("+" | "-" | "*" | "/") as op, [ a; b ]) ->
      Format.fprintf ppf "(%a %s %a)" (pp_expr names) a op (pp_expr names) b
  | T.App (f, args) ->
      Format.fprintf ppf "%s(%a)" f
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           (pp_expr names))
        args

let pp_position names ppf (t : T.t) =
  match t with
  | T.App ("pos", ([ _; _ ] | [ _; _; _ ] as coords)) ->
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           (pp_expr names))
        coords
  | other -> pp_expr names ppf other

let pp_bound names ~closed:_ ppf (t : T.t) =
  match t with
  | T.App (("incl" | "excl"), [ T.Atom "now" ]) -> Format.pp_print_string ppf "now"
  | T.App (("incl" | "excl"), [ T.App ("+", [ T.Atom "now"; d ]) ]) ->
      Format.fprintf ppf "now + %a" (pp_expr names) d
  | T.App (("incl" | "excl"), [ T.App ("-", [ T.Atom "now"; d ]) ]) ->
      Format.fprintf ppf "now - %a" (pp_expr names) d
  | T.App (("incl" | "excl"), [ x ]) -> pp_expr names ppf x
  | T.Atom "inf" -> Format.pp_print_string ppf "inf"
  | other -> pp_expr names ppf other

let bound_closed = function
  | T.App ("incl", _) -> true
  | T.App ("excl", _) -> false
  | _ -> true (* inf: bracket choice is immaterial, use the closed form *)

let pp_interval names ppf (t : T.t) =
  match t with
  | T.App ("cell", [ T.Atom r; instant ]) ->
      Format.fprintf ppf "[%s] %a" r (pp_expr names) instant
  | T.App ("iv", [ lo; hi ]) ->
      Format.fprintf ppf "%c%a, %a%c"
        (if bound_closed lo then '[' else '(')
        (pp_bound names ~closed:(bound_closed lo))
        lo
        (pp_bound names ~closed:(bound_closed hi))
        hi
        (if bound_closed hi then ']' else ')')
  | other -> pp_expr names ppf other

let pp_spatial names ppf = function
  | Gfact.S_everywhere -> ()
  | Gfact.S_at p -> Format.fprintf ppf "@%a " (pp_position names) p
  | Gfact.S_uniform (T.Atom r, p) ->
      Format.fprintf ppf "@u[%s]%a " r (pp_position names) p
  | Gfact.S_sampled (T.Atom r, p) ->
      Format.fprintf ppf "@s[%s]%a " r (pp_position names) p
  | Gfact.S_averaged (T.Atom r, p) ->
      Format.fprintf ppf "@a[%s]%a " r (pp_position names) p
  | Gfact.S_uniform _ | Gfact.S_sampled _ | Gfact.S_averaged _ | Gfact.S_var _ ->
      failwith "Pretty: spatial qualifier not expressible in the surface syntax"

let pp_temporal names ppf = function
  | Gfact.T_always -> ()
  | Gfact.T_at (T.Atom "now") -> Format.fprintf ppf "&now "
  | Gfact.T_at t -> Format.fprintf ppf "&%a " (pp_expr names) t
  | Gfact.T_uniform iv -> Format.fprintf ppf "&u%a " (pp_interval names) iv
  | Gfact.T_sampled iv -> Format.fprintf ppf "&s%a " (pp_interval names) iv
  | Gfact.T_averaged iv -> Format.fprintf ppf "&a%a " (pp_interval names) iv
  | Gfact.T_var (T.App ("cyc", [ period; iv ])) ->
      Format.fprintf ppf "&c[%a]%a " (pp_expr names) period (pp_interval names) iv
  | Gfact.T_var _ ->
      failwith "Pretty: temporal qualifier not expressible in the surface syntax"

let pp_fact_in names ppf (f : Gfact.t) =
  pp_spatial names ppf f.Gfact.space;
  pp_temporal names ppf f.Gfact.time;
  (match f.Gfact.model with
  | Some (T.Atom m) when m <> Names.default_model -> Format.fprintf ppf "%s'" m
  | _ -> ());
  (match f.Gfact.pred with
  | T.Atom p -> Format.pp_print_string ppf p
  | _ -> failwith "Pretty: second-order fact pattern not expressible");
  let group args =
    Format.fprintf ppf "(%a)"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         (pp_expr names))
      args
  in
  if f.Gfact.values <> [] then group f.Gfact.values;
  group f.Gfact.objects

let fact ppf f = pp_fact_in (fresh_names ()) ppf f

let comparison_ops = [ ">"; "<"; ">="; "=<"; "=="; "\\=="; "="; "\\="; "=:="; "=\\=" ]

let rec pp_formula_in names ppf = function
  | Formula.Atom f -> pp_fact_in names ppf f
  | Formula.Acc (f, a) ->
      Format.fprintf ppf "%%[%a] %a" (pp_expr names) a (pp_fact_in names) f
  | Formula.Test (T.App (op, [ l; r ])) when List.mem op comparison_ops ->
      Format.fprintf ppf "%a %s %a" (pp_expr names) l op (pp_expr names) r
  | Formula.Test (T.App ("is", [ l; r ])) ->
      Format.fprintf ppf "%a is %a" (pp_expr names) l (pp_expr names) r
  | Formula.Test t -> Format.fprintf ppf "test %a" (pp_expr names) t
  | Formula.And (x, y) ->
      Format.fprintf ppf "%a, %a" (pp_formula_in names) x (pp_formula_in names) y
  | Formula.Or (x, y) ->
      Format.fprintf ppf "(%a ; %a)" (pp_formula_in names) x (pp_formula_in names) y
  | Formula.Forall (g, c) ->
      Format.fprintf ppf "forall(%a => %a)" (pp_formula_in names) g
        (pp_formula_in names) c
  | Formula.Not x -> Format.fprintf ppf "not (%a)" (pp_formula_in names) x

let formula ppf f = pp_formula_in (fresh_names ()) ppf f

let pp_rule_in ?(model_prefix = "") names ppf (r : Spec.rule) =
  let head = r.Spec.rule_head in
  if T.equal head.Gfact.pred (T.atom Names.error_pred) then begin
    match head.Gfact.values with
    | T.Atom tag :: args ->
        Format.fprintf ppf "constraint %s(%a) <- %a." tag
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
             (pp_expr names))
          args
          (pp_formula_in names) r.Spec.rule_body
    | _ -> failwith "Pretty: malformed constraint head"
  end
  else begin
    Format.fprintf ppf "rule ";
    (match r.Spec.rule_accuracy with
    | Some acc -> Format.fprintf ppf "%%%a " (pp_expr names) acc
    | None -> ());
    Format.fprintf ppf "%s%a <- %a." model_prefix (pp_fact_in names) head
      (pp_formula_in names) r.Spec.rule_body
  end

let rule ppf r = pp_rule_in (fresh_names ()) ppf r

let pp_domain ppf (d : Sd.t) =
  match d.Sd.shape with
  | Some (Sd.Enum values) ->
      Format.fprintf ppf "domain %s = { %s }." d.Sd.name (String.concat ", " values)
  | Some (Sd.Int_range (lo, hi)) ->
      Format.fprintf ppf "domain %s = int(%d, %d)." d.Sd.name lo hi
  | Some (Sd.Real_range (lo, hi)) ->
      Format.fprintf ppf "domain %s = real(%a, %a)." d.Sd.name T.pp_float lo T.pp_float hi
  | Some Sd.Number_shape -> Format.fprintf ppf "domain %s = number." d.Sd.name
  | Some Sd.Text_shape -> Format.fprintf ppf "domain %s = text." d.Sd.name
  | Some Sd.Any_shape -> Format.fprintf ppf "domain %s = any." d.Sd.name
  | None ->
      failwith
        (Printf.sprintf
           "Pretty: domain %s has a custom characteristic function and cannot be \
            serialised"
           d.Sd.name)

let pp_region ppf name (r : Gdp_space.Region.t) =
  match r with
  | Gdp_space.Region.Rect { min_x; min_y; max_x; max_y } ->
      Format.fprintf ppf "region %s = rect(%a, %a, %a, %a)." name T.pp_float min_x
        T.pp_float min_y T.pp_float max_x T.pp_float max_y
  | Gdp_space.Region.Circle { center; radius } ->
      Format.fprintf ppf "region %s = circle(%a, %a, %a)." name T.pp_float
        center.Gdp_space.Point.x T.pp_float center.Gdp_space.Point.y T.pp_float radius
  | Gdp_space.Region.Polygon vs ->
      Format.fprintf ppf "region %s = polygon(%s)." name
        (String.concat ", "
           (List.map
              (fun (p : Gdp_space.Point.t) ->
                Format.asprintf "(%a, %a)" T.pp_float p.Gdp_space.Point.x T.pp_float
                  p.Gdp_space.Point.y)
              vs))
  | _ ->
      failwith
        (Printf.sprintf
           "Pretty: region %s uses set operations not expressible in the surface \
            syntax"
           name)

let builtin_domains = [ "number"; "text"; "boolean"; "any" ]

let spec ppf (s : Spec.t) =
  let line fmt = Format.fprintf ppf (fmt ^^ "@.") in
  (* header declarations *)
  (match s.Spec.coord with
  | Gdp_space.Coord.Cartesian -> ()
  | Gdp_space.Coord.Polar -> line "coordinate polar."
  | Gdp_space.Coord.Geographic -> line "coordinate geographic."
  | Gdp_space.Coord.Utm { zone } -> line "coordinate utm(%d)." zone);
  let now = Gdp_temporal.Clock.now s.Spec.clock in
  if now <> 0.0 then line "clock %s." (Format.asprintf "%a" T.pp_float now);
  (match s.Spec.fuzzy_family with
  | Gdp_fuzzy.Algebra.Min_max -> ()
  | Gdp_fuzzy.Algebra.Product -> line "fuzzy product."
  | Gdp_fuzzy.Algebra.Lukasiewicz -> line "fuzzy lukasiewicz.");
  Sd.Registry.names s.Spec.domains
  |> List.filter (fun n -> not (List.mem n builtin_domains))
  |> List.iter (fun n ->
         match Sd.Registry.find s.Spec.domains n with
         | Some d -> Format.fprintf ppf "%a@." pp_domain d
         | None -> ());
  (match List.rev s.Spec.objects with
  | [] -> ()
  | objects -> line "objects %s." (String.concat ", " objects));
  List.iter
    (fun (sg : Spec.signature) ->
      let domains =
        match sg.Spec.value_domains with
        | [] -> ""
        | ds -> Printf.sprintf "{%s}" (String.concat ", " ds)
      in
      line "predicate %s%s(%d)." sg.Spec.pred_name domains sg.Spec.object_arity)
    (List.rev s.Spec.signatures);
  List.iter
    (fun (r : Gdp_space.Resolution.t) ->
      let o = r.Gdp_space.Resolution.origin in
      if Gdp_space.Point.equal o Gdp_space.Point.origin then
        line "space %s = grid(%s, %s)." r.Gdp_space.Resolution.name
          (Format.asprintf "%a" T.pp_float r.Gdp_space.Resolution.dx)
          (Format.asprintf "%a" T.pp_float r.Gdp_space.Resolution.dy)
      else
        line "space %s = grid(%s, %s) origin (%s, %s)." r.Gdp_space.Resolution.name
          (Format.asprintf "%a" T.pp_float r.Gdp_space.Resolution.dx)
          (Format.asprintf "%a" T.pp_float r.Gdp_space.Resolution.dy)
          (Format.asprintf "%a" T.pp_float o.Gdp_space.Point.x)
          (Format.asprintf "%a" T.pp_float o.Gdp_space.Point.y))
    (List.rev s.Spec.spaces);
  List.iter
    (fun (r : Gdp_temporal.Resolution1d.t) ->
      line "timespace %s = line(%s) origin %s." r.Gdp_temporal.Resolution1d.name
        (Format.asprintf "%a" T.pp_float r.Gdp_temporal.Resolution1d.step)
        (Format.asprintf "%a" T.pp_float r.Gdp_temporal.Resolution1d.origin))
    (List.rev s.Spec.tspaces);
  List.iter (fun (name, r) -> Format.fprintf ppf "%a@." (fun ppf -> pp_region ppf name) r)
    (List.rev s.Spec.regions);
  List.iter
    (fun (m : Spec.model_def) ->
      if m.Spec.model_name <> Names.default_model then
        line "model %s." m.Spec.model_name)
    (List.rev s.Spec.models);
  if s.Spec.extra_builtins <> [] then
    line "// note: %d OCaml builtin(s) not serialisable: %s"
      (List.length s.Spec.extra_builtins)
      (String.concat ", "
         (List.rev_map (fun ((n, k), _) -> Printf.sprintf "%s/%d" n k) s.Spec.extra_builtins));
  (* model contents *)
  List.iter
    (fun (m : Spec.model_def) ->
      let default = String.equal m.Spec.model_name Names.default_model in
      let indent = if default then "" else "  " in
      if not default then line "in %s {" m.Spec.model_name;
      List.iter
        (fun f ->
          Format.fprintf ppf "%sfact %a.@." indent (pp_fact_in (fresh_names ())) f)
        (List.rev m.Spec.facts);
      List.iter
        (fun (f, a) ->
          Format.fprintf ppf "%sacc %s %a.@." indent
            (Format.asprintf "%a" T.pp_float a)
            (pp_fact_in (fresh_names ())) f)
        (List.rev m.Spec.acc_statements);
      List.iter
        (fun r -> Format.fprintf ppf "%s%a@." indent (pp_rule_in (fresh_names ())) r)
        (List.rev m.Spec.rules);
      List.iter
        (fun r -> Format.fprintf ppf "%s%a@." indent (pp_rule_in (fresh_names ())) r)
        (List.rev m.Spec.constraints);
      if not default then line "}")
    (List.rev s.Spec.models);
  (* user-defined meta-models (the standard library is re-installed by the
     elaborator, so only non-standard names are emitted) *)
  List.iter
    (fun (m : Spec.meta_model) ->
      if not (List.mem m.Spec.meta_name Meta.standard_names) then begin
        line "metamodel %s%s {" m.Spec.meta_name
          (if m.Spec.needs_loop_check then " loopcheck" else "");
        List.iter
          (fun (c : Gdp_logic.Database.clause) ->
            match c.Gdp_logic.Database.body with
            | [] -> line "  %s." (T.to_string c.Gdp_logic.Database.head)
            | body ->
                line "  %s :- %s."
                  (T.to_string c.Gdp_logic.Database.head)
                  (String.concat ", " (List.map T.to_string body)))
          m.Spec.meta_clauses;
        line "}"
      end)
    (List.rev s.Spec.meta_models)

let spec_to_string s = Format.asprintf "%a" spec s
