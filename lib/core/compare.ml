open Gdp_logic

type selection = {
  sel_name : string;
  sel_models : string list option;
  sel_metas : string list;
}

type difference = {
  probe : Gfact.t;
  only_left : Gfact.t list;
  only_right : Gfact.t list;
  both : int;
}

type report = {
  left : selection;
  right : selection;
  differences : difference list;
  left_violations : Query.violation list;
  right_violations : Query.violation list;
}

let key = Gfact.to_holds ~default_model:Names.default_model

let key_set facts =
  let t = Path_key.Tbl.create 16 in
  List.iter (fun f -> Path_key.Tbl.replace t (key f) ()) facts;
  t

let views ?max_depth ?(limit = 1000) spec ~left ~right ~probes =
  let query_of sel =
    Query.create spec ?world_view:sel.sel_models ~meta_view:sel.sel_metas ?max_depth
  in
  let ql = query_of left and qr = query_of right in
  let differences =
    List.map
      (fun probe ->
        let al = Query.solutions ~limit ql probe
        and ar = Query.solutions ~limit qr probe in
        let kl = key_set al and kr = key_set ar in
        let only_left = List.filter (fun f -> not (Path_key.Tbl.mem kr (key f))) al in
        let only_right = List.filter (fun f -> not (Path_key.Tbl.mem kl (key f))) ar in
        let both = List.length al - List.length only_left in
        { probe; only_left; only_right; both })
      probes
  in
  {
    left;
    right;
    differences;
    left_violations = Query.violations ql;
    right_violations = Query.violations qr;
  }

let agreement r =
  List.for_all (fun d -> d.only_left = [] && d.only_right = []) r.differences
  && r.left_violations = r.right_violations

let pp ppf r =
  Format.fprintf ppf "@[<v>comparing '%s' vs '%s'@," r.left.sel_name r.right.sel_name;
  List.iter
    (fun d ->
      Format.fprintf ppf "probe %a: %d shared" Gfact.pp d.probe d.both;
      if d.only_left = [] && d.only_right = [] then Format.fprintf ppf " (agree)@,"
      else begin
        Format.fprintf ppf "@,";
        List.iter
          (fun f -> Format.fprintf ppf "  only in %s: %a@," r.left.sel_name Gfact.pp f)
          d.only_left;
        List.iter
          (fun f -> Format.fprintf ppf "  only in %s: %a@," r.right.sel_name Gfact.pp f)
          d.only_right
      end)
    r.differences;
  let pp_viols name = function
    | [] -> Format.fprintf ppf "%s: consistent@," name
    | viols ->
        Format.fprintf ppf "%s: %d violation(s)@," name (List.length viols);
        List.iter (fun v -> Format.fprintf ppf "  %a@," Query.pp_violation v) viols
  in
  pp_viols r.left.sel_name r.left_violations;
  pp_viols r.right.sel_name r.right_violations;
  Format.fprintf ppf "@]"
