(* Property tests for the spatial access methods, in two layers.

   The structural layer treats [Spatial_index] as a black box with a
   white-box [validate] escape hatch: random insert/delete scripts must
   preserve the R-tree invariants (fan-out bounds, exact MBRs, uniform
   leaf depth) and the entry set, and range queries must agree with
   brute force.

   The differential engine layer lives in this file too (the spatial
   analogue of [Suite_engine_props]): random spatially-grounded
   programs — points scattered over random regions, rules guarded by
   [region_mem] and bounded [pt_dist] — must derive the same model
   under spatial-indexed evaluation, the [Spatial_scan] baseline, and
   top-down SLDNF, including across
   update scripts. *)

open Gdp_space

(* ------------------------------------------------- structural layer *)

(* boxes over a coarse float lattice: collinear centres, shared edges
   and duplicate boxes all occur with high probability *)
let gen_coordinate = QCheck.Gen.map (fun i -> float_of_int i /. 2.0) (QCheck.Gen.int_range (-40) 40)

let gen_box =
  let open QCheck.Gen in
  let* x0 = gen_coordinate and* y0 = gen_coordinate in
  let* w = map (fun i -> float_of_int i /. 2.0) (int_range 0 12)
  and* h = map (fun i -> float_of_int i /. 2.0) (int_range 0 12) in
  return (Spatial_index.box x0 y0 (x0 +. w) (y0 +. h))

let gen_point_box =
  let open QCheck.Gen in
  let* x = gen_coordinate and* y = gen_coordinate in
  return (Spatial_index.point_box x y)

let print_box (b : Spatial_index.box) =
  Printf.sprintf "[%g,%g..%g,%g]" b.Spatial_index.minx b.Spatial_index.miny
    b.Spatial_index.maxx b.Spatial_index.maxy

let arb_boxes =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map print_box l))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 0 120) (oneof [ gen_box; gen_point_box ]))

let number boxes = List.mapi (fun i b -> (b, i)) boxes

let sorted_ints l = List.sort_uniq compare l

(* every value the index holds: all generated boxes lie well inside
   this window *)
let everything t =
  List.sort compare (Spatial_index.range t (Spatial_index.box (-1e3) (-1e3) 1e3 1e3))

let ids n = List.init n Fun.id

let check_valid t =
  match Spatial_index.validate t with
  | Ok () -> true
  | Error msg -> QCheck.Test.fail_reportf "invalid index: %s" msg

let prop_bulk_valid =
  QCheck.Test.make ~name:"bulk-loaded indexes satisfy their invariants"
    ~count:150 arb_boxes (fun boxes ->
      let t = Spatial_index.bulk (number boxes) in
      everything t = ids (List.length boxes) && check_valid t)

let prop_insert_delete_roundtrip =
  QCheck.Test.make
    ~name:"insert/delete scripts preserve invariants and entry counts"
    ~count:150
    QCheck.(pair arb_boxes arb_boxes)
    (fun (initial, extra) ->
      let t = Spatial_index.bulk (number initial) in
      let base = List.length initial in
      List.iteri (fun i b -> Spatial_index.insert t b (base + i)) extra;
      if not (everything t = ids (base + List.length extra) && check_valid t)
      then false
      else begin
        (* delete every extra entry again *)
        List.iteri
          (fun i b ->
            if not (Spatial_index.remove t b (base + i)) then
              QCheck.Test.fail_reportf "lost entry %d" (base + i))
          extra;
        everything t = ids base
        && check_valid t
        && (* deleting something absent is a no-op *)
        (not (Spatial_index.remove t (Spatial_index.point_box 999.0 999.0) 0))
        && everything t = ids base
      end)

let prop_range_agrees =
  QCheck.Test.make ~name:"range queries agree with brute force"
    ~count:200
    QCheck.(pair arb_boxes (QCheck.make QCheck.Gen.(list_size (return 5) gen_box)))
    (fun (boxes, queries) ->
      let entries = number boxes in
      let brute q =
        List.filter_map
          (fun (b, i) -> if Spatial_index.box_overlap b q then Some i else None)
          entries
        |> sorted_ints
      in
      let t = Spatial_index.bulk entries in
      List.for_all
        (fun q ->
          let got = sorted_ints (Spatial_index.range t q) in
          let want = brute q in
          if got <> want then
            QCheck.Test.fail_reportf "range %s: got %d, want %d entries"
              (print_box q) (List.length got) (List.length want)
          else true)
        queries)

let test_box_basics () =
  let b = Spatial_index.box 0.0 0.0 4.0 2.0 in
  Alcotest.(check bool) "overlap shared edge" true
    (Spatial_index.box_overlap b (Spatial_index.box 4.0 0.0 5.0 1.0));
  Alcotest.(check bool) "disjoint" false
    (Spatial_index.box_overlap b (Spatial_index.box 4.1 0.0 5.0 1.0));
  let p = Spatial_index.pad (Spatial_index.point_box 1.0 1.0) 0.5 in
  Alcotest.(check (float 1e-9)) "pad min" 0.5 p.Spatial_index.minx;
  Alcotest.(check (float 1e-9)) "pad max" 1.5 p.Spatial_index.maxy;
  Alcotest.check_raises "inverted box"
    (Invalid_argument "Spatial_index.box: inverted box") (fun () ->
      ignore (Spatial_index.box 1.0 0.0 0.0 0.0));
  match Spatial_index.box_of_region (Region.circle ~center:(Point.make 1.0 2.0) ~radius:1.0) with
  | Some cb ->
      Alcotest.(check (float 1e-9)) "region box minx" 0.0 cb.Spatial_index.minx;
      Alcotest.(check (float 1e-9)) "region box maxy" 3.0 cb.Spatial_index.maxy
  | None -> Alcotest.fail "circle has a box"

(* ------------------------------------------- differential engine layer *)

(* Random spatially-grounded programs: sites scattered over a half-int
   lattice, one random region, a uniform grid space pair, and a fixed
   rule set exercising every whitelisted builtin — region_mem and
   bounded pt_dist as probe-compiled join guards (over base and derived
   relations), region_reps and res_subcells as native enumerators, and
   negation over a spatial stratum. Every evaluation configuration must
   derive the same model; top-down SLDNF (the rules are non-recursive,
   so SLD is complete) is the specification both for the derived facts
   and for a full Herbrand sweep over the site names. *)

module T = Gdp_logic.Term
module Bu = Gdp_logic.Bottom_up
open Gdp_core

type scenario = {
  sc_sites : (string * float * float) list;
  sc_region : Region.t;
  sc_eps : int;
  sc_updates : [ `Add of int * float * float | `Del of int ] list;
}

let print_scenario sc =
  Format.asprintf "sites [%s] region %a eps %d updates [%s]"
    (String.concat "; "
       (List.map (fun (n, x, y) -> Printf.sprintf "%s(%g,%g)" n x y) sc.sc_sites))
    Region.pp sc.sc_region sc.sc_eps
    (String.concat "; "
       (List.map
          (function
            | `Add (i, x, y) -> Printf.sprintf "+u%d(%g,%g)" i x y
            | `Del i -> Printf.sprintf "-%d" i)
          sc.sc_updates))

let gen_scenario =
  let open QCheck.Gen in
  let half lo hi = map (fun i -> float_of_int i /. 2.0) (int_range lo hi) in
  let coord = half 0 40 in
  let gen_region =
    oneof
      [
        (let* x0 = coord and* y0 = coord in
         let* w = map float_of_int (int_range 1 10)
         and* h = map float_of_int (int_range 1 10) in
         return
           (Region.rect ~min_x:x0 ~min_y:y0 ~max_x:(x0 +. w) ~max_y:(y0 +. h)));
        (let* x = coord and* y = coord and* r = oneofl [ 2.0; 3.0; 5.0 ] in
         return (Region.circle ~center:(Point.make x y) ~radius:r));
      ]
  in
  let* n = int_range 4 9 in
  let* pts = list_size (return n) (pair coord coord) in
  let sites = List.mapi (fun i (x, y) -> (Printf.sprintf "s%d" i, x, y)) pts in
  let* region = gen_region in
  let* eps = oneofl [ 1; 2; 4 ] in
  let* n_upd = int_range 0 6 in
  let* updates =
    list_size (return n_upd)
      (oneof
         [
           (let* i = int_range 0 99 and* x = coord and* y = coord in
            return (`Add (i, x, y)));
           map (fun i -> `Del i) (int_range 0 (n - 1));
         ])
  in
  return { sc_sites = sites; sc_region = region; sc_eps = eps; sc_updates = updates }

let arb_scenario = QCheck.make ~print:print_scenario gen_scenario

let site_fact name x y =
  T.app "site" [ T.atom name; Gfact.pos_term (Point.make x y) ]

(* The spec carries region/space declarations only (the hooks read it);
   the database is a raw engine base with the GDP builtins installed so
   the top-down leg evaluates the same guards natively. *)
let scenario_db sc =
  let spec = Spec.create () in
  Spec.declare_region spec "zone" sc.sc_region;
  Spec.declare_space spec (Resolution.uniform ~name:"grid" 2.0);
  Spec.declare_space spec (Resolution.uniform ~name:"coarse" 4.0);
  let db = Gdp_logic.Engine.create () in
  Gdp_builtins.install spec db;
  List.iter (fun (n, x, y) -> Gdp_logic.Database.fact db (site_fact n x y)) sc.sc_sites;
  Gdp_logic.Engine.consult db
    (Printf.sprintf
       {|
       inz(A) :- site(A, P), region_mem(zone, P).
       near(A, B) :- site(A, P), site(B, Q), pt_dist(P, Q, D), D < %d.
       outz(A) :- site(A, P), \+ inz(A).
       linkz(A, B) :- inz(A), near(A, B).
       rep(P) :- region_reps(grid, zone, P).
       cover(A) :- site(A, P), rep(Q), pt_dist(P, Q, D), D < 2.
       cells(A, Ps) :- site(A, P), res_subcells(grid, coarse, P, Ps).
       |}
       sc.sc_eps);
  (spec, db)

let run_spatial ?baseline spec db =
  Bu.run ?baseline ~spatial:(Compile.spatial_hints spec) db

let same_facts a b = List.equal T.equal (Bu.facts a) (Bu.facts b)

(* Top-down provability, Unknown on a blown resolution budget (which
   constrains nothing — the probe is skipped, as in Suite_engine_props). *)
let succeeds_opt db goal =
  let opts = { Gdp_logic.Solve.default_options with loop_check = true } in
  match Gdp_logic.Solve.succeeds ~options:opts db [ goal ] with
  | b -> Some b
  | exception Gdp_logic.Solve.Depth_exhausted _ -> None

let herbrand_agrees sc db fp =
  let names = List.map (fun (n, _, _) -> n) sc.sc_sites in
  let probe atom =
    match succeeds_opt db atom with
    | None -> true
    | Some proved -> proved = Bu.holds fp atom
  in
  List.for_all
    (fun fact -> succeeds_opt db fact <> Some false)
    (Bu.facts fp)
  && List.for_all
       (fun p -> List.for_all (fun a -> probe (T.app p [ T.atom a ])) names)
       [ "inz"; "outz"; "cover" ]
  && List.for_all
       (fun p ->
         List.for_all
           (fun a ->
             List.for_all
               (fun b -> probe (T.app p [ T.atom a; T.atom b ]))
               names)
           names)
       [ "near"; "linkz" ]

let prop_spatial_differential =
  QCheck.Test.make
    ~name:
      "indexed (R-tree), scan-baseline and top-down SLDNF agree on random \
       spatial programs"
    ~count:200 arb_scenario
    (fun sc ->
      let spec, db = scenario_db sc in
      let rtree = run_spatial spec db in
      let scan = run_spatial ~baseline:Spatial_scan spec db in
      if (Bu.stats rtree).Bu.bu_spatial_probes = 0 then
        (* the rules compile to probes on every scenario — agreement
           must never be vacuous *)
        QCheck.Test.fail_report "no spatial probes fired"
      else if (Bu.stats scan).Bu.bu_spatial_scans = 0 then
        QCheck.Test.fail_report "scan baseline recorded no spatial fallbacks"
      else if not (same_facts rtree scan) then
        QCheck.Test.fail_report "indexed and scan-baseline models differ"
      else if not (herbrand_agrees sc db rtree) then
        QCheck.Test.fail_report "bottom-up and top-down disagree"
      else true)

(* Index coherence through incremental maintenance: apply the update
   script to live fixpoints (indexed and scan-baseline) and compare
   against a fresh recompute on the mutated base — insertions must land
   in the lazily built indexes and retractions must evict. *)
let prop_spatial_incremental =
  QCheck.Test.make
    ~name:"spatial indexes stay coherent through assert/retract scripts"
    ~count:80 arb_scenario
    (fun sc ->
      let spec, db = scenario_db sc in
      let indexed = run_spatial spec db in
      let scan = run_spatial ~baseline:Spatial_scan spec db in
      let updates =
        List.map
          (function
            | `Add (i, x, y) -> `Assert (site_fact (Printf.sprintf "u%d" i) x y)
            | `Del i ->
                let n, x, y = List.nth sc.sc_sites i in
                `Retract (site_fact n x y))
          sc.sc_updates
      in
      Bu.apply indexed updates;
      Bu.apply scan updates;
      List.iter
        (fun u ->
          match u with
          | `Assert t ->
              if not (Gdp_logic.Database.has_fact db t) then
                Gdp_logic.Database.fact db t
          | `Retract t ->
              while Gdp_logic.Database.retract_fact db t do
                ()
              done)
        updates;
      let fresh = run_spatial spec db in
      if not (same_facts fresh indexed) then
        QCheck.Test.fail_report "maintained indexed model differs from recompute"
      else if not (same_facts fresh scan) then
        QCheck.Test.fail_report "maintained scan model differs from recompute"
      else true)

let tests =
  [
    Alcotest.test_case "box primitives" `Quick test_box_basics;
    QCheck_alcotest.to_alcotest prop_bulk_valid;
    QCheck_alcotest.to_alcotest prop_insert_delete_roundtrip;
    QCheck_alcotest.to_alcotest prop_range_agrees;
    QCheck_alcotest.to_alcotest prop_spatial_differential;
    QCheck_alcotest.to_alcotest prop_spatial_incremental;
  ]
