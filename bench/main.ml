(* Benchmark and experiment-reproduction harness.

   The paper's evaluation is a prototype feasibility demonstration with
   worked micro-examples and no numbered tables or figures (see DESIGN.md
   §2 and EXPERIMENTS.md). This harness therefore regenerates:

   - E1..E12: every worked example in the paper, end to end, at
     controllable scale, each printing the rows recorded in
     EXPERIMENTS.md (ground-truth agreement, scaling series, shape
     checks);
   - engine-*: Bechamel micro-benchmarks of the inference substrate — the
     performance dimension the paper mentions ("Prolog's computational
     inefficiency") but never quantifies.

   Usage:
     dune exec bench/main.exe             # reports + micro-benchmarks
     dune exec bench/main.exe -- report   # experiment reports only
     dune exec bench/main.exe -- micro    # micro-benchmarks only
     dune exec bench/main.exe -- e7       # a single experiment *)

open Gdp_core
module T = Gdp_logic.Term
module W = Gdp_workload

let a = T.atom
let v = T.var

(* flush per line so long runs stay observable through a pipe *)
let section title = Printf.printf "\n==== %s ====\n%!" title
let row fmt = Printf.ksprintf (fun s -> print_string s; flush stdout) fmt

(* wall-clock of a thunk, in milliseconds, off the monotonic clock
   (Sys.time would report CPU time; the micro benches use bechamel below) *)
let time_ms f =
  let t0 = Monotonic_clock.now () in
  let result = f () in
  let t1 = Monotonic_clock.now () in
  (Int64.to_float (Int64.sub t1 t0) /. 1e6, result)

(* ---------------------------------------------------------------- E1 *)

let e1 () =
  section "E1 — bridges/roads virtual facts (§II-B, §III-A)";
  row "  %8s %8s %10s %10s %12s  %s\n" "roads" "bridges" "open_roads" "truth"
    "query_ms" "agree";
  List.iter
    (fun n_roads ->
      let rng = W.Rng.create 1L in
      let net = W.Roads.generate rng ~n_roads ~bridges_per_road:4 ~open_probability:0.8 () in
      let spec = Spec.create () in
      Meta.install_standard spec;
      W.Roads.add_to_spec net spec ();
      W.Roads.add_status_rules spec ();
      let q = Query.create spec in
      let ms, open_roads =
        time_ms (fun () ->
            List.length (Query.solutions q (Gfact.make "open_road" ~objects:[ v "R" ])))
      in
      let truth =
        net.W.Roads.roads
        |> List.filter (fun (r : W.Roads.road) ->
               net.W.Roads.bridges
               |> List.filter (fun (b : W.Roads.bridge) ->
                      b.W.Roads.on_road = r.W.Roads.road_id)
               |> List.for_all (fun (b : W.Roads.bridge) -> b.W.Roads.is_open))
        |> List.length
      in
      row "  %8d %8d %10d %10d %12.2f  %b\n" n_roads (n_roads * 4) open_roads truth
        ms (open_roads = truth))
    [ 10; 40; 160; 640 ]

(* ---------------------------------------------------------------- E2 *)

let e2 () =
  section "E2 — many-sorted + general-law constraints (§III-C/D/E)";
  row "  %8s %14s %14s %10s  %s\n" "states" "seeded_bugs" "violations" "check_ms"
    "agree";
  List.iter
    (fun n_states ->
      let rng = W.Rng.create 2L in
      let census =
        W.Census.generate rng ~n_states ~cities_per_state:4
          ~capital_bug_probability:0.5 ()
      in
      let seeded =
        census.W.Census.states
        |> List.filter (fun s ->
               List.length
                 (List.filter
                    (fun (c : W.Census.city) ->
                      c.W.Census.in_state = s && c.W.Census.is_capital)
                    census.W.Census.cities)
               > 1)
        |> List.length
      in
      let spec = Spec.create () in
      Meta.install_standard spec;
      W.Census.add_to_spec census spec ();
      W.Census.add_constraints spec ();
      let q = Query.create spec in
      let ms, viols = time_ms (fun () -> Query.violations q) in
      let two_caps =
        List.length (List.filter (fun x -> x.Query.v_tag = "two_capitals") viols)
      in
      row "  %8d %14d %14d %10.2f  %b\n" n_states seeded two_caps ms
        (two_caps = seeded))
    [ 5; 20; 80 ]

(* ---------------------------------------------------------------- E3 *)

let e3 () =
  section "E3 — closed world assumption meta-model (§IV-A)";
  row "  %8s %8s %12s %12s  %s\n" "objects" "known" "cwa_false" "expected" "agree";
  List.iter
    (fun n ->
      let spec = Spec.create () in
      Meta.install_standard spec;
      Spec.declare_predicate spec "surveyed" ~object_arity:1;
      for i = 0 to n - 1 do
        Spec.declare_object spec (Printf.sprintf "parcel_%d" i)
      done;
      (* every third parcel is known surveyed *)
      let known = ref 0 in
      for i = 0 to n - 1 do
        if i mod 3 = 0 then begin
          incr known;
          Spec.add_fact spec
            (Gfact.make "surveyed" ~objects:[ a (Printf.sprintf "parcel_%d" i) ])
        end
      done;
      let q = Query.create spec ~meta_view:[ "cwa" ] in
      let falses =
        List.length
          (Query.solutions q
             (Gfact.make "surveyed" ~values:[ a "false" ] ~objects:[ v "X" ]))
      in
      row "  %8d %8d %12d %12d  %b\n" n !known falses (n - !known)
        (falses = n - !known))
    [ 30; 120; 480 ]

(* ---------------------------------------------------------------- E4 *)

let e4 () =
  section "E4 — contradiction meta-constraint (§IV-B)";
  row "  %8s %14s %14s  %s\n" "facts" "seeded" "found" "agree";
  List.iter
    (fun n ->
      let rng = W.Rng.create 4L in
      let spec = Spec.create () in
      Meta.install_standard spec;
      let seeded = ref 0 in
      for i = 0 to n - 1 do
        let o = Printf.sprintf "b%d" i in
        Spec.declare_object spec o;
        let tv = if W.Rng.bool rng then "true" else "false" in
        Spec.add_fact spec (Gfact.make "open" ~values:[ a tv ] ~objects:[ a o ]);
        if W.Rng.float rng 1.0 < 0.2 then begin
          incr seeded;
          let other = if tv = "true" then "false" else "true" in
          Spec.add_fact spec (Gfact.make "open" ~values:[ a other ] ~objects:[ a o ])
        end
      done;
      let q = Query.create spec ~meta_view:[ "contradiction" ] in
      let found =
        List.length
          (List.filter (fun x -> x.Query.v_tag = "contradiction") (Query.violations q))
      in
      row "  %8d %14d %14d  %b\n" n !seeded found (found = !seeded))
    [ 50; 200; 800 ]

(* ---------------------------------------------------------------- E5 *)

let e5 () =
  section "E5 — spatial operators and refinement inheritance (§V-C)";
  let spec = Spec.create () in
  Meta.install_standard spec;
  Spec.declare_space spec (Gdp_space.Resolution.uniform ~name:"r4" 4.0);
  Spec.declare_space spec (Gdp_space.Resolution.uniform ~name:"r2" 2.0);
  Spec.declare_space spec (Gdp_space.Resolution.uniform ~name:"r1" 1.0);
  Spec.declare_object spec "land";
  Spec.add_fact spec
    (Gfact.make "zone" ~values:[ a "wetland" ] ~objects:[ a "land" ]
       ~space:(Gfact.S_uniform (a "r4", Gfact.pos_term (Gdp_space.Point.make 2.0 2.0))));
  let q = Query.create spec ~meta_view:[ "spatial_uniform"; "spatial_sampled" ] in
  row "  one @u[r4] fact over a 4x4 patch; derived realisations:\n";
  List.iter
    (fun (res, expected) ->
      let ms, cells =
        time_ms (fun () ->
            List.length
              (Query.solutions q
                 (Gfact.make "zone" ~values:[ a "wetland" ] ~objects:[ a "land" ]
                    ~space:(Gfact.S_uniform (a res, v "P")))))
      in
      row "  @u[%s] cells: %4d (expected %4d, %s) %8.2f ms\n" res cells expected
        (if cells = expected then "agree" else "DISAGREE")
        ms)
    [ ("r2", 4); ("r1", 16) ];
  let probe =
    Gfact.make "zone" ~values:[ a "wetland" ] ~objects:[ a "land" ]
      ~space:(Gfact.S_at (Gfact.pos_term (Gdp_space.Point.make 3.7 0.2)))
  in
  row "  @p inside patch provable:  %b (expected true)\n" (Query.holds q probe);
  let outside =
    Gfact.make "zone" ~values:[ a "wetland" ] ~objects:[ a "land" ]
      ~space:(Gfact.S_at (Gfact.pos_term (Gdp_space.Point.make 4.2 0.2)))
  in
  row "  @p outside patch provable: %b (expected false)\n" (Query.holds q outside)

(* ---------------------------------------------------------------- E6 *)

let e6 () =
  section "E6 — elevation peaks on fractal terrain (§V-C example)";
  row "  %8s %8s %10s %10s  %s\n" "grid" "facts" "peaks" "truth" "agree";
  List.iter
    (fun size_exp ->
      let rng = W.Rng.create 6L in
      let terrain = W.Terrain.generate rng ~size_exp ~cell:1.0 () in
      let n = terrain.W.Terrain.size - 1 in
      let spec = Spec.create () in
      Meta.install_standard spec;
      Spec.declare_space spec (Gdp_space.Resolution.uniform ~name:"fine" 1.0);
      Spec.declare_region spec "map"
        (Gdp_space.Region.rect ~min_x:0.0 ~min_y:0.0 ~max_x:(float_of_int n)
           ~max_y:(float_of_int n));
      Spec.declare_object spec "land";
      let facts =
        W.Terrain.add_elevation_facts terrain spec ~resolution:"fine"
          ~object_name:"land" ~scale:1.0 ()
      in
      let p0 = v "P0" and z0 = v "Z0" and p1 = v "P1" and z1 = v "Z1" and d = v "D" in
      Spec.add_rule spec ~name:"peak"
        ~head:
          (Gfact.make "peak" ~values:[ z0 ] ~objects:[ a "land" ]
             ~space:(Gfact.S_at p0))
        Formula.(
          conj
            [
              Test (T.app "region_reps" [ a "fine"; a "map"; p0 ]);
              Atom
                (Gfact.make "elevation" ~values:[ z0 ] ~objects:[ a "land" ]
                   ~space:(Gfact.S_uniform (a "fine", p0)));
              Forall
                ( conj
                    [
                      Test (T.app "region_reps" [ a "fine"; a "map"; p1 ]);
                      Test (T.app "pt_dist" [ p0; p1; d ]);
                      Test (T.app ">" [ d; T.float 0.0 ]);
                      Test (T.app "<" [ d; T.float 1.5 ]);
                      Atom
                        (Gfact.make "elevation" ~values:[ z1 ] ~objects:[ a "land" ]
                           ~space:(Gfact.S_uniform (a "fine", p1)));
                    ],
                  Test (T.app ">" [ z0; z1 ]) );
            ]);
      let q = Query.create spec in
      let peaks =
        List.length
          (Query.solutions q
             (Gfact.make "peak" ~values:[ v "Z" ] ~objects:[ a "land" ]
                ~space:(Gfact.S_at (v "P"))))
      in
      (* brute-force ground truth on the raw heights: strictly higher than
         the 8-neighbourhood (every cell centre within distance 1.5) *)
      let truth = ref 0 in
      for j = 0 to n - 1 do
        for i = 0 to n - 1 do
          let h = W.Terrain.height terrain i j in
          let higher_than di dj =
            let x = i + di and y = j + dj in
            x < 0 || x >= n || y < 0 || y >= n || h > W.Terrain.height terrain x y
          in
          let ok = ref true in
          for di = -1 to 1 do
            for dj = -1 to 1 do
              if (di <> 0 || dj <> 0) && not (higher_than di dj) then ok := false
            done
          done;
          if !ok then incr truth
        done
      done;
      row "  %5dx%-3d %7d %10d %10d  %b\n" n n facts peaks !truth (peaks = !truth))
    [ 3; 4 ]

(* ---------------------------------------------------------------- E7 *)

let e7 () =
  section "E7 — island thresholding sweep (§V-D)";
  let rng = W.Rng.create 7L in
  let terrain = W.Terrain.generate rng ~size_exp:4 ~cell:1.0 () in
  let spec = Spec.create () in
  Meta.install_standard spec;
  Spec.declare_space spec (Gdp_space.Resolution.uniform ~name:"fine" 1.0);
  Spec.declare_space spec (Gdp_space.Resolution.uniform ~name:"coarse" 4.0);
  Spec.declare_object spec "land";
  let island_cells =
    W.Terrain.add_mask_facts terrain spec ~resolution:"fine" ~pred:"island"
      ~object_name:"land"
      ~keep:(fun h -> h > 0.75)
      ~qualifier:`Sampled ()
  in
  row "  island feature covers %d fine cells; survival at the coarse map:\n"
    island_cells;
  row "  %10s %16s\n" "min_cells" "coarse_cells";
  let last = ref max_int in
  let monotone = ref true in
  List.iter
    (fun delta ->
      Spec.add_meta_model spec
        (Meta.thresholding
           ~name:(Printf.sprintf "thr_%d" delta)
           ~pred:"island" ~fine:"fine" ~coarse:"coarse" ~min_cells:delta ());
      let q = Query.create spec ~meta_view:[ Printf.sprintf "thr_%d" delta ] in
      let cells =
        List.length
          (Query.solutions q
             (Gfact.make "island" ~objects:[ a "land" ]
                ~space:(Gfact.S_sampled (a "coarse", v "P"))))
      in
      if cells > !last then monotone := false;
      last := cells;
      row "  %10d %16d\n" delta cells)
    [ 0; 2; 4; 8; 16; 32 ];
  row "  shape: survival decreases monotonically with the threshold: %b\n"
    !monotone

(* ---------------------------------------------------------------- E8 *)

let e8 () =
  section "E8 — temporal reasoning over observation streams (§VI)";
  row "  %8s %10s %12s %12s  %s\n" "events" "queries" "persist_ms" "agree" "";
  List.iter
    (fun n_events ->
      let rng = W.Rng.create 8L in
      let spec = Spec.create ~now:1000.0 () in
      Meta.install_standard spec;
      Spec.declare_object spec "b";
      (* a stream of alternating status observations at random times *)
      let times =
        List.init n_events (fun _ -> W.Rng.float rng 1000.0) |> List.sort compare
      in
      let events =
        List.mapi (fun i t -> (t, if i mod 2 = 0 then "open" else "closed")) times
      in
      List.iter
        (fun (t, s) ->
          Spec.add_fact spec
            (Gfact.make "status" ~values:[ a s ] ~objects:[ a "b" ]
               ~time:(Gfact.T_at (T.float t))))
        events;
      let q = Query.create spec ~meta_view:[ "temporal_persistence" ] in
      (* ground truth: replay the event list *)
      let truth_at t =
        List.fold_left (fun acc (et, s) -> if et <= t then Some s else acc) None events
      in
      let probes = List.init 20 (fun i -> float_of_int i *. 50.0) in
      let ms, agree =
        time_ms (fun () ->
            List.for_all
              (fun t ->
                let derived =
                  List.filter
                    (fun s ->
                      Query.holds q
                        (Gfact.make "status" ~values:[ a s ] ~objects:[ a "b" ]
                           ~time:(Gfact.T_at (T.float t))))
                    [ "open"; "closed" ]
                in
                match truth_at t with
                | None -> derived = []
                | Some s -> derived = [ s ])
              probes)
      in
      row "  %8d %10d %12.2f %12b\n" n_events (List.length probes) ms agree)
    [ 10; 40; 160 ]

(* ---------------------------------------------------------------- E9 *)

let e9 () =
  section "E9 — depth-interpolation accuracy (§VII-B extrapolation)";
  let rng = W.Rng.create 9L in
  let survey = W.Hydro.generate rng ~n_samples:25 ~extent:100.0 () in
  let spec = Spec.create () in
  Meta.install_standard spec;
  Spec.declare_space spec (Gdp_space.Resolution.uniform ~name:"chart" 10.0);
  Spec.declare_region spec "basin"
    (Gdp_space.Region.rect ~min_x:0.0 ~min_y:0.0 ~max_x:100.0 ~max_y:100.0);
  W.Hydro.add_to_spec survey spec ();
  W.Hydro.add_interpolation_rule survey spec ~region:"basin" ~resolution:"chart" ();
  let q = Query.create spec ~meta_view:[ "fuzzy_unified_max" ] in
  let estimates =
    Query.accuracies q
      (Gfact.make "depth" ~values:[ v "D" ] ~objects:[ a "ocean" ]
         ~space:(Gfact.S_at (v "P")))
  in
  (* bucket by distance to nearest sample; accuracy and error must both be
     monotone in the distance *)
  let nearest p =
    survey.W.Hydro.samples
    |> List.map (fun (sp, _) -> Gdp_space.Point.euclidean p sp)
    |> List.fold_left Float.min Float.infinity
  in
  let buckets = [ (0.0, 5.0); (5.0, 10.0); (10.0, 20.0); (20.0, 1000.0) ] in
  row "  %14s %8s %12s %12s\n" "dist_bucket" "cells" "mean_acc" "mean_err_m";
  let stats =
    List.map
      (fun (lo, hi) ->
        let in_bucket =
          List.filter_map
            (fun (f, acc) ->
              match (f.Gfact.space, f.Gfact.values) with
              | Gfact.S_at pt, [ T.Float d ] -> (
                  match Gfact.pos_of_term pt with
                  | Some p when nearest p >= lo && nearest p < hi ->
                      Some (acc, Float.abs (d -. W.Hydro.true_depth survey p))
                  | _ -> None)
              | _ -> None)
            estimates
        in
        let n = List.length in_bucket in
        let mean f = List.fold_left (fun s x -> s +. f x) 0.0 in_bucket /. float_of_int (max 1 n) in
        let macc = mean fst and merr = mean snd in
        row "  %6.0f-%-6.0f %8d %12.3f %12.1f\n" lo hi n macc merr;
        (macc, merr, n))
      buckets
  in
  let rec acc_monotone = function
    | (a1, _, n1) :: ((a2, _, n2) :: _ as rest) ->
        (n1 = 0 || n2 = 0 || a1 >= a2) && acc_monotone rest
    | _ -> true
  in
  row "  shape: accuracy decays with distance from the nearest sample: %b\n"
    (acc_monotone stats)

(* --------------------------------------------------------------- E10 *)

let e10 () =
  section "E10 — picture clarity via the card primitive (§VII-B)";
  row "  %8s %12s %12s %12s  %s\n" "size" "cover" "clarity" "expected" "agree";
  List.iter
    (fun (size, cover) ->
      let rng = W.Rng.create 10L in
      let clouds = W.Clouds.generate rng ~size ~cover () in
      let spec = Spec.create () in
      Meta.install_standard spec;
      W.Clouds.add_to_spec clouds spec ~resolution:"r" ~image:"img" ();
      W.Clouds.add_clarity_rule spec ~image:"img" ();
      let q = Query.create spec ~meta_view:[ "fuzzy_unified_max" ] in
      match Query.accuracy q (Gfact.make "clarity" ~objects:[ a "img" ]) with
      | Some acc ->
          let expected = 1.0 -. W.Clouds.cloud_fraction clouds in
          row "  %8d %12.2f %12.4f %12.4f  %b\n" size cover acc expected
            (Float.abs (acc -. expected) < 1e-9)
      | None -> row "  %8d %12.2f %12s\n" size cover "FAILED")
    [ (8, 0.1); (16, 0.3); (16, 0.7); (24, 0.5) ]

(* --------------------------------------------------------------- E11 *)

let e11 () =
  section "E11 — AC uncertainty propagation through rule chains (§VII-F)";
  row "  %8s %14s %14s %10s  %s\n" "depth" "min_input" "derived" "ms" "agree";
  List.iter
    (fun depth ->
      let rng = W.Rng.create 11L in
      let spec = Spec.create () in
      Meta.install_standard spec;
      Spec.declare_object spec "x";
      (* a chain p0 <- p1 <- ... <- p_depth with accuracy statements on the
         leaves of each level *)
      let accs =
        List.init depth (fun _ -> 0.5 +. W.Rng.float rng 0.5)
      in
      List.iteri
        (fun i acc ->
          let base = Printf.sprintf "base_%d" i in
          Spec.add_fact spec (Gfact.make base ~objects:[ a "x" ]);
          Spec.add_acc_statement spec (Gfact.make base ~objects:[ a "x" ]) acc)
        accs;
      (* level i: level_{i}(X) <- base_i(X), level_{i+1}(X) *)
      let xv = v "X" in
      for i = depth - 1 downto 0 do
        let body =
          if i = depth - 1 then
            Formula.Atom (Gfact.make (Printf.sprintf "base_%d" i) ~objects:[ xv ])
          else
            Formula.And
              ( Formula.Atom (Gfact.make (Printf.sprintf "base_%d" i) ~objects:[ xv ]),
                Formula.Atom (Gfact.make (Printf.sprintf "level_%d" (i + 1)) ~objects:[ xv ]) )
        in
        Spec.add_rule spec
          ~name:(Printf.sprintf "level_%d" i)
          ~head:(Gfact.make (Printf.sprintf "level_%d" i) ~objects:[ xv ])
          body
      done;
      let q = Query.create spec ~meta_view:[ "fuzzy_unified_max"; "fuzzy_propagation" ] in
      let expected = List.fold_left Float.min 1.0 accs in
      let ms, derived =
        time_ms (fun () -> Query.accuracy q (Gfact.make "level_0" ~objects:[ a "x" ]))
      in
      match derived with
      | Some d ->
          row "  %8d %14.4f %14.4f %10.2f  %b\n" depth expected d ms
            (Float.abs (d -. expected) < 1e-9)
      | None -> row "  %8d %14.4f %14s\n" depth expected "FAILED")
    [ 2; 4; 8; 16 ]

(* --------------------------------------------------------------- E12 *)

let e12 () =
  section "E12 — rendering logical information (§I prototype path)";
  let rng = W.Rng.create 12L in
  let terrain = W.Terrain.generate rng ~size_exp:5 ~cell:1.0 () in
  let spec = Spec.create () in
  Meta.install_standard spec;
  Spec.declare_space spec (Gdp_space.Resolution.uniform ~name:"fine" 1.0);
  Spec.declare_object spec "land";
  let _ =
    W.Terrain.add_elevation_facts terrain spec ~resolution:"fine"
      ~object_name:"land" ~scale:1.0 ()
  in
  let q = Query.create spec in
  row "  %10s %10s %12s %14s\n" "raster" "cells" "render_ms" "painted_pixels";
  List.iter
    (fun side ->
      let region =
        Gdp_space.Region.rect ~min_x:0.0 ~min_y:0.0 ~max_x:(float_of_int side)
          ~max_y:(float_of_int side)
      in
      let layer =
        Gdp_render.Map_render.value ~name:"elevation" ~lo:0.0 ~hi:1.0 (fun p ->
            let z = v "Z" in
            {
              Gdp_render.Map_render.pattern =
                Gfact.make "elevation" ~values:[ z ] ~objects:[ a "land" ]
                  ~space:(Gfact.S_uniform (a "fine", Gfact.pos_term p));
              value_var = z;
            })
      in
      let ms, fb =
        time_ms (fun () ->
            Gdp_render.Map_render.render q ~resolution:"fine" ~region [ layer ])
      in
      let painted =
        Gdp_render.Framebuffer.histogram fb
        |> List.filter (fun (c, _) -> not (Gdp_render.Color.equal c Gdp_render.Color.black))
        |> List.fold_left (fun acc (_, n) -> acc + n) 0
      in
      row "  %6dx%-3d %10d %12.2f %14d\n" side side (side * side) ms painted)
    [ 8; 16; 32 ]

(* ------------------------------------------------------- ablations *)

(* the design choices DESIGN.md calls out, measured head to head *)
let ablation () =
  section "ablation 1 — clause index key (DESIGN.md §4)";
  let make_compiled n_roads =
    let rng = W.Rng.create 55L in
    let net = W.Roads.generate rng ~n_roads ~bridges_per_road:4 () in
    let spec = Spec.create () in
    Meta.install_standard spec;
    W.Roads.add_to_spec net spec ();
    W.Roads.add_status_rules spec ();
    Query.create spec
  in
  row "  %8s %22s %22s %8s\n" "roads" "composite_index_ms" "model_keyed_ms" "speedup";
  List.iter
    (fun n_roads ->
      let q = make_compiled n_roads in
      let run () =
        List.length (Query.solutions q (Gfact.make "open_road" ~objects:[ v "R" ]))
      in
      let composite_ms, n1 = time_ms run in
      (* degrade to the naive encoding: key on the model atom (argument 0),
         which is identical for every fact *)
      Gdp_logic.Database.set_index_args (Query.db q) ("holds", 6) [ 0 ];
      let naive_ms, n2 = time_ms run in
      row "  %8d %22.2f %22.2f %7.1fx %s\n" n_roads composite_ms naive_ms
        (naive_ms /. Float.max 0.01 composite_ms)
        (if n1 = n2 then "" else "(DISAGREE)"))
    [ 40; 160 ];

  section "ablation 2 — ancestor loop check overhead";
  let spec = Spec.create () in
  Meta.install_standard spec;
  Spec.declare_space spec (Gdp_space.Resolution.uniform ~name:"r1" 4.0);
  Spec.declare_space spec (Gdp_space.Resolution.uniform ~name:"r2" 1.0);
  Spec.declare_object spec "land";
  for i = 0 to 15 do
    for j = 0 to 15 do
      Spec.add_fact spec
        (Gfact.make "wet" ~objects:[ a "land" ]
           ~space:
             (Gfact.S_uniform
                ( a "r2",
                  Gfact.pos_term
                    (Gdp_space.Point.make
                       (float_of_int i +. 0.5)
                       (float_of_int j +. 0.5)) )))
    done
  done;
  let probe q =
    Query.holds q
      (Gfact.make "wet" ~objects:[ a "land" ]
         ~space:(Gfact.S_uniform (a "r1", Gfact.pos_term (Gdp_space.Point.make 2.0 2.0))))
  in
  let q_down = Query.create spec ~meta_view:[ "spatial_uniform" ] in
  let q_updown = Query.create spec ~meta_view:[ "spatial_uniform"; "spatial_uniform_up" ] in
  let down_ms, _ = time_ms (fun () -> for _ = 1 to 50 do ignore (probe q_down) done) in
  let updown_ms, _ = time_ms (fun () -> for _ = 1 to 50 do ignore (probe q_updown) done) in
  row "  %-42s %10.2f ms / 50 queries\n" "down rules only (no loop check needed)" down_ms;
  row "  %-42s %10.2f ms / 50 queries\n" "up+down rules (ancestor check active)" updown_ms;

  section "ablation 3 — fuzzy connective family (§VII-A)";
  row "  same depth-8 rule chain under each family:\n";
  List.iter
    (fun family ->
      let rng = W.Rng.create 77L in
      let spec = Spec.create () in
      Meta.install_standard spec;
      spec.Spec.fuzzy_family <- family;
      Spec.declare_object spec "x";
      let accs = List.init 8 (fun _ -> 0.8 +. W.Rng.float rng 0.2) in
      List.iteri
        (fun i acc ->
          let base = Printf.sprintf "base_%d" i in
          Spec.add_fact spec (Gfact.make base ~objects:[ a "x" ]);
          Spec.add_acc_statement spec (Gfact.make base ~objects:[ a "x" ]) acc)
        accs;
      let xv = v "X" in
      for i = 7 downto 0 do
        let body =
          if i = 7 then
            Formula.Atom (Gfact.make (Printf.sprintf "base_%d" i) ~objects:[ xv ])
          else
            Formula.And
              ( Formula.Atom (Gfact.make (Printf.sprintf "base_%d" i) ~objects:[ xv ]),
                Formula.Atom
                  (Gfact.make (Printf.sprintf "level_%d" (i + 1)) ~objects:[ xv ]) )
        in
        Spec.add_rule spec
          ~name:(Printf.sprintf "level_%d" i)
          ~head:(Gfact.make (Printf.sprintf "level_%d" i) ~objects:[ xv ])
          body
      done;
      let q =
        Query.create spec ~meta_view:[ "fuzzy_unified_max"; "fuzzy_propagation" ]
      in
      match Query.accuracy q (Gfact.make "level_0" ~objects:[ a "x" ]) with
      | Some acc ->
          row "  %-14s derived accuracy %0.4f (min input %0.4f)\n"
            (Format.asprintf "%a" Gdp_fuzzy.Algebra.pp_family family)
            acc
            (List.fold_left Float.min 1.0 accs)
      | None -> row "  %-14s FAILED\n" (Format.asprintf "%a" Gdp_fuzzy.Algebra.pp_family family))
    [ Gdp_fuzzy.Algebra.Min_max; Gdp_fuzzy.Algebra.Product; Gdp_fuzzy.Algebra.Lukasiewicz ]

(* -------------------------------------------------- micro-benchmarks *)

let micro () =
  let open Bechamel in
  section "engine micro-benchmarks (Bechamel, monotonic clock)";
  (* fixtures *)
  let db = Gdp_logic.Engine.create () in
  Gdp_logic.Engine.consult db
    {|
    edge(a, b). edge(b, c). edge(c, d). edge(d, e). edge(e, f).
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
    |};
  let big_db = Gdp_logic.Engine.create () in
  for i = 0 to 999 do
    Gdp_logic.Database.fact big_db
      (T.app "item" [ T.atom (Printf.sprintf "k%d" i); T.int i ])
  done;
  let t1 = Gdp_logic.Reader.term "f(g(X, h(Y)), [1, 2, 3 | T], Z)" in
  let t2 = Gdp_logic.Reader.term "f(g(a, h(b)), [1, 2, 3, 4], w(9))" in
  let roads =
    let rng = W.Rng.create 100L in
    let net = W.Roads.generate rng ~n_roads:50 ~bridges_per_road:4 () in
    let spec = Spec.create () in
    Meta.install_standard spec;
    W.Roads.add_to_spec net spec ();
    W.Roads.add_status_rules spec ();
    Query.create spec
  in
  let spatial_q =
    let spec = Spec.create () in
    Meta.install_standard spec;
    Spec.declare_space spec (Gdp_space.Resolution.uniform ~name:"r4" 4.0);
    Spec.declare_space spec (Gdp_space.Resolution.uniform ~name:"r1" 1.0);
    Spec.declare_object spec "land";
    Spec.add_fact spec
      (Gfact.make "zone" ~objects:[ a "land" ]
         ~space:(Gfact.S_uniform (a "r4", Gfact.pos_term (Gdp_space.Point.make 2.0 2.0))));
    Query.create spec ~meta_view:[ "spatial_uniform" ]
  in
  let probe_point =
    Gfact.make "zone" ~objects:[ a "land" ]
      ~space:(Gfact.S_at (Gfact.pos_term (Gdp_space.Point.make 1.3 2.7)))
  in
  let tests =
    [
      Test.make ~name:"unify/deep-term" (Staged.stage (fun () ->
          Gdp_logic.Unify.unify Gdp_logic.Subst.empty t1 t2));
      Test.make ~name:"solve/fact-lookup-indexed" (Staged.stage (fun () ->
          Gdp_logic.Engine.ask big_db "item(k500, V)"));
      Test.make ~name:"solve/recursive-path" (Staged.stage (fun () ->
          Gdp_logic.Engine.ask db "path(a, f)"));
      Test.make ~name:"solve/naf" (Staged.stage (fun () ->
          Gdp_logic.Engine.ask db "\\+ path(f, a)"));
      Test.make ~name:"solve/findall-1000" (Staged.stage (fun () ->
          Gdp_logic.Engine.ask big_db "findall(K, item(K, _), L), length(L, 1000)"));
      Test.make ~name:"gdp/open-road-forall" (Staged.stage (fun () ->
          Query.solutions roads (Gfact.make "open_road" ~objects:[ v "R" ])));
      Test.make ~name:"gdp/spatial-uniform-derive" (Staged.stage (fun () ->
          Query.holds spatial_q probe_point));
      Test.make ~name:"reader/parse-clause" (Staged.stage (fun () ->
          Gdp_logic.Reader.clause "p(X, f(Y)) :- q(X), r(Y, [1, 2, 3])."));
    ]
  in
  let test = Test.make_grouped ~name:"gdprs" tests in
  let benchmark () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
    in
    let raw = Benchmark.all cfg instances test in
    let results =
      List.map (fun instance -> Analyze.all ols instance raw) instances
    in
    Analyze.merge ols instances results
  in
  let results = benchmark () in
  row "  %-32s %16s\n" "benchmark" "ns/run";
  Hashtbl.iter
    (fun _measure tbl ->
      let rows =
        Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) tbl []
        |> List.sort (fun (x, _) (y, _) -> String.compare x y)
      in
      List.iter
        (fun (name, ols) ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> row "  %-32s %16.0f\n" name est
          | Some ests when ests <> [] ->
              row "  %-32s %16.0f\n" name (List.hd ests)
          | _ -> row "  %-32s %16s\n" name "-")
        rows)
    results

(* --------------------------------------- engine-bu: fixpoint strategies *)

(* Workload builders shared by the console `engine-bu` series and the
   machine-readable `json` mode. *)

let bu_roads_db n =
  let open Gdp_logic in
  let db = Engine.create () in
  let rng = W.Rng.create 7L in
  let node i = a (Printf.sprintf "n%d" i) in
  for i = 0 to n - 1 do
    (* a backbone chain plus random shortcuts: long derivation paths *)
    if i < n - 1 then Database.fact db (T.app "link" [ node i; node (i + 1) ]);
    Database.fact db
      (T.app "link" [ node (W.Rng.int rng n); node (W.Rng.int rng n) ])
  done;
  Engine.consult db
    {|
    reach(X, Y) :- link(X, Y).
    reach(X, Y) :- link(X, Z), reach(Z, Y).
    |};
  db

let bu_census_db n =
  let open Gdp_logic in
  let db = Engine.create () in
  for s = 0 to n - 1 do
    Database.fact db (T.app "state" [ a (Printf.sprintf "s%d" s) ]);
    for c = 0 to 3 do
      Database.fact db
        (T.app "in_state"
           [ a (Printf.sprintf "c%d_%d" s c); a (Printf.sprintf "s%d" s) ])
    done;
    if s mod 3 <> 0 then
      Database.fact db (T.app "capital" [ a (Printf.sprintf "c%d_0" s) ])
  done;
  Engine.consult db
    {|
    state_with_capital(S) :- capital(C), in_state(C, S).
    state_without_capital(S) :- state(S), \+ state_with_capital(S).
    |};
  db

let bu_terrain_db n =
  let open Gdp_logic in
  let db = Engine.create () in
  let rng = W.Rng.create 11L in
  let name i j = a (Printf.sprintf "t%d_%d" i j) in
  let elev = Array.init n (fun _ -> Array.init n (fun _ -> W.Rng.int rng 1000)) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Database.fact db (T.app "elev" [ name i j; T.int elev.(i).(j) ]);
      List.iter
        (fun (di, dj) ->
          let i' = i + di and j' = j + dj in
          if i' >= 0 && i' < n && j' >= 0 && j' < n then
            Database.fact db (T.app "adj" [ name i j; name i' j' ]))
        [ (0, 1); (1, 0); (0, -1); (-1, 0) ]
    done
  done;
  Engine.consult db
    {|
    downhill(A, B) :- adj(A, B), elev(A, Ea), elev(B, Eb), Eb < Ea.
    flows(A, B) :- downhill(A, B).
    flows(A, B) :- downhill(A, C), flows(C, B).
    |};
  db

type bu_workload = {
  bu_name : string;
  bu_title : string;
  bu_db : int -> Gdp_logic.Database.t;
  bu_goal : Gdp_logic.Term.t;
  bu_console_sizes : int list;  (* naive + scan + indexed + top-down probes *)
  bu_json_sizes : int list;  (* scan + indexed only: scales past naive *)
  bu_json_small : int list;  (* CI smoke scales *)
  bu_script : int -> Gdp_logic.Bottom_up.update list;
      (* engine-incr update script at a given scale *)
  bu_point : int -> Gdp_logic.Term.t;
      (* point goal for the engine-magic series, per scale. For the
         right-recursive reach closure, binding the SECOND argument keeps
         the magic set at the query constant (binding the first would
         propagate magic facts across every reachable node); the target
         is the backbone's last node so the top-down leg can also prove
         each answer by marching forward instead of exhausting the
         forward cone. The terrain goal binds the FIRST argument: its
         magic set is the downhill cone of one cell, the classic
         "descendants of a node" restriction. *)
  bu_point_doc : string;
      (* display form of the point goal (Term.to_string would leak fresh
         variable ids into the JSON) *)
}

(* Per-workload update scripts for the engine-incr series: mostly fresh
   facts asserted and then retracted again (net-neutral round trips that
   exercise both the insertion deltas and DRed), plus retract/re-assert
   round trips on seeded base facts so deletion runs against real
   derivation chains — and, for census, capital flips that force the
   negation stratum to recompute. *)
let incr_script_roads n =
  let node i = a (Printf.sprintf "n%d" i) in
  let rng = W.Rng.create 21L in
  (* growth only: fresh shortcuts accumulating into the closure. A
     deletion on a dense reachability closure is DRed's worst case — the
     fact's whole derivation cone is over-deleted and then rederived
     from the surviving alternate paths — so the deletion story is
     measured on the census and terrain scripts, where the cones are
     bounded, and roads measures the monotone live-growth case. *)
  List.init 24 (fun _ ->
      `Assert (T.app "link" [ node (W.Rng.int rng n); node (W.Rng.int rng n) ]))

let incr_script_census n =
  List.concat
    (List.init 5 (fun k ->
         let s = 3 * k mod n in
         let f = T.app "capital" [ a (Printf.sprintf "c%d_1" s) ] in
         [ `Assert f; `Retract f ]))

let incr_script_terrain n =
  let name i j = a (Printf.sprintf "t%d_%d" i j) in
  let rng = W.Rng.create 22L in
  List.concat
    (List.init 8 (fun _ ->
         let f =
           T.app "adj"
             [
               name (W.Rng.int rng n) (W.Rng.int rng n);
               name (W.Rng.int rng n) (W.Rng.int rng n);
             ]
         in
         [ `Assert f; `Retract f ]))

let bu_workloads =
  [
    {
      bu_name = "roads-reach";
      bu_title = "engine-bu roads — reach = transitive closure of link";
      bu_db = bu_roads_db;
      bu_goal = T.app "reach" [ v "X"; v "Y" ];
      bu_console_sizes = [ 16; 32; 64 ];
      bu_json_sizes = [ 40; 160; 640 ];
      bu_json_small = [ 16; 64 ];
      bu_script = incr_script_roads;
      bu_point =
        (fun n -> T.app "reach" [ v "X"; a (Printf.sprintf "n%d" (n - 1)) ]);
      bu_point_doc = "reach(X, n<scale-1>)";
    };
    {
      bu_name = "census-negation";
      bu_title = "engine-bu census — negation as failure over a lower stratum";
      bu_db = bu_census_db;
      bu_goal = T.app "state_without_capital" [ v "S" ];
      bu_console_sizes = [ 100; 200; 400 ];
      bu_json_sizes = [ 400; 1600; 3200 ];
      bu_json_small = [ 100; 400 ];
      bu_script = incr_script_census;
      bu_point = (fun _ -> T.app "state_without_capital" [ a "s0" ]);
      bu_point_doc = "state_without_capital(s0)";
    };
    {
      bu_name = "terrain-flows";
      bu_title = "engine-bu terrain — downhill flow closure with < guards";
      bu_db = bu_terrain_db;
      bu_goal = T.app "flows" [ v "A"; v "B" ];
      bu_console_sizes = [ 4; 6; 8 ];
      bu_json_sizes = [ 6; 10; 14 ];
      bu_json_small = [ 4; 8 ];
      bu_script = incr_script_terrain;
      bu_point =
        (fun n ->
          T.app "flows" [ a (Printf.sprintf "t%d_%d" (n / 2) (n / 2)); v "B" ]);
      bu_point_doc = "flows(t<scale/2>_<scale/2>, B)";
    };
  ]

(* One scan-vs-indexed measurement: the semi-naive evaluator with joins
   forced to full-relation scans in textual order (the PR 1 baseline,
   minus its O(log n) set overhead) against the index-driven planner. *)
type bu_row = {
  br_scale : int;
  br_facts : int;
  br_passes : int;
  br_scan_ms : float;
  br_scan_firings : int;
  br_indexed_ms : float;
  br_indexed_firings : int;
  br_agree : bool;
  br_stats : Gdp_logic.Bottom_up.stats;  (** of the indexed run *)
}

let bu_measure db scale =
  let open Gdp_logic in
  let scan_ms, scan_fp =
    time_ms (fun () -> Bottom_up.run ~indexing:false db)
  in
  let idx_ms, idx_fp = time_ms (fun () -> Bottom_up.run db) in
  {
    br_scale = scale;
    br_facts = Bottom_up.count idx_fp;
    br_passes = Bottom_up.iterations idx_fp;
    br_scan_ms = scan_ms;
    br_scan_firings = Bottom_up.rule_firings scan_fp;
    br_indexed_ms = idx_ms;
    br_indexed_firings = Bottom_up.rule_firings idx_fp;
    br_agree =
      Bottom_up.count scan_fp = Bottom_up.count idx_fp
      && List.equal Term.equal (Bottom_up.facts scan_fp)
           (Bottom_up.facts idx_fp);
    br_stats = Bottom_up.stats idx_fp;
  }

let bu_speedup r = r.br_scan_ms /. Float.max 0.01 r.br_indexed_ms

(* naive vs scan vs indexed bottom-up vs top-down SLDNF on recursive /
   negation / guarded workloads at growing scale — the quantification of
   the "Prolog's computational inefficiency" the paper only mentions.
   The top-down column proves a sample of the derived atoms (up to 100)
   with the ancestor loop check on; "agree" additionally checks all
   fixpoint configurations derive identical fact sets. *)
let engine_bu () =
  let open Gdp_logic in
  let topdown_options = { Solve.default_options with Solve.loop_check = true } in
  let probe db facts =
    let n = List.length facts in
    let step = max 1 (n / 100) in
    let sample = List.filteri (fun i _ -> i mod step = 0) facts in
    let ms, ok =
      time_ms (fun () ->
          List.for_all
            (fun f -> Solve.succeeds ~options:topdown_options db [ f ])
            sample)
    in
    (ms, List.length sample, ok)
  in
  List.iter
    (fun w ->
      section w.bu_title;
      row "  %8s %10s %10s %8s %10s %8s %8s %14s  %s\n" "scale" "naive_ms"
        "scan_ms" "s_fire" "idx_ms" "i_fire" "speedup" "topdown_ms" "agree";
      List.iter
        (fun scale ->
          let db = w.bu_db scale in
          let naive_ms, naive_fp =
            time_ms (fun () -> Bottom_up.run ~strategy:Bottom_up.Naive db)
          in
          let r = bu_measure db scale in
          let idx_fp = Bottom_up.run db in
          let derived = Bottom_up.facts_matching idx_fp w.bu_goal in
          let td_ms, n_probes, td_ok = probe db derived in
          let agree =
            r.br_agree && Bottom_up.count naive_fp = r.br_facts && td_ok
          in
          row "  %8d %10.1f %10.1f %8d %10.1f %8d %7.1fx %10.1f/%-3d  %s\n"
            scale naive_ms r.br_scan_ms r.br_scan_firings r.br_indexed_ms
            r.br_indexed_firings (bu_speedup r) td_ms n_probes
            (if agree then "yes" else "DISAGREE"))
        w.bu_console_sizes)
    bu_workloads

(* ------------------------------------- engine-incr: view maintenance *)

(* One incremental-vs-recompute measurement: the same update script is
   applied one fact at a time to a live fixpoint (Bottom_up.apply:
   semi-naive deltas + DRed) and, against a second identically seeded
   database, by mutating the base and re-running the whole fixpoint from
   scratch after every step — the cost a system without view maintenance
   pays. The two must end on identical fact sets. *)
type incr_row = {
  ir_scale : int;
  ir_facts : int;  (* facts in the maintained store after the script *)
  ir_updates : int;
  ir_incr_ms : float;
  ir_recompute_ms : float;
  ir_agree : bool;
  ir_stats : Gdp_logic.Bottom_up.incr_stats;
}

let incr_measure w scale =
  let open Gdp_logic in
  let script = w.bu_script scale in
  let live = w.bu_db scale in
  let mirror = w.bu_db scale in
  (* same seed, identical base *)
  let fp = Bottom_up.run live in
  let incr_ms, () =
    time_ms (fun () -> List.iter (fun u -> Bottom_up.apply fp [ u ]) script)
  in
  let apply_mirror u =
    match u with
    | `Assert t ->
        if not (Database.has_fact mirror t) then Database.fact mirror t
    | `Retract t ->
        (* the workload builders may seed duplicate unit clauses; drop
           them all so the clause store matches the fixpoint's set view *)
        while Database.retract_fact mirror t do
          ()
        done
  in
  let recompute_ms, last_fp =
    time_ms (fun () ->
        List.fold_left
          (fun _ u ->
            apply_mirror u;
            Some (Bottom_up.run mirror))
          None script)
  in
  let agree =
    match last_fp with
    | Some fresh ->
        List.equal Term.equal (Bottom_up.facts fp) (Bottom_up.facts fresh)
    | None -> true
  in
  {
    ir_scale = scale;
    ir_facts = Bottom_up.count fp;
    ir_updates = List.length script;
    ir_incr_ms = incr_ms;
    ir_recompute_ms = recompute_ms;
    ir_agree = agree;
    ir_stats = Bottom_up.incr_stats fp;
  }

let incr_speedup r = r.ir_recompute_ms /. Float.max 0.001 r.ir_incr_ms

let engine_incr () =
  List.iter
    (fun w ->
      section
        (Printf.sprintf "engine-incr %s — incremental maintenance vs recompute"
           w.bu_name);
      row "  %8s %8s %8s %10s %14s %8s  %s\n" "scale" "facts" "updates"
        "incr_ms" "recompute_ms" "speedup" "agree";
      List.iter
        (fun scale ->
          let r = incr_measure w scale in
          row "  %8d %8d %8d %10.2f %14.2f %7.1fx  %s\n" r.ir_scale r.ir_facts
            r.ir_updates r.ir_incr_ms r.ir_recompute_ms (incr_speedup r)
            (if r.ir_agree then "yes" else "DISAGREE"))
        w.bu_console_sizes)
    bu_workloads

(* ---------------------------------- engine-magic: goal-directed eval *)

(* One magic-vs-full-vs-top-down measurement on a point goal. "Derived"
   counts are IDB tuples of the *original* program only, so the magic
   column pays for its magic$ guard tuples separately (mr_magic_aux) and
   the goal-direction claim is not flattered by copied base facts. The
   top-down column proves every answer of the full fixpoint with the
   ancestor loop check on, as in engine-bu. *)
type magic_row = {
  mr_scale : int;
  mr_full_ms : float;
  mr_full_derived : int;
  mr_magic_ms : float;  (* rewrite + seeded fixpoint, together *)
  mr_magic_derived : int;
  mr_magic_aux : int;  (* magic$ guard tuples, seeds included *)
  mr_topdown_ms : float;
  mr_topdown_probes : int;  (* sampled answers re-proved by SLD *)
  mr_answers : int;
  mr_agree : bool;
  mr_fallback_strata : int;
  mr_full_fallback : bool;
}

let idb_preds db =
  let open Gdp_logic in
  Database.predicates db
  |> List.filter (fun key ->
         List.exists
           (fun (c : Database.clause) -> c.Database.body <> [])
           (Database.all_clauses db key))
  |> List.map fst

let count_facts pred_names fp =
  Gdp_logic.Bottom_up.facts fp
  |> List.filter (fun t ->
         match Gdp_logic.Term.functor_of t with
         | Some (name, _) -> List.mem name pred_names
         | None -> false)
  |> List.length

let magic_measure w scale =
  let open Gdp_logic in
  let db = w.bu_db scale in
  let idb = idb_preds db in
  let goal = w.bu_point scale in
  let full_ms, full_fp = time_ms (fun () -> Bottom_up.run db) in
  let magic_ms, (magic_fp, info) =
    time_ms (fun () ->
        let rewritten, info = Magic.rewrite ~goal db in
        (Bottom_up.run ~seed:info.Magic.seeds rewritten, info))
  in
  let answers fp =
    (* probe narrows to the goal's bucket; it does not unify — filter *)
    Bottom_up.probe fp goal
    |> List.filter (fun fact -> Unify.unify Subst.empty goal fact <> None)
    |> List.sort Term.compare
  in
  let full_answers = answers full_fp in
  let magic_answers = answers magic_fp in
  let full_derived = count_facts idb full_fp in
  let topdown_options = { Solve.default_options with Solve.loop_check = true } in
  (* The magic-vs-full comparison is exact over every answer; the SLD leg
     is a deterministic sample — each ground probe costs O(path) clause
     expansions with an O(depth) ancestor scan apiece.  On the dense cyclic
     closures (the road grids grow random shortcut links that point either
     way) SLDNF enumerates simple paths, so past ~50k derived tuples even a
     handful of probes dwarfs both fixpoints — that blow-up is the point of
     the magic experiment, not a useful control, so the leg only runs where
     top-down search is feasible and reports how many probes it took. *)
  let td_targets =
    if full_derived > 50_000 then []
    else
      let n = List.length full_answers in
      let k = 24 in
      if n <= k then full_answers
      else
        let stride = n / k in
        List.filteri (fun i _ -> i mod stride = 0 || i = n - 1) full_answers
  in
  let td_ms, td_ok =
    time_ms (fun () ->
        List.for_all
          (fun f -> Solve.succeeds ~options:topdown_options db [ f ])
          td_targets)
  in
  let magic_aux =
    Bottom_up.facts magic_fp
    |> List.filter (fun t ->
           match Term.functor_of t with
           | Some (name, _) ->
               String.length name >= 6 && String.equal (String.sub name 0 6) "magic$"
           | None -> false)
    |> List.length
  in
  {
    mr_scale = scale;
    mr_full_ms = full_ms;
    mr_full_derived = full_derived;
    mr_magic_ms = magic_ms;
    mr_magic_derived = count_facts idb magic_fp;
    mr_magic_aux = magic_aux;
    mr_topdown_ms = td_ms;
    mr_topdown_probes = List.length td_targets;
    mr_answers = List.length full_answers;
    mr_agree = List.equal Term.equal full_answers magic_answers && td_ok;
    mr_fallback_strata = info.Magic.fallback_strata;
    mr_full_fallback = info.Magic.full_fallback;
  }

let magic_ratio r =
  float_of_int r.mr_magic_derived /. float_of_int (max 1 r.mr_full_derived)

let engine_magic () =
  List.iter
    (fun w ->
      section
        (Printf.sprintf "engine-magic %s — goal-directed vs full vs top-down"
           w.bu_name);
      row "  %8s %10s %10s %10s %10s %6s %8s %11s %8s  %s\n" "scale" "full_ms"
        "full_idb" "magic_ms" "magic_idb" "aux" "ratio" "topdown_ms" "answers"
        "agree";
      List.iter
        (fun scale ->
          let r = magic_measure w scale in
          row "  %8d %10.1f %10d %10.1f %10d %6d %7.1f%% %11.1f %8d  %s%s\n"
            r.mr_scale r.mr_full_ms r.mr_full_derived r.mr_magic_ms
            r.mr_magic_derived r.mr_magic_aux
            (100.0 *. magic_ratio r)
            r.mr_topdown_ms r.mr_answers
            (if r.mr_agree then "yes" else "DISAGREE")
            (if r.mr_fallback_strata > 0 then
               Printf.sprintf "  (fallback strata: %d)" r.mr_fallback_strata
             else ""))
        w.bu_console_sizes)
    bu_workloads

(* -------------------------------- engine-par: multicore fixpoint *)

(* One sequential-vs-parallel measurement: the same database evaluated
   by the sequential engine and by the domain-pool engine at each jobs
   value. The derived fact sets must be identical (the merge is
   canonical); the speedup columns are honest wall-clock, so on a
   single-core machine they hover around (or below) 1x — the detected
   core count is printed and recorded so consumers can gate on it. *)
let par_jobs = [ 2; 4 ]

type par_run = {
  pj_jobs : int;
  pj_ms : float;
  pj_units : int;  (* (rule x delta-partition) work units executed *)
}

type par_row = {
  pr_scale : int;
  pr_facts : int;
  pr_seq_ms : float;
  pr_runs : par_run list;
  pr_agree : bool;  (* every parallel fact set equals the sequential one *)
}

let par_measure w scale =
  let open Gdp_logic in
  let db = w.bu_db scale in
  let seq_ms, seq_fp = time_ms (fun () -> Bottom_up.run db) in
  let runs =
    List.map
      (fun jobs ->
        let ms, fp = time_ms (fun () -> Bottom_up.run ~jobs db) in
        (jobs, ms, fp))
      par_jobs
  in
  {
    pr_scale = scale;
    pr_facts = Bottom_up.count seq_fp;
    pr_seq_ms = seq_ms;
    pr_runs =
      List.map
        (fun (jobs, ms, fp) ->
          {
            pj_jobs = jobs;
            pj_ms = ms;
            pj_units = (Bottom_up.stats fp).Bottom_up.bu_par_units;
          })
        runs;
    pr_agree =
      List.for_all
        (fun (_, _, fp) ->
          List.equal Term.equal (Bottom_up.facts seq_fp) (Bottom_up.facts fp))
        runs;
  }

let par_speedup r run = r.pr_seq_ms /. Float.max 0.01 run.pj_ms

let engine_par () =
  let cores = Gdp_logic.Pool.auto_jobs () in
  List.iter
    (fun w ->
      section
        (Printf.sprintf
           "engine-par %s — parallel semi-naive fixpoint (%d core%s detected)"
           w.bu_name cores
           (if cores = 1 then "" else "s"));
      row "  %8s %8s %10s" "scale" "facts" "seq_ms";
      List.iter
        (fun jobs -> row " %9s %8s" (Printf.sprintf "j%d_ms" jobs) "speedup")
        par_jobs;
      row " %8s  %s\n" "units" "agree";
      List.iter
        (fun scale ->
          let r = par_measure w scale in
          row "  %8d %8d %10.1f" r.pr_scale r.pr_facts r.pr_seq_ms;
          List.iter
            (fun run -> row " %9.1f %7.2fx" run.pj_ms (par_speedup r run))
            r.pr_runs;
          let units =
            match r.pr_runs with run :: _ -> run.pj_units | [] -> 0
          in
          row " %8d  %s\n" units (if r.pr_agree then "yes" else "DISAGREE"))
        w.bu_console_sizes)
    bu_workloads

(* --------------------------- engine-spatial: R-tree / grid joins *)

(* Spatial self-join workloads: point-carrying EDB facts joined under a
   region_mem or bounded pt_dist guard — exactly the joins the spatial
   planner compiles to index probes. Each database is evaluated three
   ways: the scan baseline (~spatial_indexing:false, every annotated
   join through the hash/scan path), uniform-grid indexes, and the
   default STR-packed R-trees. All three must derive identical fact
   sets — the probes are pre-filters, the exact guard always re-checks.
   The databases are raw engine bases like the other engine-* series;
   the Spec only carries the region table and coordinate system the
   spatial hooks read. *)

let sp_spec ~regions =
  let spec = Spec.create () in
  List.iter (fun (name, r) -> Spec.declare_region spec name r) regions;
  spec

let sp_pos x y = Gfact.pos_term (Gdp_space.Point.make x y)

(* n sites scattered over [0,100)²; near/2 is the classic bounded
   self-join, quadratic under the scan baseline *)
let sp_roads_db n =
  let open Gdp_logic in
  let db = Engine.create () in
  let rng = W.Rng.create 31L in
  for i = 0 to n - 1 do
    let x = float_of_int (W.Rng.int rng 1000) /. 10.0
    and y = float_of_int (W.Rng.int rng 1000) /. 10.0 in
    Database.fact db (T.app "site" [ a (Printf.sprintf "s%d" i); sp_pos x y ])
  done;
  Engine.consult db
    {|
    near(A, B) :- site(A, P), site(B, Q), pt_dist(P, Q, D), D < 3.
    |};
  db

(* n×n cell centres over the same [0,100)² window, so the basin circle
   stays fixed while the point density grows with the scale *)
let sp_terrain_db n =
  let open Gdp_logic in
  let db = Engine.create () in
  let step = 100.0 /. float_of_int n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let x = (float_of_int i +. 0.5) *. step
      and y = (float_of_int j +. 0.5) *. step in
      Database.fact db (T.app "cell" [ a (Printf.sprintf "c%d_%d" i j); sp_pos x y ])
    done
  done;
  Engine.consult db
    {|
    in_basin(C) :- cell(C, P), region_mem(basin, P).
    soggy(A, B) :- cell(A, P), region_mem(basin, P), cell(B, Q), pt_dist(P, Q, D), D < 2.
    |};
  db

(* n gauges along eight meandering south-to-north rivers: clustered
   points (the realistic skew for an R-tree), linked when close *)
let sp_hydro_db n =
  let open Gdp_logic in
  let db = Engine.create () in
  let rng = W.Rng.create 41L in
  let rivers = 8 in
  let per = max 1 (n / rivers) in
  for r = 0 to rivers - 1 do
    let x = ref (float_of_int (W.Rng.int rng 1000) /. 10.0) in
    for k = 0 to per - 1 do
      x :=
        Float.min 99.9
          (Float.max 0.0
             (!x +. (float_of_int (W.Rng.int rng 30 - 15) /. 10.0)));
      let y = (float_of_int k +. 0.5) *. (100.0 /. float_of_int per) in
      Database.fact db
        (T.app "gauge" [ a (Printf.sprintf "g%d_%d" r k); sp_pos !x y ])
    done
  done;
  Engine.consult db
    {|
    linked(A, B) :- gauge(A, P), gauge(B, Q), pt_dist(P, Q, D), D < 4.
    flood_risk(A) :- gauge(A, P), region_mem(floodplain, P).
    |};
  db

type sp_workload = {
  sp_name : string;
  sp_title : string;
  sp_db : int -> Gdp_logic.Database.t;
  sp_hints : Spec.t;  (* carries the regions the guards name *)
  sp_cell : float;  (* uniform-grid cell size for the grid leg *)
  sp_console_sizes : int list;
  sp_json_sizes : int list;
  sp_json_small : int list;
}

let sp_workloads =
  [
    {
      sp_name = "roads-near";
      sp_title = "engine-spatial roads — bounded pt_dist self-join over sites";
      sp_db = sp_roads_db;
      sp_hints = sp_spec ~regions:[];
      sp_cell = 3.0;
      sp_console_sizes = [ 160; 320; 640 ];
      sp_json_sizes = [ 320; 640; 1280 ];
      sp_json_small = [ 160; 640 ];
    };
    {
      sp_name = "terrain-basin";
      sp_title =
        "engine-spatial terrain — region_mem filter + bounded pt_dist join";
      sp_db = sp_terrain_db;
      sp_hints =
        sp_spec
          ~regions:
            [
              ( "basin",
                Gdp_space.Region.circle
                  ~center:(Gdp_space.Point.make 50.0 50.0)
                  ~radius:20.0 );
            ];
      sp_cell = 2.0;
      sp_console_sizes = [ 16; 24; 32 ];
      sp_json_sizes = [ 24; 32; 48 ];
      sp_json_small = [ 16; 32 ];
    };
    {
      sp_name = "hydro-gauges";
      sp_title =
        "engine-spatial hydro — clustered gauges, pt_dist links + floodplain";
      sp_db = sp_hydro_db;
      sp_hints =
        sp_spec
          ~regions:
            [
              ( "floodplain",
                Gdp_space.Region.rect ~min_x:30.0 ~min_y:0.0 ~max_x:70.0
                  ~max_y:100.0 );
            ];
      sp_cell = 4.0;
      sp_console_sizes = [ 200; 400; 800 ];
      sp_json_sizes = [ 400; 800; 1600 ];
      sp_json_small = [ 200; 800 ];
    };
  ]

type sp_row = {
  xr_scale : int;
  xr_facts : int;
  xr_scan_ms : float;
  xr_grid_ms : float;
  xr_rtree_ms : float;
  xr_probes : int;  (* of the R-tree run *)
  xr_fallbacks : int;  (* spatial scans of the baseline run *)
  xr_agree : bool;
}

let sp_measure w scale =
  let open Gdp_logic in
  let db = w.sp_db scale in
  let rtree = Compile.spatial_hints w.sp_hints in
  let grid = Compile.spatial_hints ~grid_cell:w.sp_cell w.sp_hints in
  let scan_ms, scan_fp =
    time_ms (fun () -> Bottom_up.run ~spatial:rtree ~spatial_indexing:false db)
  in
  let grid_ms, grid_fp = time_ms (fun () -> Bottom_up.run ~spatial:grid db) in
  let rtree_ms, rtree_fp = time_ms (fun () -> Bottom_up.run ~spatial:rtree db) in
  let same a b = List.equal Term.equal (Bottom_up.facts a) (Bottom_up.facts b) in
  {
    xr_scale = scale;
    xr_facts = Bottom_up.count rtree_fp;
    xr_scan_ms = scan_ms;
    xr_grid_ms = grid_ms;
    xr_rtree_ms = rtree_ms;
    xr_probes = (Bottom_up.stats rtree_fp).Bottom_up.bu_spatial_probes;
    xr_fallbacks = (Bottom_up.stats scan_fp).Bottom_up.bu_spatial_scans;
    xr_agree = same scan_fp rtree_fp && same scan_fp grid_fp;
  }

let sp_speedup r = r.xr_scan_ms /. Float.max 0.01 r.xr_rtree_ms

let engine_spatial () =
  List.iter
    (fun w ->
      section w.sp_title;
      row "  %8s %8s %10s %10s %10s %8s %8s %9s  %s\n" "scale" "facts"
        "scan_ms" "grid_ms" "rtree_ms" "speedup" "probes" "fallbacks" "agree";
      List.iter
        (fun scale ->
          let r = sp_measure w scale in
          row "  %8d %8d %10.1f %10.1f %10.1f %7.1fx %8d %9d  %s\n" r.xr_scale
            r.xr_facts r.xr_scan_ms r.xr_grid_ms r.xr_rtree_ms (sp_speedup r)
            r.xr_probes r.xr_fallbacks
            (if r.xr_agree then "yes" else "DISAGREE"))
        w.sp_console_sizes)
    sp_workloads

(* ------------------------------------ engine-snap: persistent snapshots *)

(* One cold-vs-warm measurement: the full semi-naive materialisation of a
   workload's base (what every CLI invocation paid before snapshots)
   against Snapshot.load + Bottom_up.import of the same model persisted
   to disk — deserialise, re-intern, re-index, fire no rules. "agree"
   asserts the loaded fixpoint is indistinguishable: identical fact sets
   and restored pass counts. *)
type snap_row = {
  zr_scale : int;
  zr_facts : int;
  zr_bytes : int;
  zr_cold_ms : float;
  zr_save_ms : float;
  zr_warm_ms : float;
  zr_agree : bool;
}

(* Dense closure: the snapshot showcase. A random digraph with mean
   out-degree ~9 saturates its reachability closure, so semi-naive pays
   many redundant firings per retained fact — exactly the regime where
   materialisation is expensive relative to the model it produces and a
   persisted snapshot pays off most. The three shared workloads bound
   the other end: when deriving a fact costs about as much as
   re-interning it on load, caching roughly breaks even. *)
let snap_dense_db n =
  let open Gdp_logic in
  let db = Engine.create () in
  let rng = W.Rng.create 17L in
  let node i = a (Printf.sprintf "d%d" i) in
  for i = 0 to n - 1 do
    if i < n - 1 then Database.fact db (T.app "link" [ node i; node (i + 1) ]);
    for _ = 1 to 8 do
      Database.fact db
        (T.app "link" [ node (W.Rng.int rng n); node (W.Rng.int rng n) ])
    done
  done;
  Engine.consult db
    {|
    reach(X, Y) :- link(X, Y).
    reach(X, Y) :- link(X, Z), reach(Z, Y).
    |};
  db

let snap_workloads =
  bu_workloads
  @ [
      {
        bu_name = "roads-dense";
        bu_title = "engine-snap dense roads — saturated reachability closure";
        bu_db = snap_dense_db;
        bu_goal = T.app "reach" [ v "X"; v "Y" ];
        bu_console_sizes = [ 16; 32; 64 ];
        bu_json_sizes = [ 24; 64; 96 ];
        bu_json_small = [ 24; 64 ];
        bu_script = (fun _ -> []);
        bu_point =
          (fun n -> T.app "reach" [ v "X"; a (Printf.sprintf "d%d" (n - 1)) ]);
        bu_point_doc = "reach(X, d<scale-1>)";
      };
    ]

(* Both legs are timed best-of-3: the numbers feed a CI ratio gate, and
   single-shot wall-clock readings on shared runners swing by 2x with
   allocator and machine noise. The cold leg times database construction
   plus materialisation (what every CLI invocation paid before
   snapshots); the warm leg times Snapshot.load + Bottom_up.import
   against a database built outside the clock, since a snapshot consumer
   pays spec compilation on both paths. *)
let snap_reps = 3

let snap_best leg =
  let rec go best i =
    if i = 0 then best
    else
      let ms, x = leg () in
      let best =
        match best with Some (b, _) when b <= ms -> best | _ -> Some (ms, x)
      in
      go best (i - 1)
  in
  match go None snap_reps with Some r -> r | None -> assert false

let snap_measure w scale =
  let open Gdp_logic in
  let cold_ms, cold_fp =
    snap_best (fun () -> time_ms (fun () -> Bottom_up.run (w.bu_db scale)))
  in
  let path = Filename.temp_file "gdprs_snap" ".gdpx" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let save_ms, bytes =
    time_ms (fun () ->
        Snapshot.save ~path
          {
            Snapshot.key = "bench";
            meta = "";
            state = Bottom_up.export cold_fp;
          })
  in
  let warm_ms, warm_fp =
    snap_best (fun () ->
        (* a fresh identically seeded database: the import target a
           second process would compile before loading *)
        let warm_db = w.bu_db scale in
        time_ms (fun () ->
            let snap, _bytes = Snapshot.load ~path () in
            Bottom_up.import warm_db snap.Snapshot.state))
  in
  let sorted fp = List.sort Term.compare (Bottom_up.facts fp) in
  {
    zr_scale = scale;
    zr_facts = Bottom_up.count warm_fp;
    zr_bytes = bytes;
    zr_cold_ms = cold_ms;
    zr_save_ms = save_ms;
    zr_warm_ms = warm_ms;
    zr_agree =
      Bottom_up.count cold_fp = Bottom_up.count warm_fp
      && Bottom_up.iterations cold_fp = Bottom_up.iterations warm_fp
      && List.equal Term.equal (sorted cold_fp) (sorted warm_fp);
  }

let snap_speedup r = r.zr_cold_ms /. Float.max 0.01 r.zr_warm_ms

let engine_snap () =
  List.iter
    (fun w ->
      section
        (Printf.sprintf "engine-snap %s — cold materialise vs snapshot load"
           w.bu_name);
      row "  %8s %8s %10s %10s %10s %10s %8s  %s\n" "scale" "facts" "bytes"
        "cold_ms" "save_ms" "warm_ms" "speedup" "agree";
      List.iter
        (fun scale ->
          let r = snap_measure w scale in
          row "  %8d %8d %10d %10.1f %10.1f %10.1f %7.1fx  %s\n" r.zr_scale
            r.zr_facts r.zr_bytes r.zr_cold_ms r.zr_save_ms r.zr_warm_ms
            (snap_speedup r)
            (if r.zr_agree then "yes" else "DISAGREE"))
        w.bu_console_sizes)
    snap_workloads

(* ------------------------------------------------- json: perf tracking *)

(* `bench/main.exe -- json [small]` re-runs the engine-bu workloads as
   scan-vs-indexed pairs (no naive column, so the scales can grow past
   what quadratic re-firing tolerates) and writes BENCH_engine.json —
   the machine-readable perf trajectory CI archives on every push. *)
let bench_json ?(small = false) () =
  let out = "BENCH_engine.json" in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"schema\": \"gdprs-bench-engine/1\",\n";
  add "  \"bench\": \"engine-bu scan vs indexed (semi-naive fixpoint)\",\n";
  add "  \"mode\": %S,\n" (if small then "small" else "full");
  (* machine context: parallel speedups are only meaningful relative to
     the core count the run actually had *)
  add "  \"cores\": %d,\n" (Gdp_logic.Pool.auto_jobs ());
  add "  \"ocaml_version\": %S,\n" Sys.ocaml_version;
  add "  \"jobs\": [%s],\n"
    (String.concat ", " (List.map string_of_int par_jobs));
  add "  \"series\": [\n";
  let n_workloads = List.length bu_workloads in
  List.iteri
    (fun wi w ->
      let sizes = if small then w.bu_json_small else w.bu_json_sizes in
      section (Printf.sprintf "json %s" w.bu_title);
      row "  %8s %10s %10s %10s %8s  %s\n" "scale" "facts" "scan_ms" "idx_ms"
        "speedup" "agree";
      add "    {\n      \"name\": %S,\n      \"rows\": [\n" w.bu_name;
      let n_sizes = List.length sizes in
      List.iteri
        (fun si scale ->
          let r = bu_measure (w.bu_db scale) scale in
          row "  %8d %10d %10.1f %10.1f %7.1fx  %s\n" r.br_scale r.br_facts
            r.br_scan_ms r.br_indexed_ms (bu_speedup r)
            (if r.br_agree then "yes" else "DISAGREE");
          let s = r.br_stats in
          let stratum_ms =
            s.Gdp_logic.Bottom_up.bu_strata_stats
            |> List.map (fun st ->
                   Printf.sprintf "%.3f" st.Gdp_logic.Bottom_up.st_ms)
            |> String.concat ", "
          in
          add
            "        { \"scale\": %d, \"facts\": %d, \"passes\": %d, \
             \"scan_ms\": %.3f, \"scan_firings\": %d, \"indexed_ms\": %.3f, \
             \"indexed_firings\": %d, \"speedup\": %.2f, \"agree\": %b, \
             \"strata\": %d, \"probes\": %d, \"scans\": %d, \
             \"membership_tests\": %d, \"hcons_hit_rate\": %.4f, \
             \"stratum_ms\": [%s] }%s\n"
            r.br_scale r.br_facts r.br_passes r.br_scan_ms r.br_scan_firings
            r.br_indexed_ms r.br_indexed_firings (bu_speedup r) r.br_agree
            s.Gdp_logic.Bottom_up.bu_strata s.Gdp_logic.Bottom_up.bu_index_probes
            s.Gdp_logic.Bottom_up.bu_full_scans
            s.Gdp_logic.Bottom_up.bu_membership_tests
            (Gdp_logic.Bottom_up.hcons_hit_rate s)
            stratum_ms
            (if si < n_sizes - 1 then "," else ""))
        sizes;
      add "      ]\n    }%s\n" (if wi < n_workloads - 1 then "," else ""))
    bu_workloads;
  add "  ],\n";
  (* the incremental-maintenance trajectory rides in its own top-level
     key so consumers of "series" see the same shape as before *)
  add "  \"incr_series\": [\n";
  List.iteri
    (fun wi w ->
      let sizes = if small then w.bu_json_small else w.bu_json_sizes in
      section (Printf.sprintf "json engine-incr %s" w.bu_name);
      row "  %8s %8s %8s %10s %14s %8s  %s\n" "scale" "facts" "updates"
        "incr_ms" "recompute_ms" "speedup" "agree";
      add "    {\n      \"name\": %S,\n      \"rows\": [\n" w.bu_name;
      let n_sizes = List.length sizes in
      List.iteri
        (fun si scale ->
          let r = incr_measure w scale in
          row "  %8d %8d %8d %10.2f %14.2f %7.1fx  %s\n" r.ir_scale r.ir_facts
            r.ir_updates r.ir_incr_ms r.ir_recompute_ms (incr_speedup r)
            (if r.ir_agree then "yes" else "DISAGREE");
          let i = r.ir_stats in
          add
            "        { \"scale\": %d, \"facts\": %d, \"updates\": %d, \
             \"incremental_ms\": %.3f, \"recompute_ms\": %.3f, \
             \"speedup\": %.2f, \"agree\": %b, \"inserted\": %d, \
             \"deleted\": %d, \"overdeleted\": %d, \"rederived\": %d, \
             \"strata_recomputed\": %d }%s\n"
            r.ir_scale r.ir_facts r.ir_updates r.ir_incr_ms r.ir_recompute_ms
            (incr_speedup r) r.ir_agree i.Gdp_logic.Bottom_up.upd_inserted
            i.Gdp_logic.Bottom_up.upd_deleted
            i.Gdp_logic.Bottom_up.upd_overdeleted
            i.Gdp_logic.Bottom_up.upd_rederived
            i.Gdp_logic.Bottom_up.upd_strata_recomputed
            (if si < n_sizes - 1 then "," else ""))
        sizes;
      add "      ]\n    }%s\n" (if wi < n_workloads - 1 then "," else ""))
    bu_workloads;
  add "  ],\n";
  (* goal-directed evaluation: the magic-set rewrite against the full
     fixpoint and a top-down probe on the same point goal *)
  add "  \"magic_series\": [\n";
  List.iteri
    (fun wi w ->
      let sizes = if small then w.bu_json_small else w.bu_json_sizes in
      section (Printf.sprintf "json engine-magic %s" w.bu_name);
      row "  %8s %10s %10s %10s %10s %6s %8s  %s\n" "scale" "full_ms"
        "full_idb" "magic_ms" "magic_idb" "aux" "ratio" "agree";
      add "    {\n      \"name\": %S,\n      \"goal\": %S,\n      \"rows\": [\n"
        w.bu_name w.bu_point_doc;
      let n_sizes = List.length sizes in
      List.iteri
        (fun si scale ->
          let r = magic_measure w scale in
          row "  %8d %10.1f %10d %10.1f %10d %6d %7.1f%%  %s\n" r.mr_scale
            r.mr_full_ms r.mr_full_derived r.mr_magic_ms r.mr_magic_derived
            r.mr_magic_aux
            (100.0 *. magic_ratio r)
            (if r.mr_agree then "yes" else "DISAGREE");
          add
            "        { \"scale\": %d, \"full_ms\": %.3f, \"full_derived\": \
             %d, \"magic_ms\": %.3f, \"magic_derived\": %d, \"magic_aux\": \
             %d, \"ratio\": %.4f, \"topdown_ms\": %.3f, \"topdown_probes\": \
             %d, \"answers\": %d, \"agree\": %b, \"fallback_strata\": %d, \
             \"full_fallback\": %b }%s\n"
            r.mr_scale r.mr_full_ms r.mr_full_derived r.mr_magic_ms
            r.mr_magic_derived r.mr_magic_aux (magic_ratio r) r.mr_topdown_ms
            r.mr_topdown_probes r.mr_answers r.mr_agree r.mr_fallback_strata
            r.mr_full_fallback
            (if si < n_sizes - 1 then "," else ""))
        sizes;
      add "      ]\n    }%s\n" (if wi < n_workloads - 1 then "," else ""))
    bu_workloads;
  add "  ],\n";
  (* the multicore fixpoint: sequential vs jobs=2/4 on the same base.
     Speedups are honest wall-clock for this machine — gate any
     assertion on the "cores" header field. *)
  add "  \"parallel_series\": [\n";
  List.iteri
    (fun wi w ->
      let sizes = if small then w.bu_json_small else w.bu_json_sizes in
      section (Printf.sprintf "json engine-par %s" w.bu_name);
      row "  %8s %8s %10s" "scale" "facts" "seq_ms";
      List.iter
        (fun jobs -> row " %9s %8s" (Printf.sprintf "j%d_ms" jobs) "speedup")
        par_jobs;
      row "  %s\n" "agree";
      add "    {\n      \"name\": %S,\n      \"rows\": [\n" w.bu_name;
      let n_sizes = List.length sizes in
      List.iteri
        (fun si scale ->
          let r = par_measure w scale in
          row "  %8d %8d %10.1f" r.pr_scale r.pr_facts r.pr_seq_ms;
          List.iter
            (fun run -> row " %9.1f %7.2fx" run.pj_ms (par_speedup r run))
            r.pr_runs;
          row "  %s\n" (if r.pr_agree then "yes" else "DISAGREE");
          let runs_json =
            r.pr_runs
            |> List.map (fun run ->
                   Printf.sprintf
                     "{ \"jobs\": %d, \"ms\": %.3f, \"speedup\": %.3f, \
                      \"units\": %d }"
                     run.pj_jobs run.pj_ms (par_speedup r run) run.pj_units)
            |> String.concat ", "
          in
          add
            "        { \"scale\": %d, \"facts\": %d, \"seq_ms\": %.3f, \
             \"runs\": [%s], \"agree\": %b }%s\n"
            r.pr_scale r.pr_facts r.pr_seq_ms runs_json r.pr_agree
            (if si < n_sizes - 1 then "," else ""))
        sizes;
      add "      ]\n    }%s\n" (if wi < n_workloads - 1 then "," else ""))
    bu_workloads;
  add "  ],\n";
  (* spatial-index joins: the scan baseline vs uniform-grid vs R-tree on
     the same base; "agree" asserts all three derive identical models *)
  add "  \"spatial_series\": [\n";
  let n_sp = List.length sp_workloads in
  List.iteri
    (fun wi w ->
      let sizes = if small then w.sp_json_small else w.sp_json_sizes in
      section (Printf.sprintf "json %s" w.sp_title);
      row "  %8s %8s %10s %10s %10s %8s  %s\n" "scale" "facts" "scan_ms"
        "grid_ms" "rtree_ms" "speedup" "agree";
      add "    {\n      \"name\": %S,\n      \"rows\": [\n" w.sp_name;
      let n_sizes = List.length sizes in
      List.iteri
        (fun si scale ->
          let r = sp_measure w scale in
          row "  %8d %8d %10.1f %10.1f %10.1f %7.1fx  %s\n" r.xr_scale
            r.xr_facts r.xr_scan_ms r.xr_grid_ms r.xr_rtree_ms (sp_speedup r)
            (if r.xr_agree then "yes" else "DISAGREE");
          add
            "        { \"scale\": %d, \"facts\": %d, \"scan_ms\": %.3f, \
             \"grid_ms\": %.3f, \"rtree_ms\": %.3f, \"speedup\": %.2f, \
             \"probes\": %d, \"fallbacks\": %d, \"agree\": %b }%s\n"
            r.xr_scale r.xr_facts r.xr_scan_ms r.xr_grid_ms r.xr_rtree_ms
            (sp_speedup r) r.xr_probes r.xr_fallbacks r.xr_agree
            (if si < n_sizes - 1 then "," else ""))
        sizes;
      add "      ]\n    }%s\n" (if wi < n_sp - 1 then "," else ""))
    sp_workloads;
  add "  ],\n";
  (* persistent snapshots: cold materialisation vs Snapshot.load +
     Bottom_up.import of the persisted model; "agree" asserts the loaded
     fixpoint carries identical facts and pass counts *)
  add "  \"snap_series\": [\n";
  List.iteri
    (fun wi w ->
      let sizes = if small then w.bu_json_small else w.bu_json_sizes in
      section (Printf.sprintf "json engine-snap %s" w.bu_name);
      row "  %8s %8s %10s %10s %10s %10s %8s  %s\n" "scale" "facts" "bytes"
        "cold_ms" "save_ms" "warm_ms" "speedup" "agree";
      add "    {\n      \"name\": %S,\n      \"rows\": [\n" w.bu_name;
      let n_sizes = List.length sizes in
      List.iteri
        (fun si scale ->
          let r = snap_measure w scale in
          row "  %8d %8d %10d %10.1f %10.1f %10.1f %7.1fx  %s\n" r.zr_scale
            r.zr_facts r.zr_bytes r.zr_cold_ms r.zr_save_ms r.zr_warm_ms
            (snap_speedup r)
            (if r.zr_agree then "yes" else "DISAGREE");
          add
            "        { \"scale\": %d, \"facts\": %d, \"bytes\": %d, \
             \"cold_ms\": %.3f, \"save_ms\": %.3f, \"warm_ms\": %.3f, \
             \"speedup\": %.2f, \"agree\": %b }%s\n"
            r.zr_scale r.zr_facts r.zr_bytes r.zr_cold_ms r.zr_save_ms
            r.zr_warm_ms (snap_speedup r) r.zr_agree
            (if si < n_sizes - 1 then "," else ""))
        sizes;
      add "      ]\n    }%s\n"
        (if wi < List.length snap_workloads - 1 then "," else ""))
    snap_workloads;
  add "  ]\n}\n";
  let oc = open_out out in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "\nwrote %s\n" out

(* ---------------------------------------------------------------- main *)

let reports =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11); ("e12", e12);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [] ->
      List.iter (fun (_, f) -> f ()) reports;
      ablation ();
      micro ();
      engine_bu ();
      engine_incr ();
      engine_magic ();
      engine_par ();
      engine_spatial ();
      engine_snap ()
  | [ "report" ] -> List.iter (fun (_, f) -> f ()) reports
  | [ "micro" ] ->
      micro ();
      engine_bu ()
  | [ "ablation" ] -> ablation ()
  | [ "engine-bu" ] -> engine_bu ()
  | [ "engine-incr" ] -> engine_incr ()
  | [ "engine-magic" ] -> engine_magic ()
  | [ "engine-par" ] -> engine_par ()
  | [ "engine-spatial" ] -> engine_spatial ()
  | [ "engine-snap" ] -> engine_snap ()
  | [ "json" ] -> bench_json ()
  | [ "json"; "small" ] -> bench_json ~small:true ()
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name reports with
          | Some f -> f ()
          | None when name = "micro" -> micro ()
          | None when name = "ablation" -> ablation ()
          | None when name = "engine-bu" -> engine_bu ()
          | None when name = "engine-incr" -> engine_incr ()
          | None when name = "engine-magic" -> engine_magic ()
          | None when name = "engine-par" -> engine_par ()
          | None when name = "engine-spatial" -> engine_spatial ()
          | None when name = "engine-snap" -> engine_snap ()
          | None ->
              Printf.eprintf
                "unknown experiment %s (e1..e12, report, ablation, micro, \
                 engine-bu, engine-incr, engine-magic, engine-par, \
                 engine-spatial, engine-snap, json [small])\n"
                name;
              exit 2)
        names
