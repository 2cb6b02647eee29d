(* Benchmark and experiment-reproduction harness.

   The paper's evaluation is a prototype feasibility demonstration with
   worked micro-examples and no numbered tables or figures (see DESIGN.md
   §2 and EXPERIMENTS.md). This harness therefore regenerates:

   - E1..E12: every worked example in the paper, end to end, at
     controllable scale, each printing the rows recorded in
     EXPERIMENTS.md (ground-truth agreement, scaling series, shape
     checks);
   - micro and engine-*: Bechamel micro-benchmarks and the engine series
     of the inference substrate — the performance dimension the paper
     mentions ("Prolog's computational inefficiency") but never
     quantifies.

   Usage:
     dune exec bench/main.exe                # every experiment and series
     dune exec bench/main.exe -- report      # experiment reports only
     dune exec bench/main.exe -- e7 micro    # any names, in order
     dune exec bench/main.exe -- engine-bu   # one engine series, console
     dune exec bench/main.exe -- json small  # every engine series, JSON *)

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

let standard_spec ?now () =
  let spec = Spec.create ?now () in
  Meta.install_standard spec;
  spec

(* The rule chain level_0 <- base_0, level_1; ...; level_{n-1} <- base_{n-1}
   over one object, with an accuracy statement on each base fact. *)
let acc_chain ?(family = Gdp_fuzzy.Algebra.Min_max) accs =
  let spec = standard_spec () in
  spec.Spec.fuzzy_family <- family;
  Spec.declare_object spec "x";
  List.iteri
    (fun i acc ->
      let base = Gfact.make (Printf.sprintf "base_%d" i) ~objects:[ a "x" ] in
      Spec.add_fact spec base;
      Spec.add_acc_statement spec base acc)
    accs;
  let xv = v "X" in
  let level i = Gfact.make (Printf.sprintf "level_%d" i) ~objects:[ xv ] in
  let depth = List.length accs in
  for i = depth - 1 downto 0 do
    let base = Formula.Atom (Gfact.make (Printf.sprintf "base_%d" i) ~objects:[ xv ]) in
    Spec.add_rule spec ~name:(Printf.sprintf "level_%d" i) ~head:(level i)
      (if i = depth - 1 then base else Formula.And (base, Formula.Atom (level (i + 1))))
  done;
  Query.create spec ~meta_view:[ "fuzzy_unified_max"; "fuzzy_propagation" ]

(* ---------------------------------------------------------------- E1 *)

let e1 () =
  section "E1 — bridges/roads virtual facts (§II-B, §III-A)";
  row "  %8s %8s %10s %10s %12s  %s\n" "roads" "bridges" "open_roads" "truth"
    "query_ms" "agree";
  List.iter
    (fun n_roads ->
      let rng = W.Rng.create 1L in
      let net = W.Roads.generate rng ~n_roads ~bridges_per_road:4 ~open_probability:0.8 () in
      let spec = standard_spec () in
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
      let spec = standard_spec () in
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
      let spec = standard_spec () in
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
      let spec = standard_spec () in
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
  let spec = standard_spec () in
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
      let spec = standard_spec () in
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
  let spec = standard_spec () in
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
      let spec = standard_spec ~now:1000.0 () in
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
  let spec = standard_spec () in
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
      let spec = standard_spec () in
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
      let accs = List.init depth (fun _ -> 0.5 +. W.Rng.float rng 0.5) in
      let q = acc_chain accs in
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
  let spec = standard_spec () in
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
  section "ablation 1 — ancestor loop check overhead";
  let spec = standard_spec () in
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

  section "ablation 2 — fuzzy connective family (§VII-A)";
  row "  same depth-8 rule chain under each family:\n";
  List.iter
    (fun family ->
      let rng = W.Rng.create 77L in
      let accs = List.init 8 (fun _ -> 0.8 +. W.Rng.float rng 0.2) in
      let q = acc_chain ~family accs in
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
    let spec = standard_spec () in
    W.Roads.add_to_spec net spec ();
    W.Roads.add_status_rules spec ();
    Query.create spec
  in
  let spatial_q =
    let spec = standard_spec () in
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

(* ------------------------------------------------------ engine series *)

(* Every engine-* series has one shape. A row is an ordered list of
   named values; a case is one workload with its three size lists and
   one measurement; a series is a list of cases under a JSON key and a
   CLI name. `engine-X` prints a series as console tables and `json`
   writes every series into BENCH_engine.json, both from the same
   measure, so the console columns are exactly the JSON fields. *)

type value =
  | Int of int
  | Bool of bool
  | Float of int * float  (* decimals, value *)
  | Floats of int * float list

type row = (string * value) list

type case = {
  name : string;
  title : string;
  header : (string * string) list;  (* extra JSON fields, e.g. magic's goal *)
  console : int list;
  json : int list;
  small : int list;  (* `json small`: the CI smoke scales *)
  measure : int -> row;  (* every field but "scale" *)
}

type series = { key : string; cli : string; cases : case list }

let ms x = Float (3, x)
let ratio x = Float (4, x)

(* how many times faster [fast] ran than [slow], floored against a zero
   reading *)
let speedup ?(floor = 0.01) ~slow fast = Float (2, slow /. Float.max floor fast)

let render = function
  | Int n -> string_of_int n
  | Bool b -> string_of_bool b
  | Float (d, x) -> Printf.sprintf "%.*f" d x
  | Floats (d, xs) ->
      "[" ^ String.concat "," (List.map (Printf.sprintf "%.*f" d) xs) ^ "]"

(* Measure each case of a series at the scales [sizes] picks, printing a
   table per case as the rows arrive. The header waits for the first row
   because the columns are its fields. *)
let run_series sizes s =
  List.map
    (fun c ->
      section (Printf.sprintf "%s %s — %s" s.cli c.name c.title);
      List.iter (fun (k, v) -> row "  %s: %s\n" k v) c.header;
      let line r cell =
        let col (k, v) = Printf.sprintf " %*s" (max 8 (String.length k)) (cell k v) in
        row " %s\n" (String.concat "" (List.map col r))
      in
      let rows =
        List.mapi
          (fun i scale ->
            let r = ("scale", Int scale) :: c.measure scale in
            if i = 0 then line r (fun k _ -> k);
            line r (fun _ v -> render v);
            r)
          (sizes c)
      in
      (c, rows))
    s.cases

(* one series as a BENCH_engine.json member: a case per object, a row
   per line *)
let json_series s results =
  let join sep f l = String.concat sep (List.map f l) in
  let row_json r = join ", " (fun (k, v) -> Printf.sprintf "%S: %s" k (render v)) r in
  let case_json (c, rows) =
    Printf.sprintf "    {\n%s      \"rows\": [\n%s\n      ]\n    }"
      (join "" (fun (k, v) -> Printf.sprintf "      %S: %S,\n" k v)
         (("name", c.name) :: c.header))
      (join ",\n" (fun r -> "        { " ^ row_json r ^ " }") rows)
  in
  Printf.sprintf "  %S: [\n%s\n  ]" s.key (join ",\n" case_json results)

(* ------------------------------------------------- engine workloads *)

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

(* Dense closure: the snapshot showcase. A random digraph with mean
   out-degree ~9 saturates its reachability closure, so semi-naive pays
   many redundant firings per retained fact — exactly the regime where
   materialisation is expensive relative to the model it produces and a
   persisted snapshot pays off most. The three shared workloads bound
   the other end: when deriving a fact costs about as much as
   re-loading it, caching roughly breaks even. *)
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

(* Per-workload update scripts for the engine-incr series: mostly fresh
   facts asserted and then retracted again (net-neutral round trips that
   exercise both the insertion deltas and DRed), plus retract/re-assert
   round trips on seeded base facts so deletion runs against real
   derivation chains — and, for census, capital flips that change a
   relation the negation stratum reads under [\+], which DRed repairs
   through the negated literal's delta plans. *)
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

(* A raw engine base shared by the fixpoint series. *)
type workload = {
  w_name : string;
  w_title : string;
  w_db : int -> Gdp_logic.Database.t;
  w_goal : Gdp_logic.Term.t;  (* the open goal engine-naive re-proves *)
  w_console : int list;  (* small enough for the naive and top-down legs *)
  w_json : int list;
  w_small : int list;
  w_script : int -> Gdp_logic.Bottom_up.update list;  (* engine-incr *)
  w_point : int -> Gdp_logic.Term.t;
      (* point goal for the engine-magic series, per scale. For the
         right-recursive reach closure, binding the SECOND argument keeps
         the magic set at the query constant (binding the first would
         propagate magic facts across every reachable node); the target
         is the backbone's last node so the top-down leg can also prove
         each answer by marching forward instead of exhausting the
         forward cone. The terrain goal binds the FIRST argument: its
         magic set is the downhill cone of one cell, the classic
         "descendants of a node" restriction. *)
  w_point_doc : string;
      (* display form of the point goal (Term.to_string would leak fresh
         variable ids into the JSON) *)
}

let bu_workloads =
  [
    {
      w_name = "roads-reach";
      w_title = "reach = transitive closure of link";
      w_db = bu_roads_db;
      w_goal = T.app "reach" [ v "X"; v "Y" ];
      w_console = [ 16; 32; 64 ];
      w_json = [ 40; 160; 640 ];
      w_small = [ 16; 64 ];
      w_script = incr_script_roads;
      w_point =
        (fun n -> T.app "reach" [ v "X"; a (Printf.sprintf "n%d" (n - 1)) ]);
      w_point_doc = "reach(X, n<scale-1>)";
    };
    {
      w_name = "census-negation";
      w_title = "negation as failure over a lower stratum";
      w_db = bu_census_db;
      w_goal = T.app "state_without_capital" [ v "S" ];
      w_console = [ 100; 200; 400 ];
      w_json = [ 400; 1600; 3200 ];
      w_small = [ 100; 400 ];
      w_script = incr_script_census;
      w_point = (fun _ -> T.app "state_without_capital" [ a "s0" ]);
      w_point_doc = "state_without_capital(s0)";
    };
    {
      w_name = "terrain-flows";
      w_title = "downhill flow closure with < guards";
      w_db = bu_terrain_db;
      w_goal = T.app "flows" [ v "A"; v "B" ];
      w_console = [ 4; 6; 8 ];
      w_json = [ 6; 10; 14 ];
      w_small = [ 4; 8 ];
      w_script = incr_script_terrain;
      w_point =
        (fun n ->
          T.app "flows" [ a (Printf.sprintf "t%d_%d" (n / 2) (n / 2)); v "B" ]);
      w_point_doc = "flows(t<scale/2>_<scale/2>, B)";
    };
  ]

let snap_workloads =
  bu_workloads
  @ [
      {
        w_name = "roads-dense";
        w_title = "saturated reachability closure";
        w_db = snap_dense_db;
        w_goal = T.app "reach" [ v "X"; v "Y" ];
        w_console = [ 16; 32; 64 ];
        w_json = [ 24; 64; 96 ];
        w_small = [ 24; 64 ];
        w_script = (fun _ -> []);
        w_point =
          (fun n -> T.app "reach" [ v "X"; a (Printf.sprintf "d%d" (n - 1)) ]);
        w_point_doc = "reach(X, d<scale-1>)";
      };
    ]

let case_of ?(header = []) measure w =
  {
    name = w.w_name;
    title = w.w_title;
    header;
    console = w.w_console;
    json = w.w_json;
    small = w.w_small;
    measure = measure w;
  }

let same_facts a b =
  List.equal Gdp_logic.Term.equal (Gdp_logic.Bottom_up.facts a)
    (Gdp_logic.Bottom_up.facts b)

let topdown_options =
  { Gdp_logic.Solve.default_options with Gdp_logic.Solve.loop_check = true }

(* ------------------------------------ engine-bu: scan vs indexed joins *)

(* Each stratum's time in a run of [db]: the durations of its traced
   [stratum N] spans. A run of its own, so the timed runs stay
   untraced. *)
let stratum_ms db =
  let open Gdp_obs in
  let tracer = Tracer.create () in
  ignore (Gdp_logic.Bottom_up.run ~tracer db : Gdp_logic.Bottom_up.fixpoint);
  List.filter_map
    (fun (sp : Tracer.span) ->
      if String.starts_with ~prefix:"stratum " sp.name then
        Some (Int64.to_float sp.dur_ns /. 1e6)
      else None)
    (Tracer.spans tracer)

(* The semi-naive evaluator with joins forced to full-relation scans in
   textual order (the original unindexed evaluator, minus its O(log n)
   set overhead) against the index-driven planner. *)
let bu_measure w scale =
  let open Gdp_logic in
  let db = w.w_db scale in
  let scan_ms, scan_fp =
    time_ms (fun () -> Bottom_up.run ~baseline:Bottom_up.Scan db)
  in
  let idx_ms, idx_fp = time_ms (fun () -> Bottom_up.run db) in
  let s = Bottom_up.stats idx_fp in
  [
    ("facts", Int (Bottom_up.count idx_fp));
    ("passes", Int s.Bottom_up.bu_passes);
    ("scan_ms", ms scan_ms);
    ("scan_firings", Int (Bottom_up.stats scan_fp).Bottom_up.bu_firings);
    ("indexed_ms", ms idx_ms);
    ("indexed_firings", Int s.Bottom_up.bu_firings);
    ("speedup", speedup ~slow:scan_ms idx_ms);
    ( "agree",
      Bool
        (Bottom_up.count scan_fp = Bottom_up.count idx_fp
        && same_facts scan_fp idx_fp) );
    ("strata", Int s.Bottom_up.bu_strata);
    ("probes", Int s.Bottom_up.bu_index_probes);
    ("scans", Int s.Bottom_up.bu_full_scans);
    ("candidates", Int s.Bottom_up.bu_candidates);
    ("membership_tests", Int s.Bottom_up.bu_membership_tests);
    ("hcons_hit_rate", ratio (Bottom_up.hcons_hit_rate s));
    ("stratum_ms", Floats (3, stratum_ms db));
  ]

(* ---------------------------- engine-naive: naive vs semi-naive vs SLD *)

(* Naive bottom-up against the indexed semi-naive fixpoint and top-down
   SLDNF on the same base — the quantification of the "Prolog's
   computational inefficiency" the paper only mentions. The top-down leg
   proves a sample of the derived goal atoms (up to 100) with the
   ancestor loop check on, and counts its head unifications and the
   clause index's work (no fixpoint looks clauses up, so the database's
   counters are the leg's). Naive re-firing is quadratic per pass, so the
   series runs at the console scales even under `json`. *)
let naive_measure w scale =
  let open Gdp_logic in
  let db = w.w_db scale in
  let naive_ms, naive_fp =
    time_ms (fun () -> Bottom_up.run ~baseline:Bottom_up.Naive db)
  in
  let idx_ms, idx_fp = time_ms (fun () -> Bottom_up.run db) in
  let derived =
    List.filter
      (fun f -> Unify.unify Subst.empty w.w_goal f <> None)
      (Bottom_up.facts idx_fp)
  in
  let step = max 1 (List.length derived / 100) in
  let sample = List.filteri (fun i _ -> i mod step = 0) derived in
  let stats = Solve.create_stats () in
  let options = { topdown_options with Solve.stats = Some stats } in
  let td_ms, td_ok =
    time_ms (fun () ->
        List.for_all (fun f -> Solve.succeeds ~options db [ f ]) sample)
  in
  let index = Database.index_counts db in
  [
    ("facts", Int (Bottom_up.count idx_fp));
    ("naive_ms", ms naive_ms);
    ("indexed_ms", ms idx_ms);
    ("speedup", speedup ~slow:naive_ms idx_ms);
    ("topdown_ms", ms td_ms);
    ("topdown_probes", Int (List.length sample));
    ("topdown_unifications", Int stats.Solve.unifications);
    ("topdown_branch_builds", Int index.Database.branch_builds);
    ("topdown_branch_entries", Int index.Database.branch_entries);
    ("topdown_shared_skips", Int index.Database.shared_skips);
    ("agree", Bool (same_facts naive_fp idx_fp && td_ok));
  ]

(* ------------------------------------- engine-incr: view maintenance *)

(* The same update script is applied one fact at a time to a live
   fixpoint (Bottom_up.apply: semi-naive deltas + DRed) and, against a
   second identically seeded database, by mutating the base and
   re-running the whole fixpoint from scratch after every step — the
   cost a system without view maintenance pays. The two must end on
   identical fact sets. "facts" counts the maintained store after the
   script. *)
let incr_measure w scale =
  let open Gdp_logic in
  let script = w.w_script scale in
  let live = w.w_db scale in
  let mirror = w.w_db scale in
  (* same seed, identical base *)
  let fp = Bottom_up.run live in
  let incr_ms, () =
    time_ms (fun () -> List.iter (fun u -> Bottom_up.apply fp [ u ]) script)
  in
  let recompute_ms, last_fp =
    time_ms (fun () ->
        List.fold_left
          (fun _ u ->
            (* the workload builders may seed duplicate unit clauses: a
               retract drops them all, as the fixpoint's set view does *)
            Database.update_fact mirror u;
            Some (Bottom_up.run mirror))
          None script)
  in
  let i = Bottom_up.incr_stats fp in
  [
    ("facts", Int (Bottom_up.count fp));
    ("updates", Int (List.length script));
    ("incremental_ms", ms incr_ms);
    ("recompute_ms", ms recompute_ms);
    ("speedup", speedup ~floor:0.001 ~slow:recompute_ms incr_ms);
    ("agree", Bool (Option.fold ~none:true ~some:(same_facts fp) last_fp));
    ("inserted", Int i.Bottom_up.upd_inserted);
    ("deleted", Int i.Bottom_up.upd_deleted);
    ("overdeleted", Int i.Bottom_up.upd_overdeleted);
    ("rederived", Int i.Bottom_up.upd_rederived);
  ]

(* ---------------------------------- engine-magic: goal-directed eval *)

let idb_preds db =
  let open Gdp_logic in
  Database.predicates db
  |> List.filter (fun key ->
         List.exists
           (fun (c : Database.clause) -> c.Database.body <> [])
           (Database.all_clauses db key))
  |> List.map fst

(* the number of facts whose predicate name satisfies [keep] *)
let count_facts keep fp =
  Gdp_logic.Bottom_up.facts fp
  |> List.filter (fun t ->
         match Gdp_logic.Term.functor_of t with
         | Some (name, _) -> keep name
         | None -> false)
  |> List.length

(* Magic vs full vs top-down on a point goal. "Derived" counts are IDB
   tuples of the *original* program only, so the magic leg pays for its
   magic$ guard tuples separately (magic_aux, seeds included) and the
   goal-direction claim is not flattered by copied base facts. magic_ms
   times the rewrite and the seeded fixpoint together. *)
let magic_measure w scale =
  let open Gdp_logic in
  let db = w.w_db scale in
  let idb = idb_preds db in
  let goal = w.w_point scale in
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
  let full_derived = count_facts (fun p -> List.mem p idb) full_fp in
  let magic_derived = count_facts (fun p -> List.mem p idb) magic_fp in
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
  let magic_aux = count_facts (String.starts_with ~prefix:"magic$") magic_fp in
  [
    ("full_ms", ms full_ms);
    ("full_derived", Int full_derived);
    ("magic_ms", ms magic_ms);
    ("magic_derived", Int magic_derived);
    ("magic_aux", Int magic_aux);
    ("ratio", ratio (float_of_int magic_derived /. float_of_int (max 1 full_derived)));
    ("topdown_ms", ms td_ms);
    ("topdown_probes", Int (List.length td_targets));
    ("answers", Int (List.length full_answers));
    ("agree", Bool (List.equal Term.equal full_answers magic_answers && td_ok));
    ("fallback_strata", Int info.Magic.fallback_strata);
    ("full_fallback", Bool info.Magic.full_fallback);
  ]

(* ---------------------------------- engine-spatial: R-tree joins *)

(* Spatial self-join workloads: point-carrying EDB facts joined under a
   region_mem or bounded pt_dist guard — exactly the joins the spatial
   planner compiles to index probes. Each database is evaluated two
   ways: the [Spatial_scan] baseline (every annotated join through the
   hash/scan path) and STR-packed R-trees. Both must derive identical
   fact sets — the probes are pre-filters, the exact guard always
   re-checks.
   The databases are raw engine bases like the other engine-* series;
   the Spec only carries the region table and coordinate system the
   spatial hooks read. *)

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

(* [regions] are the ones the guards name. "probes" counts the R-tree
   run's index probes, "fallbacks" the scan baseline's spatial scans. *)
let spatial_case ~name ~title ~db ~regions ~console ~json ~small =
  let hints = Spec.create () in
  List.iter (fun (region, r) -> Spec.declare_region hints region r) regions;
  let measure scale =
    let open Gdp_logic in
    let db = db scale in
    let rtree = Compile.spatial_hints hints in
    let scan_ms, scan_fp =
      time_ms (fun () ->
          Bottom_up.run ~baseline:Bottom_up.Spatial_scan ~spatial:rtree db)
    in
    let rtree_ms, rtree_fp = time_ms (fun () -> Bottom_up.run ~spatial:rtree db) in
    [
      ("facts", Int (Bottom_up.count rtree_fp));
      ("scan_ms", ms scan_ms);
      ("rtree_ms", ms rtree_ms);
      ("speedup", speedup ~slow:scan_ms rtree_ms);
      ("probes", Int (Bottom_up.stats rtree_fp).Bottom_up.bu_spatial_probes);
      ("fallbacks", Int (Bottom_up.stats scan_fp).Bottom_up.bu_spatial_scans);
      ("agree", Bool (same_facts scan_fp rtree_fp));
    ]
  in
  { name; title; header = []; console; json; small; measure }

let spatial_cases =
  [
    spatial_case ~name:"roads-near" ~title:"bounded pt_dist self-join over sites"
      ~db:sp_roads_db ~regions:[] ~console:[ 160; 320; 640 ]
      ~json:[ 320; 640; 1280 ] ~small:[ 160; 640 ];
    spatial_case ~name:"terrain-basin"
      ~title:"region_mem filter + bounded pt_dist join" ~db:sp_terrain_db
      ~regions:
        [
          ( "basin",
            Gdp_space.Region.circle
              ~center:(Gdp_space.Point.make 50.0 50.0)
              ~radius:20.0 );
        ]
      ~console:[ 16; 24; 32 ] ~json:[ 24; 32; 48 ] ~small:[ 16; 32 ];
    spatial_case ~name:"hydro-gauges"
      ~title:"clustered gauges, pt_dist links + floodplain" ~db:sp_hydro_db
      ~regions:
        [
          ( "floodplain",
            Gdp_space.Region.rect ~min_x:30.0 ~min_y:0.0 ~max_x:70.0
              ~max_y:100.0 );
        ]
      ~console:[ 200; 400; 800 ] ~json:[ 400; 800; 1600 ]
      ~small:[ 200; 800 ];
  ]

(* ------------------------------------ engine-snap: persistent snapshots *)

(* The full semi-naive materialisation of a workload's base (what every
   CLI invocation paid before snapshots) against Snapshot.load +
   Bottom_up.import of the same model persisted to disk — deserialise,
   rebuild the relations, fire no rules. "agree" asserts the loaded
   fixpoint is indistinguishable: identical fact sets and restored pass
   counts.

   Both legs run 9 times, in alternating pairs: "speedup" feeds a CI
   ratio gate over timings of about 1 ms and 10 ms, and single-shot
   wall-clock readings on shared runners swing by 2x with allocator and
   machine noise. "cold_ms" and "warm_ms" are each leg's best. The cold
   leg times database construction plus materialisation; the warm leg
   times Snapshot.load + Bottom_up.import against a database built
   outside the clock, since a snapshot consumer pays spec compilation
   on both paths. "import_words" is what one Snapshot.load +
   Bottom_up.import allocates, from the GC's counters; it is the same in
   every run, so CI pins it with the other integer fields. *)
let snap_reps = 9

let snap_measure w scale =
  let open Gdp_logic in
  let cold () = time_ms (fun () -> Bottom_up.run (w.w_db scale)) in
  let _, cold_fp = cold () in
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
  let load db =
    let snap, _bytes = Snapshot.load ~path () in
    Bottom_up.import db snap.Snapshot.state
  in
  (* a fresh identically seeded database: the import target a second
     process would compile before loading *)
  let warm () =
    let warm_db = w.w_db scale in
    time_ms (fun () -> load warm_db)
  in
  let import_words =
    let warm_db = w.w_db scale in
    let allocated () =
      let minor, promoted, major = Gc.counters () in
      minor +. major -. promoted
    in
    let before = allocated () in
    ignore (load warm_db : Bottom_up.fixpoint);
    int_of_float (allocated () -. before)
  in
  (* the legs alternate, so a drift in host speed reaches both legs of a
     pair alike, and each starts on a collected heap, so neither pays
     for the other's garbage *)
  let pairs =
    List.init snap_reps (fun _ ->
        Gc.full_major ();
        let c, _ = cold () in
        Gc.full_major ();
        (c, warm ()))
  in
  let cold_ms = List.fold_left (fun m (c, _) -> Float.min m c) infinity pairs in
  let warm_ms = List.fold_left (fun m (_, (w, _)) -> Float.min m w) infinity pairs in
  let _, (_, warm_fp) = List.hd pairs in
  (* the speedup is the median of the pairs' ratios: a pair shares its
     host's speed, which best-of timings taken apart do not *)
  let ratios =
    List.sort Float.compare
      (List.map (fun (c, (w, _)) -> c /. Float.max 0.01 w) pairs)
  in
  let sorted fp = List.sort Term.compare (Bottom_up.facts fp) in
  [
    ("facts", Int (Bottom_up.count warm_fp));
    ("bytes", Int bytes);
    ("cold_ms", ms cold_ms);
    ("save_ms", ms save_ms);
    ("warm_ms", ms warm_ms);
    ("import_words", Int import_words);
    ("speedup", Float (2, List.nth ratios (snap_reps / 2)));
    ( "agree",
      Bool
        (Bottom_up.count cold_fp = Bottom_up.count warm_fp
        && (Bottom_up.stats cold_fp).bu_passes
           = (Bottom_up.stats warm_fp).bu_passes
        && List.equal Term.equal (sorted cold_fp) (sorted warm_fp)) );
  ]

(* ------------------------------- engine-keys: probe-key selectivity *)

(* A compiled specification's holds/6 base at [n] objects: a depth and a
   trust level per object, a linked chain with random shortcuts, and
   readings at positions. Its rules carry the literal shapes whose probe
   key must skip what every fact of a relation shares (the model, the
   predicate, [nospace], a one-element list's [nil] tail): a closure
   probed from a bound object, a constant-object literal (the paper's
   `depth(D)(ocean)`) and a constant-value literal. *)
let keys_db n =
  let open Gdp_logic in
  let db = Engine.create () in
  let rng = W.Rng.create 31L in
  let obj i = a (Printf.sprintf "o%d" i) in
  let fact ?(values = []) ?(objects = []) ?(space = Gfact.S_everywhere) pred =
    Database.fact db
      (Gfact.to_holds ~default_model:Names.default_model
         (Gfact.make ~values ~objects ~space pred))
  in
  for i = 0 to n - 1 do
    fact "depth" ~values:[ T.int (i * 37 mod 100) ] ~objects:[ obj i ];
    fact "trusted"
      ~values:[ a (if i mod 3 = 0 then "low" else "high") ]
      ~objects:[ obj i ];
    if i < n - 1 then fact "link" ~objects:[ obj i; obj (i + 1) ];
    fact "link" ~objects:[ obj i; obj (W.Rng.int rng n) ];
    fact "temp" ~values:[ T.int i ]
      ~space:(Gfact.S_at (T.app "pos" [ T.int (i mod 8); T.int (i / 8) ]))
  done;
  Engine.consult db
    {|
    holds(w, reach, [], [X, Y], nospace, notime) :-
      holds(w, link, [], [X, Y], nospace, notime).
    holds(w, reach, [], [X, Y], nospace, notime) :-
      holds(w, link, [], [X, Z], nospace, notime),
      holds(w, reach, [], [Z, Y], nospace, notime).
    holds(w, shallower, [], [X], nospace, notime) :-
      holds(w, depth, [R], [o0], nospace, notime),
      holds(w, depth, [D], [X], nospace, notime), D < R.
    holds(w, vetted, [], [X], nospace, notime) :-
      holds(w, trusted, [high], [X], nospace, notime).
    |};
  db

(* Query goals on the materialised base, as the CLI's query command
   poses them: a value query on each object, a closure from one object
   and a reading at each of eight positions. *)
let keys_goals n =
  let holds ?(values = [ v "V" ]) ?(objects = []) ?(space = v "S") pred =
    T.app Names.holds
      [ a Names.default_model; a pred; T.list values; T.list objects; space; v "T" ]
  in
  List.init n (fun i -> holds "trusted" ~objects:[ a (Printf.sprintf "o%d" i) ])
  @ [ holds "reach" ~values:[] ~objects:[ a "o0"; v "Y" ] ]
  @ List.init 8 (fun x ->
        holds "temp" ~space:(T.app "at" [ T.app "pos" [ T.int x; T.int 0 ] ]))

(* Literals and goals whose selective constants sit in two separate
   subterms, which a one-path key narrows on only one of: a plain
   [e(a0, b0, X)] and its holds/6 form, a constant value beside a
   constant object ([rated] at [high] with first object [o0]). Each
   constant alone matches a half ([a0], [high]) or an eighth ([b0],
   [o0]) of its relation; together they match an eighth. *)
let split_db n =
  let open Gdp_logic in
  let db = Engine.create () in
  let obj i = a (Printf.sprintf "o%d" i) in
  for i = 0 to n - 1 do
    Database.fact db
      (T.app "e"
         [
           a (Printf.sprintf "a%d" (i mod 2));
           a (Printf.sprintf "b%d" (i mod 8));
           obj i;
         ]);
    Database.fact db
      (Gfact.to_holds ~default_model:Names.default_model
         (Gfact.make "rated"
            ~values:[ a (if i mod 2 = 0 then "high" else "low") ]
            ~objects:[ obj (i mod 8); obj i ]))
  done;
  Engine.consult db
    {|
    pair(X) :- e(a0, b0, X).
    holds(w, top, [], [X], nospace, notime) :-
      holds(w, rated, [high], [o0, X], nospace, notime).
    |};
  db

let split_goals _ =
  [
    T.app "e" [ a "a0"; a "b0"; v "X" ];
    T.app Names.holds
      [ a Names.default_model; a "rated"; T.list [ a "high" ];
        T.list [ a "o0"; v "Y" ]; v "S"; v "T" ];
  ]

(* The facts the fixpoint's joins and the goals' probes hand to
   unification ("candidates", "probe_candidates") against the answers
   they yield: the work a probe key's selectivity decides, which the
   probe and scan counts cannot show. "agree" asserts that every probe
   yields exactly the unifiable facts of its goal's relation. *)
let keys_measure ~db ~goals n =
  let open Gdp_logic in
  let fp = Bottom_up.run ~refine:Compile.datalog_refine (db n) in
  let s = Bottom_up.stats fp in
  let unifiable goal = List.filter (fun f -> Unify.unify Subst.empty goal f <> None) in
  let probed =
    List.map
      (fun goal -> (goal, Bottom_up.probe fp goal))
      (goals n)
  in
  let stored = Bottom_up.facts fp in
  [
    ("facts", Int (Bottom_up.count fp));
    ("passes", Int s.Bottom_up.bu_passes);
    ("probes", Int s.Bottom_up.bu_index_probes);
    ("scans", Int s.Bottom_up.bu_full_scans);
    ("candidates", Int s.Bottom_up.bu_candidates);
    ("goals", Int (List.length probed));
    ( "probe_candidates",
      Int (List.fold_left (fun k (_, c) -> k + List.length c) 0 probed) );
    ( "answers",
      Int (List.fold_left (fun k (g, c) -> k + List.length (unifiable g c)) 0 probed) );
    ( "agree",
      Bool
        (List.for_all
           (fun (g, c) ->
             List.equal Term.equal
               (List.sort Term.compare (unifiable g c))
               (unifiable g stored))
           probed) );
  ]

let keys_cases =
  [
    {
      name = "holds-survey";
      title = "holds/6 literals and goals keyed on an object, a value or a position";
      header = [];
      console = [ 32; 128 ];
      json = [ 128; 256 ];
      small = [ 32; 128 ];
      measure = keys_measure ~db:keys_db ~goals:keys_goals;
    };
    {
      name = "split-constants";
      title = "literals and goals whose constants sit in two separate subterms";
      header = [];
      console = [ 32; 128 ];
      json = [ 128; 256 ];
      small = [ 32; 128 ];
      measure = keys_measure ~db:split_db ~goals:split_goals;
    };
  ]

(* ------------------------------------------------- json: perf tracking *)

let engine_series =
  [
    {
      key = "series";
      cli = "engine-bu";
      cases = List.map (case_of bu_measure) bu_workloads;
    };
    {
      key = "incr_series";
      cli = "engine-incr";
      cases = List.map (case_of incr_measure) bu_workloads;
    };
    {
      key = "magic_series";
      cli = "engine-magic";
      cases =
        List.map
          (fun w -> case_of ~header:[ ("goal", w.w_point_doc) ] magic_measure w)
          bu_workloads;
    };
    { key = "spatial_series"; cli = "engine-spatial"; cases = spatial_cases };
    { key = "key_series"; cli = "engine-keys"; cases = keys_cases };
    {
      key = "snap_series";
      cli = "engine-snap";
      cases = List.map (case_of snap_measure) snap_workloads;
    };
    {
      key = "naive_series";
      cli = "engine-naive";
      cases =
        List.map
          (fun w -> { (case_of naive_measure w) with json = w.w_console })
          bu_workloads;
    };
  ]

(* `bench/main.exe -- json [small]` runs every engine series at its json
   (or small) scales and writes BENCH_engine.json — the machine-readable
   perf trajectory CI validates and archives on every push. *)
let bench_json ~small () =
  let out = "BENCH_engine.json" in
  let sizes c = if small then c.small else c.json in
  let blocks = List.map (fun s -> json_series s (run_series sizes s)) engine_series in
  let oc = open_out out in
  (* machine context: timings are only comparable across runs on like
     machines *)
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"gdprs-bench-engine/1\",\n\
    \  \"bench\": \"gdprs engine series (EXPERIMENTS.md)\",\n\
    \  \"mode\": %S,\n\
    \  \"cores\": %d,\n\
    \  \"ocaml_version\": %S,\n\
     %s\n\
     }\n"
    (if small then "small" else "full")
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (String.concat ",\n" blocks);
  close_out oc;
  Printf.printf "\nwrote %s\n" out

(* ---------------------------------------------------------------- main *)

let reports =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11); ("e12", e12);
  ]

(* everything a bare `bench/main.exe` runs, one name each *)
let experiments =
  reports
  @ [ ("ablation", ablation); ("micro", micro) ]
  @ List.map
      (fun s -> (s.cli, fun () -> ignore (run_series (fun c -> c.console) s)))
      engine_series

let commands =
  ("report", fun () -> List.iter (fun (_, f) -> f ()) reports) :: experiments

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] -> List.iter (fun (_, f) -> f ()) experiments
  | [ "json" ] -> bench_json ~small:false ()
  | [ "json"; "small" ] -> bench_json ~small:true ()
  | names -> (
      match List.filter (fun n -> not (List.mem_assoc n commands)) names with
      | [] -> List.iter (fun n -> (List.assoc n commands) ()) names
      | unknown :: _ ->
          Printf.eprintf "unknown experiment %s (%s, json [small])\n" unknown
            (String.concat ", " (List.map fst commands));
          exit 2)
