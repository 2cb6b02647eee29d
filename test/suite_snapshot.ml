(* Persistent snapshot round-trips: [Bottom_up.import] of a saved export
   must be indistinguishable from the materialisation it was exported
   from — identical fact sets, identical deterministic stats text, and
   identical witnesses — across the indexed, scan and spatial engine
   configurations. On top of the logic layer, the Query
   units pin the coherence contract: a stale content hash is reported
   (never silently reused), a corrupted or truncated file is rejected
   with a clean error, and the persisted update log replays on load. *)

open Gdp_logic
open Gdp_space
open Gdp_core

let a = Term.atom
let v = Term.var

let engine_db_of src =
  let db = Engine.create () in
  Engine.consult db src;
  db

let with_temp f =
  let path = Filename.temp_file "gdprs_snap_test" ".gdpx" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* [pp_stats] deliberately omits wall-clock timings, so the rendered
   block is a deterministic fingerprint of every counter the snapshot
   must restore (facts, passes, firings, per-stratum sizes, provenance
   and maintenance counters). *)
let stats_text fp = Format.asprintf "%a" Bottom_up.pp_stats (Bottom_up.stats fp)

let witness_key fp t =
  match Bottom_up.witness fp t with
  | None -> "-"
  | Some (rule, steps) ->
      Printf.sprintf "%d:%s" rule
        (String.concat ";"
           (List.map
              (function
                | Bottom_up.Wfact u -> "f " ^ Term.to_string u
                | Bottom_up.Wnaf u -> "n " ^ Term.to_string u
                | Bottom_up.Wguard u -> "g " ^ Term.to_string u)
              steps))

(* One logic-layer round trip: run cold, save, load into an identically
   seeded fresh database, compare. Returns an error description instead
   of a bool so QCheck failures say which leg diverged. *)
let roundtrip_check ~indexing mk_db =
  with_temp @@ fun path ->
  let cold = Bottom_up.run ~indexing (mk_db ()) in
  let (_ : int) =
    Snapshot.save ~path
      { Snapshot.key = "k"; meta = "m"; state = Bottom_up.export cold }
  in
  let snap, (_ : int) = Snapshot.load ~path () in
  let warm = Bottom_up.import ~indexing (mk_db ()) snap.Snapshot.state in
  if snap.Snapshot.key <> "k" || snap.Snapshot.meta <> "m" then
    Error "key/meta did not round-trip"
  else if
    not (List.equal Term.equal (Bottom_up.facts cold) (Bottom_up.facts warm))
  then Error "fact sets differ"
  else if stats_text cold <> stats_text warm then
    Error
      (Printf.sprintf "stats differ:\ncold:\n%s\nwarm:\n%s" (stats_text cold)
         (stats_text warm))
  else if
    not
      (List.for_all
         (fun t -> witness_key cold t = witness_key warm t)
         (Bottom_up.facts cold))
  then Error "witnesses differ"
  else Ok ()

let rt_agrees src =
  let mk () = engine_db_of src in
  List.for_all
    (fun indexing ->
      match roundtrip_check ~indexing mk with
      | Ok () -> true
      | Error e ->
          QCheck.Test.fail_report (Printf.sprintf "indexing=%b: %s" indexing e))
    [ true; false ]

(* The same random-program distributions the differential engine suite
   runs (310 programs per full pass): positive non-recursive programs,
   then the full stratified fragment with recursion, negation and
   guards. *)
let prop_roundtrip =
  QCheck.Test.make ~name:"snapshot round-trip on random positive programs"
    ~count:60
    (QCheck.make ~print:(fun s -> s) Suite_engine_props.gen_program)
    rt_agrees

let prop_roundtrip_stratified =
  QCheck.Test.make
    ~name:
      "snapshot round-trip on random stratified programs with negation and \
       guards (indexed, scan, lineage)"
    ~count:250
    (QCheck.make ~print:(fun s -> s) Suite_engine_props.gen_stratified_program)
    rt_agrees

(* Spatial configuration: region/space declarations drive native builtin
   evaluation and lazily built spatial indexes; the import must rebuild
   them and reproduce the exact model and counters. *)
let spatial_spec_db () =
  let spec = Spec.create () in
  Spec.declare_region spec "zone"
    (Region.rect ~min_x:0.0 ~min_y:0.0 ~max_x:6.0 ~max_y:6.0);
  Spec.declare_space spec (Resolution.uniform ~name:"grid" 2.0);
  let db = Engine.create () in
  Gdp_builtins.install spec db;
  List.iteri
    (fun i (x, y) ->
      Database.fact db
        (Term.app "site"
           [ a (Printf.sprintf "s%d" i); Gfact.pos_term (Point.make x y) ]))
    [ (1.0, 1.0); (2.5, 3.0); (5.0, 5.0); (8.0, 2.0); (9.0, 9.0) ];
  Engine.consult db
    {|
    inz(A) :- site(A, P), region_mem(zone, P).
    near(A, B) :- site(A, P), site(B, Q), pt_dist(P, Q, D), D < 4.
    outz(A) :- site(A, P), \+ inz(A).
    linkz(A, B) :- inz(A), near(A, B).
    |};
  (spec, db)

let test_spatial_roundtrip () =
  List.iter
    (fun spatial_indexing ->
      with_temp @@ fun path ->
      let run_leg () =
        let spec, db = spatial_spec_db () in
        (Compile.spatial_hints spec, db)
      in
      let spatial, db = run_leg () in
      let cold = Bottom_up.run ~spatial ~spatial_indexing db in
      let (_ : int) =
        Snapshot.save ~path
          { Snapshot.key = "k"; meta = ""; state = Bottom_up.export cold }
      in
      let snap, (_ : int) = Snapshot.load ~path () in
      let spatial2, db2 = run_leg () in
      let warm =
        Bottom_up.import ~spatial:spatial2 ~spatial_indexing db2
          snap.Snapshot.state
      in
      Alcotest.(check bool)
        (Printf.sprintf "facts agree (spatial_indexing=%b)" spatial_indexing)
        true
        (List.equal Term.equal (Bottom_up.facts cold) (Bottom_up.facts warm));
      Alcotest.(check string)
        (Printf.sprintf "stats agree (spatial_indexing=%b)" spatial_indexing)
        (stats_text cold) (stats_text warm))
    [ true; false ]

(* ------------------------------------------------------- Query layer *)

(* The materializable running example of the query suite: a link chain,
   its recursive closure, negation over a lower stratum and an ERROR
   constraint. *)
let datalog_spec () =
  let spec = Spec.create () in
  Spec.declare_objects spec [ "n1"; "n2"; "n3"; "n4" ];
  List.iter
    (fun (x, y) -> Spec.add_fact spec (Gfact.make "link" ~objects:[ a x; a y ]))
    [ ("n1", "n2"); ("n2", "n3"); ("n3", "n4") ];
  Spec.add_fact spec (Gfact.make "flagged" ~objects:[ a "n3" ]);
  let x = v "X" and y = v "Y" and z = v "Z" in
  Spec.add_rule spec ~name:"reach_base"
    ~head:(Gfact.make "reach" ~objects:[ x; y ])
    Formula.(Atom (Gfact.make "link" ~objects:[ x; y ]));
  Spec.add_rule spec ~name:"reach_step"
    ~head:(Gfact.make "reach" ~objects:[ x; y ])
    Formula.(
      And
        ( Atom (Gfact.make "link" ~objects:[ x; z ]),
          Atom (Gfact.make "reach" ~objects:[ z; y ]) ));
  Spec.add_rule spec ~name:"clear" ~head:(Gfact.make "clear" ~objects:[ x ])
    Formula.(
      And
        ( Atom (Gfact.make "link" ~objects:[ x; v "_Y" ]),
          Not (Atom (Gfact.make "flagged" ~objects:[ x ])) ));
  spec

let reach_all q =
  List.sort_uniq compare
    (List.map
       (Format.asprintf "%a" Gfact.pp)
       (Query.solutions q (Gfact.make "reach" ~objects:[ v "X"; v "Y" ])))

let mat spec = Query.with_mode (Query.create spec) Query.Materialized

let test_query_roundtrip () =
  with_temp @@ fun path ->
  let q1 = mat (datalog_spec ()) in
  let bytes, facts = Query.save_snapshot q1 path in
  Alcotest.(check bool) "wrote bytes" true (bytes > 0);
  Alcotest.(check bool) "wrote facts" true (facts > 0);
  let q2 = mat (datalog_spec ()) in
  (match Query.of_snapshot q2 path with
  | Ok (b, f) ->
      Alcotest.(check int) "bytes agree" bytes b;
      Alcotest.(check int) "facts agree" facts f
  | Error e -> Alcotest.failf "load failed: %s" (Query.snapshot_error_message e));
  Alcotest.(check bool) "snapshot_loaded" true (Query.snapshot_loaded q2 <> None);
  Alcotest.(check (list string)) "answers agree" (reach_all q1) (reach_all q2);
  Alcotest.(check bool) "negation stratum agrees"
    (Query.holds q1 (Gfact.make "clear" ~objects:[ a "n1" ]))
    (Query.holds q2 (Gfact.make "clear" ~objects:[ a "n1" ]))

let test_stale_hash_rebuild () =
  with_temp @@ fun path ->
  let q1 = mat (datalog_spec ()) in
  let (_ : int * int) = Query.save_snapshot q1 path in
  (* an edited spec: one extra base fact changes the content hash *)
  let spec2 = datalog_spec () in
  Spec.add_fact spec2 (Gfact.make "link" ~objects:[ a "n4"; a "n1" ]);
  let q2 = mat spec2 in
  (match Query.of_snapshot q2 path with
  | Error (Query.Snapshot_stale _) -> ()
  | Error (Query.Snapshot_corrupt m) -> Alcotest.failf "corrupt, not stale: %s" m
  | Ok _ -> Alcotest.fail "stale snapshot silently reused");
  Alcotest.(check bool) "nothing loaded" true (Query.snapshot_loaded q2 = None);
  (* the caller rebuilds in memory: answers reflect the edited spec *)
  Alcotest.(check bool) "rebuilt model answers from the edited spec" true
    (Query.holds q2 (Gfact.make "reach" ~objects:[ a "n4"; a "n2" ]));
  (* an engine-configuration change alone is also stale *)
  let spec3 = datalog_spec () in
  spec3.Spec.spatial_indexing <- false;
  match Query.of_snapshot (mat spec3) path with
  | Error (Query.Snapshot_stale _) -> ()
  | Error (Query.Snapshot_corrupt m) -> Alcotest.failf "corrupt, not stale: %s" m
  | Ok _ -> Alcotest.fail "config mismatch silently reused"

let test_corrupt_rejected () =
  with_temp @@ fun path ->
  let q1 = mat (datalog_spec ()) in
  let bytes, _ = Query.save_snapshot q1 path in
  let expect_corrupt what =
    match Query.of_snapshot (mat (datalog_spec ())) path with
    | Error (Query.Snapshot_corrupt _) -> ()
    | Error (Query.Snapshot_stale m) ->
        Alcotest.failf "%s reported stale, not corrupt: %s" what m
    | Ok _ -> Alcotest.failf "%s accepted" what
  in
  (* truncation *)
  let contents = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub contents 0 (bytes - 7)));
  expect_corrupt "truncated file";
  (* a flipped payload byte fails the digest *)
  let flipped = Bytes.of_string contents in
  let i = String.length contents - 3 in
  Bytes.set flipped i (Char.chr (Char.code (Bytes.get flipped i) lxor 1));
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc flipped);
  expect_corrupt "bit-flipped file";
  (* a version-1 header over an intact digest and payload: an older
     build's file is refused before Marshal reads it *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "GDPXSNAP1\n";
      Out_channel.output_string oc
        (String.sub contents 10 (String.length contents - 10)));
  expect_corrupt "version-1 file";
  (* likewise a version-2 file, whose counter record has a field the
     current one lacks *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "GDPXSNAP2\n";
      Out_channel.output_string oc
        (String.sub contents 10 (String.length contents - 10)));
  expect_corrupt "version-2 file";
  (* and a version-3 file, whose relations carry a list of indexes the
     current ones lack *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "GDPXSNAP3\n";
      Out_channel.output_string oc
        (String.sub contents 10 (String.length contents - 10)));
  expect_corrupt "version-3 file";
  (* not a snapshot at all *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "not a snapshot");
  expect_corrupt "garbage file";
  (* and the logic layer raises Corrupt rather than crashing in Marshal *)
  match Snapshot.load ~path () with
  | exception Snapshot.Corrupt _ -> ()
  | _ -> Alcotest.fail "Snapshot.load accepted garbage"

let test_update_log_replay () =
  with_temp @@ fun path ->
  let q1 = mat (datalog_spec ()) in
  let (_ : int * int) = Query.save_snapshot q1 path in
  (* maintain the live fixpoint, then re-save: the persisted update log
     grows (what `gdprs update --snapshot` does) *)
  ignore (Query.update q1 [ `Assert (Gfact.make "link" ~objects:[ a "n4"; a "n1" ]) ]);
  ignore (Query.update q1 [ `Retract (Gfact.make "flagged" ~objects:[ a "n3" ]) ]);
  let (_ : int * int) = Query.save_snapshot q1 path in
  (* a fresh compile of the pristine spec loads the snapshot and replays
     the persisted suffix of the log *)
  let spec2 = datalog_spec () in
  let q2 = mat spec2 in
  (match Query.of_snapshot q2 path with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "load failed: %s" (Query.snapshot_error_message e));
  Alcotest.(check int) "replayed updates are logged on the fresh spec" 2
    (List.length (Spec.update_log spec2));
  Alcotest.(check (list string)) "closure agrees with the maintained query"
    (reach_all q1) (reach_all q2);
  Alcotest.(check bool) "retraction replayed" true
    (Query.holds q2 (Gfact.make "clear" ~objects:[ a "n3" ]));
  (* equivalence with applying the same script to a fresh compile *)
  let q3 = mat (datalog_spec ()) in
  ignore
    (Query.update q3
       [
         `Assert (Gfact.make "link" ~objects:[ a "n4"; a "n1" ]);
         `Retract (Gfact.make "flagged" ~objects:[ a "n3" ]);
       ]);
  Alcotest.(check (list string)) "replay == fresh apply" (reach_all q3)
    (reach_all q2)

let tests =
  [
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_roundtrip_stratified;
    Alcotest.test_case "spatial round-trip" `Quick test_spatial_roundtrip;
    Alcotest.test_case "query-layer round-trip" `Quick test_query_roundtrip;
    Alcotest.test_case "stale hash is rebuilt, never reused" `Quick
      test_stale_hash_rebuild;
    Alcotest.test_case "corrupted/truncated files are rejected" `Quick
      test_corrupt_rejected;
    Alcotest.test_case "update-log replay equivalence" `Quick
      test_update_log_replay;
  ]
