(* Persistent snapshot round-trips: [Bottom_up.import] of a saved export
   must be indistinguishable from the materialisation it was exported
   from — identical fact sets, identical deterministic stats text, and
   identical ranks and proofs. A snapshot of a [Scan] or [Spatial_scan]
   baseline run must import into the default evaluation with the same
   facts, stats text, ranks and bytes. On top of the logic layer, the
   Query units pin the coherence contract: a stale content hash is reported
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

(* a stored fact's rank and its rebuilt proof, rendered *)
let lineage_key fp t =
  ( Bottom_up.rank fp t,
    Option.map (Format.asprintf "%a" (Explain.pp ?pp_goal:None))
      (Bottom_up.proof fp t) )

let payload (st : Bottom_up.snapshot_state) = String.sub st.data st.pos st.len
let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* One logic-layer round trip: run cold, save, load into an identically
   seeded fresh database, compare. Returns an error description instead
   of a bool so QCheck failures say which leg diverged. A [baseline] run
   imports into the default plans, so only a default run's proofs must
   match: the first rank-bounded firing a proof shows follows the plan. *)
let roundtrip_check ?baseline mk_db =
  with_temp @@ fun path ->
  let cold = Bottom_up.run ?baseline (mk_db ()) in
  let (_ : int) =
    Snapshot.save ~path
      { Snapshot.key = "k"; meta = "m"; state = Bottom_up.export cold }
  in
  let snap, (_ : int) = Snapshot.load ~path () in
  let warm = Bottom_up.import (mk_db ()) snap.Snapshot.state in
  let lineage_key fp t =
    if baseline = None then lineage_key fp t else (Bottom_up.rank fp t, None)
  in
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
         (fun t -> lineage_key cold t = lineage_key warm t)
         (Bottom_up.facts cold))
  then Error "ranks or proofs differ"
  else if payload (Bottom_up.export cold) <> payload (Bottom_up.export warm)
  then Error "the import re-exports to different bytes"
  else Ok ()

let rt_agrees src =
  let mk () = engine_db_of src in
  List.for_all
    (fun (name, baseline) ->
      match roundtrip_check ?baseline mk with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_report (Printf.sprintf "%s: %s" name e))
    [ ("default", None); ("scan baseline", Some Bottom_up.Scan) ]

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

(* Spatial hooks: region/space declarations drive native builtin
   evaluation and spatial indexes; the import must rebuild them and
   reproduce the exact model, counters and bytes — also from a
   [Spatial_scan] baseline run. *)
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
    (fun (name, baseline) ->
      with_temp @@ fun path ->
      let run_leg () =
        let spec, db = spatial_spec_db () in
        (Compile.spatial_hints spec, db)
      in
      let spatial, db = run_leg () in
      let cold = Bottom_up.run ?baseline ~spatial db in
      let (_ : int) =
        Snapshot.save ~path
          { Snapshot.key = "k"; meta = ""; state = Bottom_up.export cold }
      in
      let snap, (_ : int) = Snapshot.load ~path () in
      let spatial2, db2 = run_leg () in
      let warm = Bottom_up.import ~spatial:spatial2 db2 snap.Snapshot.state in
      Alcotest.(check bool)
        (Printf.sprintf "facts agree (%s)" name)
        true
        (List.equal Term.equal (Bottom_up.facts cold) (Bottom_up.facts warm));
      Alcotest.(check string)
        (Printf.sprintf "stats agree (%s)" name)
        (stats_text cold) (stats_text warm);
      Alcotest.(check bool)
        (Printf.sprintf "re-exported bytes agree (%s)" name)
        true
        (payload (Bottom_up.export cold) = payload (Bottom_up.export warm)))
    [
      ("default", None); ("spatial scan baseline", Some Bottom_up.Spatial_scan);
    ]

(* Retracting an imported fact must drop its spatial index entry. The
   index finds an entry by [==], so the store has to hand it the copy it
   holds, not the structurally equal term the update built. The import
   makes sure no stored fact is shared with the update's terms. A new
   site asserted next to the retracted one would pick a stale entry up
   through the guarded [close/2] join. *)
let test_spatial_removal () =
  let site name x y =
    Term.app "site" [ a name; Gfact.pos_term (Point.make x y) ]
  in
  let sites =
    [ site "s0" 1.0 1.0; site "s1" 2.5 3.0; site "s2" 5.0 5.0; site "s3" 8.0 2.0 ]
  in
  let gone = site "s1" 2.5 3.0 and added = site "s9" 2.5 3.5 in
  let leg facts =
    let spec = Spec.create () in
    let db = Engine.create () in
    Gdp_builtins.install spec db;
    List.iter (Database.fact db) facts;
    Engine.consult db
      "close(A, B) :- site(A, P), site(B, Q), pt_dist(P, Q, D), D < 4.";
    (Compile.spatial_hints spec, db)
  in
  let spatial, db = leg sites in
  let cold = Bottom_up.run ~spatial db in
  let spatial, db = leg sites in
  let warm = Bottom_up.import ~spatial db (Bottom_up.export cold) in
  Bottom_up.apply warm [ `Retract gone; `Assert added ];
  Alcotest.(check (list string))
    "close/2 no longer yields the retracted site"
    []
    (List.filter_map
       (function
         | Term.App ("close", [ x; y ]) as t
           when Term.equal x (a "s1") || Term.equal y (a "s1") ->
             Some (Term.to_string t)
         | _ -> None)
       (Bottom_up.facts warm));
  let spatial, db =
    leg (List.filter (fun t -> not (Term.equal t gone)) sites @ [ added ])
  in
  let fresh = Bottom_up.run ~spatial db in
  Alcotest.(check (list string))
    "the model equals a from-scratch run"
    (List.map Term.to_string (Bottom_up.facts fresh))
    (List.map Term.to_string (Bottom_up.facts warm))

(* What an export declares: its symbols, its node count and the names
   of the relations it lists. *)
let declared (st : Bottom_up.snapshot_state) =
  let r = Wire.reader st.data ~pos:st.pos ~len:st.len in
  let skip n read = for _ = 1 to n do ignore (read r : int) done in
  skip 2 Wire.nat;
  skip 23 Wire.int;
  skip (6 * Wire.nat r) Wire.int;
  let n_syms = Wire.nat r in
  let n_nodes = Wire.nat r in
  let syms = List.init n_syms (fun _ -> Wire.string r) in
  for _ = 1 to n_nodes do
    match Wire.byte r with
    | 2 -> ignore (Wire.float r : float)
    | 4 -> skip 1 Wire.nat; skip (Wire.nat r) Wire.nat
    | _ -> skip 1 Wire.nat
  done;
  let rels =
    List.init (Wire.nat r) (fun _ ->
        let name = List.nth syms (Wire.nat r) in
        skip 2 Wire.nat;
        let n = Wire.nat r in
        skip (2 * n) Wire.nat;
        skip (Wire.nat r) Wire.nat;
        name)
  in
  (syms, n_nodes, rels)

(* An export's bytes from its symbol count on: the symbols, nodes and
   relations, without the header of counts, counters and per-stratum
   statistics. *)
let body (st : Bottom_up.snapshot_state) =
  let r = Wire.reader st.data ~pos:st.pos ~len:st.len in
  let skip n read = for _ = 1 to n do ignore (read r : int) done in
  skip 2 Wire.nat;
  skip 23 Wire.int;
  skip (6 * Wire.nat r) Wire.int;
  let n = Wire.remaining r in
  String.sub st.data (st.pos + st.len - n) n

let distinct_subterms facts =
  let seen = Path_key.Tbl.create 64 in
  let rec go t =
    if not (Path_key.Tbl.mem seen t) then begin
      Path_key.Tbl.replace seen t ();
      match t with Term.App (_, args) -> List.iter go args | _ -> ()
    end
  in
  List.iter go facts;
  Path_key.Tbl.length seen

(* Export numbers nodes structurally, so sharing does not depend on
   how the store was built. A fixpoint imported and then maintained
   through a script declares as many nodes as a from-scratch run of the
   final database, one per distinct subterm. It declares the same
   symbols too, except for the names of relations only it still lists:
   a relation an update emptied stays listed. *)
let prop_export_sharing =
  QCheck.Test.make
    ~name:"export shares nodes structurally, warm or from scratch" ~count:100
    Suite_incremental.arb_case
    (fun (src, script) ->
      let refine = Suite_incremental.refine in
      let db = engine_db_of src in
      let warm =
        Bottom_up.import ~refine (engine_db_of src)
          (Bottom_up.export (Bottom_up.run ~refine db))
      in
      List.iter
        (fun (asserted, fact_src) ->
          let t = Reader.term fact_src in
          if asserted then begin
            if Bottom_up.assert_fact warm t then Database.fact db t
          end
          else if Bottom_up.retract_fact warm t then
            ignore (Database.retract_fact db t : bool))
        script;
      let fresh = Bottom_up.run ~refine db in
      (* a warm export loads and exports again to the same bytes *)
      let again =
        Bottom_up.export
          (Bottom_up.import ~refine (engine_db_of src) (Bottom_up.export warm))
      in
      String.equal (payload again) (payload (Bottom_up.export warm))
      &&
      let w_syms, w_nodes, w_rels = declared (Bottom_up.export warm) in
      let f_syms, f_nodes, f_rels = declared (Bottom_up.export fresh) in
      let only_warm = List.filter (fun n -> not (List.mem n f_rels)) w_rels in
      w_nodes = f_nodes
      && f_nodes = distinct_subterms (Bottom_up.facts fresh)
      && List.sort_uniq compare w_syms
         = List.sort_uniq compare (f_syms @ only_warm)
      && List.length w_syms = List.length (List.sort_uniq compare w_syms))

(* The 200-junction roadnet spec the query benchmark compiles, at seed
   1: 21,700 facts in 42,811 nodes. Structural numbering must keep the
   file as small as numbering hash-consed terms by [==] kept it, and
   the whole state is pinned byte for byte: the symbols, nodes and
   relations are written in the order of a walk over the relations in
   insertion order, however the store holds them, and the header holds
   counts and counters only. *)
let test_roadnet_nodes () =
  let net = Roadnet.generate (Gdp_workload.Rng.create 1L) ~n:200 in
  let r = Gdp_lang.Elaborate.load_string (Roadnet.to_gdp net) in
  let q = Query.with_mode (Gdp_lang.Elaborate.query r ()) Query.Materialized in
  let st = Bottom_up.export (Query.materialization q) in
  let _, nodes, _ = declared st in
  Alcotest.(check int) "nodes written" 42_811 nodes;
  Alcotest.(check int) "bytes" 470_691 st.len;
  Alcotest.(check string) "the state's digest"
    "5f32b3500b7f9b36ad544901e6a676c9"
    (Digest.to_hex (Digest.string (payload st)));
  let body = body st in
  Alcotest.(check int) "bytes from the symbol count on" 470_635
    (String.length body);
  Alcotest.(check string) "their digest"
    "9559209c87d4e104ef44504e72b775b9"
    (Digest.to_hex (Digest.string body))

(* A hand-written state: the header of an empty store of [db]'s program
   (with the fact counts), the [syms], one record per element of
   [nodes], and one relation [name]/[arity] holding [facts], every one
   of them asserted. *)
let handmade db ~syms ~nodes ~name ~arity ~facts =
  let n_strata =
    let st = Bottom_up.export (Bottom_up.run db) in
    Wire.nat (Wire.reader st.data ~pos:st.pos ~len:st.len)
  in
  let b = Buffer.create 256 and n = List.length facts in
  List.iter (Wire.add_nat b) [ n_strata; n ];
  List.iter (Wire.add_int b) (n :: List.init 22 (fun _ -> 0));
  List.iter (Wire.add_nat b) [ 0; List.length syms; List.length nodes ];
  List.iter (Wire.add_string b) syms;
  List.iter (fun node -> node b) nodes;
  List.iter (Wire.add_nat b) ([ 1; name; arity; 0; n ] @ facts);
  (* ranks 0 .. n - 1 and base positions 0 .. n - 1, as gaps *)
  List.iter (Wire.add_nat b)
    (List.init n (fun _ -> 0) @ (n :: List.init n (fun _ -> 0)));
  let data = Buffer.contents b in
  { Bottom_up.data; pos = 0; len = String.length data }

let atom_rec sym b =
  Buffer.add_uint8 b 0;
  Wire.add_nat b sym

let app_rec sym kids b =
  Buffer.add_uint8 b 4;
  List.iter (Wire.add_nat b) (sym :: List.length kids :: kids)

(* The file numbers nodes structurally, so a node record that repeats an
   earlier one is damage; the error names both records. *)
let test_repeated_node () =
  let db = engine_db_of "" in
  let st =
    handmade db ~syms:[ "p"; "a" ]
      ~nodes:[ atom_rec 1; app_rec 0 [ 0 ]; app_rec 0 [ 0 ] ]
      ~name:0 ~arity:1 ~facts:[ 1 ]
  in
  match Bottom_up.import db st with
  | exception Snapshot.Corrupt msg ->
      Alcotest.(check string) "error" "node 2 repeats node 1" msg
  | _ -> Alcotest.fail "a repeated node record was accepted"

(* A record may declare more children than the file has bytes; the
   load must not trust the count. *)
let test_oversized_arity () =
  let db = engine_db_of "" in
  let huge b =
    Buffer.add_uint8 b 4;
    List.iter (Wire.add_nat b) [ 0; 1 lsl 40 ]
  in
  let st =
    handmade db ~syms:[ "p" ] ~nodes:[ huge ] ~name:0 ~arity:1 ~facts:[]
  in
  match Bottom_up.import db st with
  | exception Snapshot.Corrupt _ -> ()
  | _ -> Alcotest.fail "a record with 2^40 children was accepted"

(* The children go into chunks added as the records arrive, so a
   declared arity is clamped by the bytes left before any slot is
   reserved for it: a record claiming 2^22 children (32 MB of slots) in
   a file of a few dozen bytes is refused with next to no allocation. *)
let test_arity_reserves_nothing () =
  let db = engine_db_of "" in
  let huge b =
    Buffer.add_uint8 b 4;
    List.iter (Wire.add_nat b) [ 0; 1 lsl 22; 0 ]
  in
  let st =
    handmade db ~syms:[ "p"; "a" ] ~nodes:[ atom_rec 1; huge ] ~name:0
      ~arity:1 ~facts:[ 0 ]
  in
  let before = Gc.allocated_bytes () in
  let outcome =
    match Bottom_up.import db st with
    | exception Snapshot.Corrupt msg -> Some msg
    | _ -> None
  in
  let mb = (Gc.allocated_bytes () -. before) /. 1e6 in
  Alcotest.(check bool)
    (Printf.sprintf "allocated %.2f MB, under 4 MB" mb)
    true (mb < 4.0);
  match outcome with
  | Some msg ->
      Alcotest.(check bool)
        ("the arity is refused: " ^ msg)
        true
        (String.starts_with ~prefix:"argument count 4194304 exceeds" msg)
  | None -> Alcotest.fail "a record with 2^22 children was accepted"

(* A fact whose argument is the 64-node DAG d(k+1) = f(d(k), d(k)): its
   tree has 2^63 nodes, so anything that walks it as a tree never ends.
   Loading interns each record once, and counting and a probe that
   misses it never rebuild it. *)
let test_deep_dag () =
  let db = engine_db_of "" in
  let depth = 64 in
  let nodes =
    atom_rec 2
    :: List.init depth (fun k -> app_rec 1 [ k; k ])
    @ [ app_rec 0 [ depth ] ]
  in
  let st =
    handmade db ~syms:[ "big"; "f"; "z" ] ~nodes ~name:0 ~arity:1
      ~facts:[ depth + 1 ]
  in
  let t0 = Sys.time () in
  let fp = Bottom_up.import db st in
  Alcotest.(check int) "count" 1 (Bottom_up.count fp);
  let miss = Term.app "big" [ Term.app "f" [ a "z"; v "X" ] ] in
  Alcotest.(check int) "probe" 0 (List.length (Bottom_up.probe fp miss));
  Alcotest.(check bool) "holds" false
    (Bottom_up.holds fp (Term.app "big" [ a "z" ]));
  Alcotest.(check bool) "under a second" true (Sys.time () -. t0 < 1.0)

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
    (Query.holds q2 (Gfact.make "reach" ~objects:[ a "n4"; a "n2" ]))

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
     build's file is refused before its payload is decoded *)
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
  (* and a version-4 file, the last Marshal payload *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "GDPXSNAP4\n";
      Out_channel.output_string oc
        (String.sub contents 10 (String.length contents - 10)));
  expect_corrupt "version-4 file";
  (* and a version-5 file, whose relations carry witnesses and whose
     update log is a Marshal payload *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "GDPXSNAP5\n";
      Out_channel.output_string oc
        (String.sub contents 10 (String.length contents - 10)));
  expect_corrupt "version-5 file";
  (* and a version-6 file, whose stratum statistics carry a wall-clock
     time *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "GDPXSNAP6\n";
      Out_channel.output_string oc
        (String.sub contents 10 (String.length contents - 10)));
  expect_corrupt "version-6 file";
  (* not a snapshot at all *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "not a snapshot");
  expect_corrupt "garbage file";
  (* and the logic layer raises Corrupt rather than crashing *)
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

(* ---------------------------------------------------- the snapshot key *)

(* [Compile.content_hash] is the key every saved [.gdpx] file carries: a
   change to it turns every snapshot already on disk stale. These values
   pin it on the example specifications, parsed from their files and
   built through [Spec] directly, under the views a CLI run uses and
   under every standard meta-model. *)
let census_spec () =
  let rng = Gdp_workload.Rng.create 7L in
  let census =
    Gdp_workload.Census.generate rng ~n_states:5 ~cities_per_state:4
      ~capital_bug_probability:0.2 ()
  in
  let spec = Spec.create () in
  Meta.install_standard spec;
  Gdp_workload.Census.add_to_spec census spec ();
  Gdp_workload.Census.add_constraints spec ();
  Gdp_workload.Census.add_large_city_rule spec ~threshold:1_000_000 ();
  spec

let pinned_specs =
  (* [dune test] runs in [_build/default/test]; a direct run of the
     executable from the repository root finds the same files *)
  let parsed path () =
    let path = if Sys.file_exists path then path else Filename.concat "test" path in
    let r = Gdp_lang.Elaborate.load_file path in
    (r.Gdp_lang.Elaborate.spec, r.Gdp_lang.Elaborate.uses)
  in
  [
    ("terrain_mapping.gdp", parsed "../examples/terrain_mapping.gdp");
    ("demo.gdp", parsed "cli.t/demo.gdp");
    ("census (built)", fun () -> (census_spec (), []));
    ( "census (parsed)",
      fun () ->
        let r = Gdp_lang.Elaborate.load_string (Gdp_lang.Pretty.spec_to_string (census_spec ())) in
        (r.Gdp_lang.Elaborate.spec, r.Gdp_lang.Elaborate.uses) );
  ]

let pinned_hashes =
  [
    ("terrain_mapping.gdp", "uses", "22b41b7f0fd75338f7d23a6767ff738d");
    ("terrain_mapping.gdp", "standard", "a66b573466ff45193cd05015e344ca6e");
    ("demo.gdp", "uses", "7d8143b3fc9c5d5f7d1dee2d1c1bc437");
    ("demo.gdp", "standard", "6ba2626cbf3b9596576e21ebeec7ef8c");
    ("census (built)", "uses", "6324bbffa09c33dc655ad6548a43ad08");
    ("census (built)", "standard", "b65d351e8c18d68427051ae8d5b8bda1");
    ("census (parsed)", "uses", "6324bbffa09c33dc655ad6548a43ad08");
    ("census (parsed)", "standard", "063a1c613027288480e1fb39d9b43558");
  ]

let test_pinned_hashes () =
  let actual =
    List.map
      (fun (name, views, _) ->
        let spec, uses = (List.assoc name pinned_specs) () in
        let meta_view = if views = "uses" then uses else Meta.standard_names in
        (name, views, Compile.content_hash (Compile.compile ~meta_view spec)))
      pinned_hashes
  in
  Alcotest.(check (list (triple string string string)))
    "content hashes" pinned_hashes actual

(* The key is the clause sequence as compiled, before the update-log
   replay and the meta clauses: updates applied to the live database
   before the first read, and the meta clauses asserted at the end of the
   compile, must leave it equal to a fresh compile's, and the snapshot it
   keys must load as fresh. *)
let notes_meta () =
  {
    Spec.meta_name = "notes";
    meta_doc = "two facts";
    meta_clauses = Reader.program "note(a). note(b).";
    needs_loop_check = false;
  }

let test_hash_after_updates () =
  with_temp @@ fun path ->
  let spec_of () =
    let spec = datalog_spec () in
    Spec.add_meta_model spec (notes_meta ());
    spec
  in
  let q1 =
    Query.with_mode (Query.create ~meta_view:[ "notes" ] (spec_of ())) Query.Materialized
  in
  ignore (Query.update q1 [ `Assert (Gfact.make "link" ~objects:[ a "n4"; a "n1" ]) ]);
  ignore (Query.update q1 [ `Retract (Gfact.make "flagged" ~objects:[ a "n3" ]) ]);
  let (_ : int * int) = Query.save_snapshot q1 path in
  let snap, (_ : int) = Snapshot.load ~path () in
  let fresh = Compile.compile ~meta_view:[ "notes" ] (spec_of ()) in
  Alcotest.(check string) "key after updates = fresh compile's key"
    (Compile.content_hash fresh) snap.Snapshot.key;
  let q2 =
    Query.with_mode (Query.create ~meta_view:[ "notes" ] (spec_of ())) Query.Materialized
  in
  match Query.of_snapshot q2 path with
  | Ok _ -> Alcotest.(check (list string)) "answers agree" (reach_all q1) (reach_all q2)
  | Error e -> Alcotest.failf "load failed: %s" (Query.snapshot_error_message e)

(* ------------------------------------------- encoding and hostile files *)

(* Every node kind the encoding has — atoms, ints, floats, strings,
   compounds and lists — and every premise kind a proof has: positive,
   negated and guard. *)
let fuzz_src =
  {|
  e(a, b). e(b, c). e(c, a). e(c, d).
  node(a). node(b). node(c). node(d). node(z).
  val(a, 1). val(b, 2.5). val(c, 4).
  name(a, "alpha"). name(d, "delta").
  route(a, [a, b, c]).
  note(z, 0.5).
  r(X, Y) :- e(X, Y).
  r(X, Y) :- e(X, Z), r(Z, Y).
  hub(X) :- e(X, Y).
  iso(X) :- node(X), \+ hub(X).
  big(X) :- val(X, N), N >= 2.
  twice(X, M) :- val(X, N), M is N * 2.
  tagged(X, S) :- name(X, S), \+ iso(X).
  via(X, L) :- route(X, L), r(X, X).
  |}

let fuzz_db () = engine_db_of fuzz_src

(* export, save, load, import and export again: the same bytes, for a
   cold store and for one an update batch has maintained — including a
   relation no rule reads, emptied by the batch. A second cold run of
   the database exports the same bytes too: nothing run-dependent, such
   as a timing, reaches the state. *)
let test_export_deterministic () =
  let check what fp =
    let first = Bottom_up.export fp in
    with_temp @@ fun path ->
    let (_ : int) =
      Snapshot.save ~path { Snapshot.key = "k"; meta = "m"; state = first }
    in
    let snap, (_ : int) = Snapshot.load ~path () in
    let warm = Bottom_up.import (fuzz_db ()) snap.Snapshot.state in
    Alcotest.(check string) what (payload first)
      (payload (Bottom_up.export warm));
    Alcotest.(check string) (what ^ ", exported twice") (payload first)
      (payload (Bottom_up.export fp))
  in
  let fp = Bottom_up.run (fuzz_db ()) in
  check "cold store" fp;
  Alcotest.(check string) "a second cold run"
    (payload (Bottom_up.export fp))
    (payload (Bottom_up.export (Bottom_up.run (fuzz_db ()))));
  Bottom_up.apply fp
    [
      `Retract (Term.app "e" [ a "c"; a "a" ]);
      `Assert (Term.app "e" [ a "d"; a "z" ]);
      `Assert (Term.app "val" [ a "z"; Term.int 7 ]);
      `Retract (Term.app "note" [ a "z"; Term.float 0.5 ]);
    ];
  check "maintained store" fp

(* The codec's edges: every int and float bit pattern round-trips, and
   reads past the end, overlong varints, negative naturals and
   oversized counts raise Corrupt. *)
let test_wire_edges () =
  let ints = [ 0; 1; -1; 63; -64; 64; max_int; min_int; max_int / 3 ] in
  let floats = [ 0.0; -0.0; 1.5; Float.nan; Float.infinity; -1e300 ] in
  let b = Buffer.create 64 in
  List.iter (Wire.add_int b) ints;
  List.iter (Wire.add_float b) floats;
  Wire.add_string b "sym";
  let s = Buffer.contents b in
  let r = Wire.reader s ~pos:0 ~len:(String.length s) in
  List.iter (fun n -> Alcotest.(check int) "int" n (Wire.int r)) ints;
  List.iter
    (fun f ->
      Alcotest.(check int64) "float bits" (Int64.bits_of_float f)
        (Int64.bits_of_float (Wire.float r)))
    floats;
  Alcotest.(check string) "string" "sym" (Wire.string r);
  Alcotest.(check bool) "at end" true (Wire.at_end r);
  let corrupt what bytes read =
    let r = Wire.reader bytes ~pos:0 ~len:(String.length bytes) in
    match read r with
    | exception Wire.Corrupt _ -> ()
    | (_ : int) -> Alcotest.failf "%s accepted" what
  in
  corrupt "a read past the end" "" Wire.byte;
  corrupt "an overlong varint" (String.make 10 '\xff') Wire.int;
  corrupt "a negative natural" (String.make 8 '\xff' ^ "\x7f") Wire.nat;
  corrupt "a count beyond the bytes left" "\x05ab" (fun r ->
      Wire.count r ~min_bytes:1 "item");
  corrupt "an id out of range" "\x03" (fun r -> Wire.below r 3 "id");
  match Wire.reader "abc" ~pos:2 ~len:2 with
  | exception Wire.Corrupt _ -> ()
  | _ -> Alcotest.fail "a slice past the string accepted"

(* After the magic string comes the MD5 of everything after it. *)
let header = 26

let redigest s =
  if String.length s < header then s
  else
    let b = Bytes.of_string s in
    Bytes.blit_string
      (Digest.substring s header (String.length s - header))
      0 b 10 16;
    Bytes.to_string b

type mutation =
  | Flip of int * int  (** position, xor mask *)
  | Truncate of int
  | Splice of int * int * int  (** source, destination, length: overwrite *)
  | Insert of int * int * int  (** source, destination, length: grow *)

let pp_mutation = function
  | Flip (i, x) -> Printf.sprintf "flip %d ^ %d" i x
  | Truncate i -> Printf.sprintf "truncate %d" i
  | Splice (i, j, n) -> Printf.sprintf "splice %d -> %d (%d)" i j n
  | Insert (i, j, n) -> Printf.sprintf "insert %d -> %d (%d)" i j n

let gen_mutations =
  let open QCheck.Gen in
  let n = int_bound 1_000_000 in
  list_size (int_range 1 3)
    (oneof
       [
         map2 (fun i x -> Flip (i, x)) n n;
         map (fun i -> Truncate i) n;
         map3 (fun i j k -> Splice (i, j, k)) n n n;
         map3 (fun i j k -> Insert (i, j, k)) n n n;
       ])

let arb_mutations =
  QCheck.make gen_mutations ~print:(fun ms ->
      String.concat "; " (List.map pp_mutation ms))

(* Mutate bytes [lo, end) of a string. Positions wrap onto the region. *)
let mutate_bytes ~lo image muts =
  List.fold_left
    (fun s m ->
      let n = String.length s - lo in
      if n <= 0 then s
      else
        let at k = lo + (k mod n) in
        let chunk src len = min (1 + (len mod 24)) (String.length s - src) in
        match m with
        | Flip (i, x) ->
            let b = Bytes.of_string s and i = at i in
            Bytes.set b i (Char.chr (Char.code s.[i] lxor (1 + (x mod 255))));
            Bytes.to_string b
        | Truncate i -> String.sub s 0 (at i)
        | Splice (i, j, len) ->
            let i = at i and j = at j in
            let len = min (chunk i len) (String.length s - j) in
            let b = Bytes.of_string s in
            Bytes.blit_string s i b j len;
            Bytes.to_string b
        | Insert (i, j, len) ->
            let i = at i and j = at j in
            String.sub s 0 j
            ^ String.sub s i (chunk i len)
            ^ String.sub s j (String.length s - j))
    image muts

(* Mutate bytes [lo, end) of a file image, then rewrite its digest so the
   decoder, not the digest check, meets the damage. *)
let mutate ~lo image muts = redigest (mutate_bytes ~lo image muts)

let saved_image () =
  with_temp @@ fun path ->
  let (_ : int) =
    Snapshot.save ~path
      {
        Snapshot.key = "k";
        meta = "m";
        state = Bottom_up.export (Bottom_up.run (fuzz_db ()));
      }
  in
  read_file path

(* Every mutated file either loads or raises Snapshot.Corrupt: no other
   exception (Invalid_argument, Not_found, Stack_overflow, ...) escapes
   the load, the import, or the use of what was imported — a proof of a
   fact the damaged store cannot derive is Corrupt too. The mutations
   reach the key/meta frame too, which this layer never interprets. *)
let prop_hostile_logic =
  let image = lazy (saved_image ()) in
  QCheck.Test.make ~name:"mutated snapshot payloads load or raise Corrupt"
    ~count:400 arb_mutations (fun muts ->
      with_temp @@ fun path ->
      write_file path (mutate ~lo:header (Lazy.force image) muts);
      match Snapshot.load ~path () with
      | exception Snapshot.Corrupt _ -> true
      | snap, (_ : int) -> (
          match Bottom_up.import (fuzz_db ()) snap.Snapshot.state with
          | exception Snapshot.Corrupt _ -> true
          | fp -> (
              ignore (stats_text fp : string);
              ignore (Bottom_up.export fp : Bottom_up.snapshot_state);
              match
                List.iter
                  (fun t ->
                    ignore (Bottom_up.proof fp t : Explain.proof option))
                  (Bottom_up.facts fp)
              with
              | () | (exception Snapshot.Corrupt _) -> true)))

(* A Query-layer snapshot with a non-empty update log in its meta. *)
let query_image =
  lazy
    (with_temp @@ fun path ->
     let q = mat (datalog_spec ()) in
     ignore
       (Query.update q
          [
            `Assert (Gfact.make "link" ~objects:[ a "n4"; a "n1" ]);
            `Retract (Gfact.make "flagged" ~objects:[ a "n3" ]);
          ]);
     let (_ : int * int) = Query.save_snapshot q path in
     let contents = read_file path in
     let snap, (_ : int) = Snapshot.load ~path () in
     (contents, snap))

let query_loads_or_corrupt path =
  let q = mat (datalog_spec ()) in
  match Query.of_snapshot q path with
  | Ok _ ->
      ignore (reach_all q : string list);
      true
  | Error (Query.Snapshot_corrupt _) -> true
  | Error (Query.Snapshot_stale m) ->
      QCheck.Test.fail_reportf "a mutated snapshot reported stale: %s" m

(* The same through the Query layer, with the mutations confined to the
   encoded state. *)
let prop_hostile_query =
  QCheck.Test.make
    ~name:"mutated snapshot states load or report Snapshot_corrupt" ~count:200
    arb_mutations (fun muts ->
      let contents, snap = Lazy.force query_image in
      with_temp @@ fun path ->
      write_file path (mutate ~lo:snap.Snapshot.state.pos contents muts);
      query_loads_or_corrupt path)

(* And with the mutations confined to the update log in [meta], the
   file re-framed and its digest re-signed around the damaged log. *)
let prop_hostile_update_log =
  QCheck.Test.make
    ~name:"mutated update logs load or report Snapshot_corrupt" ~count:200
    arb_mutations (fun muts ->
      let _, snap = Lazy.force query_image in
      with_temp @@ fun path ->
      let (_ : int) =
        Snapshot.save ~path
          {
            snap with
            Snapshot.meta = mutate_bytes ~lo:0 snap.Snapshot.meta muts;
          }
      in
      query_loads_or_corrupt path)

(* A save writes a sibling file and renames it over the target: after a
   save that succeeds and after one that fails, no sibling is left, and
   a failed save leaves the previous snapshot loadable. *)
let test_atomic_save () =
  let dir = Filename.temp_file "gdprs_snap_dir" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "s.gdpx" in
  let state = Bottom_up.export (Bottom_up.run (fuzz_db ())) in
  let save path state =
    Snapshot.save ~path { Snapshot.key = "k"; meta = "m"; state }
  in
  let entries () = List.sort compare (Array.to_list (Sys.readdir dir)) in
  ignore (save path state : int);
  Alcotest.(check (list string)) "after a save" [ "s.gdpx" ] (entries ());
  (* a state that cannot be written *)
  (match save path { state with len = state.len + 1 } with
  | exception (Snapshot.Corrupt _ | Invalid_argument _) -> ()
  | _ -> Alcotest.fail "an out-of-range state was saved");
  (* a target the rename cannot replace *)
  let sub = Filename.concat dir "sub" in
  Sys.mkdir sub 0o755;
  Out_channel.with_open_bin (Filename.concat sub "x") ignore;
  (match save sub state with
  | exception Sys_error _ -> ()
  | _ -> Alcotest.fail "a save over a directory succeeded");
  Alcotest.(check (list string)) "after failed saves" [ "s.gdpx"; "sub" ]
    (entries ());
  let snap, (_ : int) = Snapshot.load ~path () in
  Alcotest.(check bool) "the previous snapshot still loads" true
    (Bottom_up.facts (Bottom_up.import (fuzz_db ()) snap.Snapshot.state)
    = Bottom_up.facts (Bottom_up.run (fuzz_db ())));
  Sys.remove (Filename.concat sub "x");
  Sys.rmdir sub;
  Sys.remove path;
  Sys.rmdir dir

let tests =
  [
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_roundtrip_stratified;
    Alcotest.test_case "spatial round-trip" `Quick test_spatial_roundtrip;
    Alcotest.test_case "retracting an imported site drops its index entry"
      `Quick test_spatial_removal;
    QCheck_alcotest.to_alcotest prop_export_sharing;
    Alcotest.test_case "compile of the roadnet spec writes 42,811 nodes" `Quick
      test_roadnet_nodes;
    Alcotest.test_case "a repeated node record is corrupt" `Quick
      test_repeated_node;
    Alcotest.test_case "a 64-node DAG of 2^63 tree nodes loads at once" `Quick
      test_deep_dag;
    Alcotest.test_case "an arity beyond the file's bytes is corrupt" `Quick
      test_oversized_arity;
    Alcotest.test_case "an arity beyond the bytes left reserves no children"
      `Quick test_arity_reserves_nothing;
    Alcotest.test_case "query-layer round-trip" `Quick test_query_roundtrip;
    Alcotest.test_case "stale hash is rebuilt, never reused" `Quick
      test_stale_hash_rebuild;
    Alcotest.test_case "corrupted/truncated files are rejected" `Quick
      test_corrupt_rejected;
    Alcotest.test_case "update-log replay equivalence" `Quick
      test_update_log_replay;
    Alcotest.test_case "export is deterministic across a reload" `Quick
      test_export_deterministic;
    Alcotest.test_case "wire codec edges" `Quick test_wire_edges;
    Alcotest.test_case "content hash is pinned" `Quick test_pinned_hashes;
    Alcotest.test_case "content hash ignores updates and meta clauses" `Quick
      test_hash_after_updates;
    QCheck_alcotest.to_alcotest prop_hostile_logic;
    QCheck_alcotest.to_alcotest prop_hostile_query;
    QCheck_alcotest.to_alcotest prop_hostile_update_log;
    Alcotest.test_case "a failed save leaves the previous snapshot" `Quick
      test_atomic_save;
  ]
