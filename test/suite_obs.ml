(* Telemetry: the Gdp_obs tracer/exporters, the four-port box model the
   SLDNF engine reports through it, and determinism of every counter. *)

open Gdp_logic
module Tracer = Gdp_obs.Tracer
module Export = Gdp_obs.Export

(* ---- tracer core ---- *)

let test_disabled () =
  let t = Tracer.disabled in
  Alcotest.(check bool) "disabled" false (Tracer.enabled t);
  let f = Tracer.begin_span t "work" in
  Tracer.add t "n" 3;
  Tracer.end_span t f;
  Tracer.finish t;
  Alcotest.(check int) "no spans" 0 (Tracer.span_count t);
  Alcotest.(check (list (pair string (float 0.0)))) "no counters" []
    (Tracer.counters t);
  Alcotest.(check bool) "empty but valid JSON" true
    (String.length (Export.chrome_trace t) > 0
    && String.sub (Export.chrome_trace t) 0 15 = "{\"traceEvents\":")

let test_nesting () =
  let t = Tracer.create () in
  let outer = Tracer.begin_span t ~cat:"a" "outer" in
  let inner = Tracer.begin_span t ~cat:"a" "inner" in
  Tracer.end_span t inner;
  Tracer.end_span t outer;
  let spans = Tracer.spans t in
  Alcotest.(check int) "two spans" 2 (List.length spans);
  let by_name n = List.find (fun (s : Tracer.span) -> s.Tracer.name = n) spans in
  let outer_s = by_name "outer" and inner_s = by_name "inner" in
  Alcotest.(check int) "outer is a root" (-1) outer_s.Tracer.parent;
  Alcotest.(check int) "inner nests under outer" outer_s.Tracer.id
    inner_s.Tracer.parent;
  Alcotest.(check bool) "durations non-negative" true
    (Int64.compare inner_s.Tracer.dur_ns 0L >= 0
    && Int64.compare outer_s.Tracer.dur_ns 0L >= 0)

let test_non_lifo_close_and_finish () =
  let t = Tracer.create () in
  let outer = Tracer.begin_span t "outer" in
  let inner = Tracer.begin_span t "inner" in
  (* a lazily-driven producer may abandon the inner stream: the outer
     span closes first, the straggler is swept up by [finish] *)
  Tracer.end_span t outer;
  Tracer.end_span t outer;
  (* double close is a no-op *)
  Alcotest.(check int) "only outer closed" 1 (Tracer.span_count t);
  Tracer.finish t;
  Alcotest.(check int) "finish closes the straggler" 2 (Tracer.span_count t);
  Stdlib.ignore inner

let test_counters () =
  let t = Tracer.create () in
  Tracer.add t "derived" 3;
  Tracer.add t "derived" 4;
  Tracer.set t "rate" 0.5;
  Alcotest.(check (list (pair string (float 1e-9)))) "cumulative + sorted"
    [ ("derived", 7.0); ("rate", 0.5) ]
    (Tracer.counters t)

let test_sink () =
  let seen = ref 0 in
  let t = Tracer.create ~sink:(fun _ -> incr seen) () in
  Tracer.with_span t "s" (fun () -> Tracer.add t "c" 1);
  Alcotest.(check int) "sink saw counter sample and span" 2 !seen

(* ---- exporters ---- *)

let count_occurrences needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i acc =
    if i + nl > hl then acc
    else if String.sub haystack i nl = needle then go (i + nl) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let test_chrome_trace () =
  let t = Tracer.create () in
  Tracer.with_span t ~cat:"solve" "p/1" (fun () ->
      Tracer.with_span t ~cat:"solve" "q/2" (fun () -> ()));
  Tracer.instant t ~cat:"mark" "checkpoint";
  Tracer.add t "facts" 42;
  let json = Export.chrome_trace t in
  Alcotest.(check int) "one X event per span" 2
    (count_occurrences "\"ph\":\"X\"" json);
  Alcotest.(check int) "instant exported" 1
    (count_occurrences "\"ph\":\"i\"" json);
  Alcotest.(check int) "counter sample exported" 1
    (count_occurrences "\"ph\":\"C\"" json);
  Alcotest.(check bool) "names quoted" true
    (count_occurrences "\"name\":\"p/1\"" json = 1);
  Alcotest.(check bool) "object shape" true
    (String.length json > 2 && json.[0] = '{')

let test_json_escaping () =
  let t = Tracer.create () in
  Tracer.with_span t "weird \"name\"\nwith\\escapes" (fun () -> ());
  let json = Export.chrome_trace t in
  Alcotest.(check int) "quote escaped" 1
    (count_occurrences "weird \\\"name\\\"\\nwith\\\\escapes" json)

let test_profile_tree () =
  let t = Tracer.create () in
  Tracer.with_span t "root" (fun () ->
      Tracer.with_span t "child" (fun () -> ());
      Tracer.with_span t "child" (fun () -> ()));
  Tracer.add t "hits" 5;
  let s = Export.profile_to_string t in
  Alcotest.(check int) "root listed once" 1 (count_occurrences "  root" s);
  Alcotest.(check int) "children aggregated" 1
    (count_occurrences "    child" s);
  Alcotest.(check int) "count column aggregates" 1
    (count_occurrences " 2  " s);
  Alcotest.(check int) "counter table" 1 (count_occurrences "hits" s)

(* ---- the four-port box model ---- *)

let port_tag = function
  | Solve.Call (_, t) -> "call", t
  | Solve.Exit (_, t) -> "exit", t
  | Solve.Redo (_, t) -> "redo", t
  | Solve.Fail (_, t) -> "fail", t

let pred_of t =
  match Term.functor_of t with Some (n, _) -> n | None -> "?"

(* Drain every answer of [goals] through the solver ([`Solve]) or the
   proof-tree search ([`Prove]); both must report the same search. *)
let drain engine options db goals =
  match engine with
  | `Solve -> Seq.iter Stdlib.ignore (Solve.solve ~options db goals)
  | `Prove -> Seq.iter Stdlib.ignore (Explain.prove ~options db goals)

let trace_of ?(engine = `Solve) db goal =
  let events = ref [] in
  let opts =
    { Solve.default_options with trace = Some (fun e -> events := e :: !events) }
  in
  drain engine opts db (Reader.goals goal);
  List.rev_map
    (fun e ->
      let tag, t = port_tag e in
      tag ^ " " ^ pred_of t)
    !events

let test_four_port_sequence () =
  let db = Engine.create () in
  Engine.consult db "p(1). p(2). q(2).";
  (* draining p(X), q(X): p yields 1 (q fails), backtrack, p yields 2
     (q succeeds), then both streams exhaust *)
  let expected =
    [
      "call p"; "exit p"; "call q"; "fail q"; "redo p"; "exit p"; "call q";
      "exit q"; "redo q"; "fail q"; "redo p"; "fail p";
    ]
  in
  Alcotest.(check (list string)) "box-model event order" expected
    (trace_of db "p(X), q(X)");
  Alcotest.(check (list string)) "proof search reports the same events" expected
    (trace_of ~engine:`Prove db "p(X), q(X)")

let test_four_port_counters () =
  let db = Engine.create () in
  Engine.consult db "p(1). p(2). q(2).";
  List.iter
    (fun (engine, name) ->
      let stats = Solve.create_stats () in
      let opts = { Solve.default_options with stats = Some stats } in
      drain engine opts db (Reader.goals "p(X), q(X)");
      let ports pred =
        match List.assoc_opt (pred ^ "/1") (Solve.stats_ports stats) with
        | Some p ->
            [
              p.Solve.calls; p.Solve.exits; p.Solve.redos; p.Solve.fails;
              p.Solve.unifications;
            ]
        | None -> []
      in
      (* clause indexing on the bound argument: p(X) tries both p
         clauses, q(1) finds no candidate, q(2) tries one *)
      Alcotest.(check (list int)) (name ^ ": p ports") [ 1; 2; 2; 1; 2 ] (ports "p");
      Alcotest.(check (list int)) (name ^ ": q ports") [ 2; 1; 1; 2; 1 ] (ports "q");
      Alcotest.(check int) (name ^ ": unification attempts") 3
        stats.Solve.unifications;
      Alcotest.(check int) (name ^ ": total calls") 3 (Solve.total_calls stats))
    [ (`Solve, "solve"); (`Prove, "prove") ]

(* Rows of a refined predicate split by the constant at the refining
   argument, and the rows still add up to the totals. *)
let test_refined_rows () =
  let db = Engine.create () in
  Engine.consult db "h(a, 1). h(b, 2). h(a, 3). g(X, Y) :- h(a, X), h(b, Y).";
  let stats =
    Solve.create_stats ~refine:(function "h", 2 -> Some 0 | _ -> None) ()
  in
  let opts = { Solve.default_options with stats = Some stats } in
  drain `Solve opts db (Reader.goals "g(X, Y), h(Z, 3)");
  let ports = Solve.stats_ports stats in
  Alcotest.(check (list (pair string (list int))))
    "rows: call, exit, unify"
    [
      ("g/2", [ 1; 2; 1 ]); ("h/2", [ 2; 2; 2 ]); ("h/2[a]", [ 1; 2; 2 ]);
      ("h/2[b]", [ 2; 2; 2 ]);
    ]
    (List.map
       (fun (row, (pc : Solve.port_counts)) ->
         (row, [ pc.Solve.calls; pc.Solve.exits; pc.Solve.unifications ]))
       ports);
  let sum f = List.fold_left (fun acc (_, pc) -> acc + f pc) 0 ports in
  Alcotest.(check int) "row unifications sum to the total"
    stats.Solve.unifications
    (sum (fun (pc : Solve.port_counts) -> pc.Solve.unifications));
  Alcotest.(check int) "row calls sum to the total" (Solve.total_calls stats)
    (sum (fun (pc : Solve.port_counts) -> pc.Solve.calls))

let test_depth_payload () =
  let db = Engine.create () in
  Engine.consult db "loop(X) :- loop(X).";
  let opts = { Solve.default_options with max_depth = 7 } in
  try
    Stdlib.ignore (Solve.all ~options:opts db (Reader.goals "loop(9)"));
    Alcotest.fail "expected Depth_exhausted"
  with Solve.Depth_exhausted { depth; goal } ->
    Alcotest.(check int) "configured budget" 7 depth;
    Alcotest.(check string) "offending goal" "loop(9)" (Term.to_string goal)

let test_spans_match_call_ports () =
  let db = Engine.create () in
  Engine.consult db
    "parent(tom, bob). parent(tom, liz). parent(bob, ann).\n\
     ancestor(X, Y) :- parent(X, Y).\n\
     ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).";
  let calls engine =
    let stats = Solve.create_stats () in
    let tracer = Tracer.create () in
    let opts = { Solve.default_options with stats = Some stats; tracer } in
    drain engine opts db (Reader.goals "ancestor(tom, X)");
    Tracer.finish tracer;
    Alcotest.(check int) "one solve span per Call port"
      (Solve.total_calls stats)
      (Tracer.span_count ~cat:"solve" tracer);
    Solve.total_calls stats
  in
  let solved = calls `Solve in
  Alcotest.(check bool) "calls recorded" true (solved > 0);
  Alcotest.(check int) "proof search makes the same calls" solved (calls `Prove)

(* ---- fixpoint stats ---- *)

let test_bottom_up_stats () =
  let db = Engine.create () in
  Engine.consult db
    "e(a, b). e(b, c). e(c, d). node(a). node(b). node(c). node(d).\n\
     r(X, Y) :- e(X, Y).\n\
     r(X, Z) :- e(X, Y), r(Y, Z).\n\
     iso(X) :- node(X), \\+ r(X, X), \\+ r(a, X).";
  let tracer = Tracer.create () in
  let fp = Bottom_up.run ~tracer db in
  let s = Bottom_up.stats fp in
  Alcotest.(check int) "facts agree with the recount" (Bottom_up.count fp)
    s.Bottom_up.bu_facts;
  Alcotest.(check bool) "negation forces >= 2 strata" true
    (s.Bottom_up.bu_strata >= 2);
  Alcotest.(check bool) "indexed run probes" true
    (s.Bottom_up.bu_index_probes > 0);
  let per_stratum =
    List.fold_left
      (fun acc st -> acc + st.Bottom_up.st_passes)
      0 s.Bottom_up.bu_strata_stats
  in
  Alcotest.(check int) "per-stratum passes sum to the total"
    s.Bottom_up.bu_passes per_stratum;
  let derived =
    List.fold_left
      (fun acc st -> acc + st.Bottom_up.st_derived)
      0 s.Bottom_up.bu_strata_stats
  in
  Alcotest.(check bool) "strata derived facts" true (derived > 0);
  Alcotest.(check bool) "stratum spans recorded" true
    (Tracer.span_count ~cat:"fixpoint" tracer
    >= List.length s.Bottom_up.bu_strata_stats)

let test_scan_vs_probe () =
  let db = Engine.create () in
  Engine.consult db
    "e(a, b). e(b, c). r(X, Y) :- e(X, Y). r(X, Z) :- e(X, Y), r(Y, Z).";
  let indexed = Bottom_up.stats (Bottom_up.run db) in
  let scanned = Bottom_up.stats (Bottom_up.run ~baseline:Scan db) in
  Alcotest.(check int) "scan baseline never probes" 0
    scanned.Bottom_up.bu_index_probes;
  Alcotest.(check bool) "indexed run replaces scans with probes" true
    (indexed.Bottom_up.bu_index_probes > 0
    && indexed.Bottom_up.bu_full_scans < scanned.Bottom_up.bu_full_scans)

(* ---- determinism: every counter identical across repeated runs ---- *)

let consts = [ "a"; "b"; "c"; "d" ]

let gen_edge_program =
  let open QCheck.Gen in
  let const = oneofl consts in
  let* n = int_range 2 7 in
  let* edges =
    list_size (return n)
      (map2 (fun x y -> Printf.sprintf "e(%s, %s)." x y) const const)
  in
  let rules =
    [ "r(X, Y) :- e(X, Y)."; "r(X, Z) :- e(X, Y), r(Y, Z)." ]
  in
  return (String.concat "\n" (edges @ rules))

let solve_counters src =
  let db = Engine.create () in
  Engine.consult db src;
  let stats = Solve.create_stats () in
  let opts =
    { Solve.default_options with stats = Some stats; loop_check = true }
  in
  Stdlib.ignore (Solve.all ~options:opts db (Reader.goals "r(a, X)"));
  ( List.map
      (fun (row, (pc : Solve.port_counts)) ->
        ( row,
          [ pc.Solve.calls; pc.Solve.exits; pc.Solve.redos; pc.Solve.fails;
            pc.Solve.unifications ] ))
      (Solve.stats_ports stats),
    stats.Solve.unifications,
    stats.Solve.loop_prunes,
    stats.Solve.deepest_call )

let fixpoint_counters src =
  let db = Engine.create () in
  Engine.consult db src;
  Bottom_up.stats (Bottom_up.run db)

let prop_solve_counters_deterministic =
  QCheck.Test.make ~name:"solve counters identical across repeated runs"
    ~count:60
    (QCheck.make ~print:Fun.id gen_edge_program)
    (fun src -> solve_counters src = solve_counters src)

let prop_fixpoint_counters_deterministic =
  QCheck.Test.make ~name:"fixpoint counters identical across repeated runs"
    ~count:60
    (QCheck.make ~print:Fun.id gen_edge_program)
    (fun src -> fixpoint_counters src = fixpoint_counters src)

let tests =
  [
    Alcotest.test_case "disabled tracer is inert" `Quick test_disabled;
    Alcotest.test_case "span nesting" `Quick test_nesting;
    Alcotest.test_case "non-LIFO close + finish" `Quick
      test_non_lifo_close_and_finish;
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "sink" `Quick test_sink;
    Alcotest.test_case "chrome trace export" `Quick test_chrome_trace;
    Alcotest.test_case "JSON escaping" `Quick test_json_escaping;
    Alcotest.test_case "profile tree" `Quick test_profile_tree;
    Alcotest.test_case "four-port event sequence" `Quick
      test_four_port_sequence;
    Alcotest.test_case "four-port counters" `Quick test_four_port_counters;
    Alcotest.test_case "refined port rows" `Quick test_refined_rows;
    Alcotest.test_case "depth exhaustion payload" `Quick test_depth_payload;
    Alcotest.test_case "solve spans match call ports" `Quick
      test_spans_match_call_ports;
    Alcotest.test_case "bottom-up stats" `Quick test_bottom_up_stats;
    Alcotest.test_case "scan vs probe counters" `Quick test_scan_vs_probe;
    QCheck_alcotest.to_alcotest prop_solve_counters_deterministic;
    QCheck_alcotest.to_alcotest prop_fixpoint_counters_deterministic;
  ]
