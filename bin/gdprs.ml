(* gdprs — command-line front end for GDP requirements specifications.

   Subcommands:
     check   FILE           parse, elaborate, report consistency
     compile FILE -o SNAP   materialise once, persist the fixpoint (.gdpx)
     update  FILE --script UPDATES
                            apply an assert/retract script to the live base
     query   FILE PATTERN   run a fact-pattern query
     ask     FILE GOAL      run a raw engine goal
     profile FILE GOAL      run a goal with telemetry: profile tree,
                            port counters, optional Chrome trace JSON
     render  FILE ...       rasterize a predicate layer to PPM/ASCII
     info    FILE           inventory of the specification

   check/update/query/ask/explain/profile accept --snapshot SNAP to answer
   from a persisted fixpoint instead of recomputing it. *)

open Cmdliner
open Gdp_core

let load path = Gdp_lang.Elaborate.load_file path

let build_query result view models metas =
  let models = match models with [] -> None | l -> Some l in
  let metas = match metas with [] -> None | l -> Some l in
  Gdp_lang.Elaborate.query result ?view ?models ?metas ()

(* common options *)
let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Specification file (.gdp).")

let view_arg =
  Arg.(value & opt (some string) None & info [ "view" ] ~docv:"NAME" ~doc:"Use a named view from the file.")

let models_arg =
  Arg.(value & opt_all string [] & info [ "model"; "m" ] ~docv:"MODEL" ~doc:"World-view model (repeatable).")

let metas_arg =
  Arg.(value & opt_all string [] & info [ "meta" ] ~docv:"META" ~doc:"Meta-view meta-model (repeatable).")

let materialize_arg =
  Arg.(value & flag
       & info [ "materialize" ]
           ~doc:"Answer from the bottom-up fixpoint (semi-naive stratified \
                 Datalog) instead of top-down resolution. Fails when the \
                 specification uses constructs outside the Datalog fragment \
                 (forall, disjunction, computed predicates).")

let magic_arg =
  Arg.(value & flag
       & info [ "magic" ]
           ~doc:"Goal-directed bottom-up evaluation: rewrite the base with \
                 magic sets for this goal (adorned rules guarded by magic \
                 predicates, seeded from the goal's bound arguments) and \
                 derive only the portion of the fixpoint the goal can \
                 observe. Same Datalog-fragment restriction as \
                 $(b,--materialize); the two flags are mutually exclusive.")

let with_engine q ~materialize ~magic =
  match (materialize, magic) with
  | true, true -> invalid_arg "--magic and --materialize are mutually exclusive"
  | true, false -> Query.with_mode q Query.Materialized
  | false, true -> Query.with_mode q Query.Magic
  | false, false -> q

let snapshot_arg =
  Arg.(value & opt (some string) None
       & info [ "snapshot" ] ~docv:"FILE.gdpx"
           ~doc:"Answer from a persistent fixpoint snapshot written by \
                 $(b,gdprs compile -o): the materialised model is loaded \
                 from $(docv) — re-interned and re-indexed, but with no \
                 rule evaluation — after verifying that the specification \
                 and views still hash to the snapshot's key. A stale \
                 snapshot (the file or views changed) is rebuilt in \
                 memory with a warning; a corrupt file is a hard error \
                 (exit 2). Implies $(b,--materialize) unless $(b,--magic) \
                 is given.")

(* Load [path] into [q]'s fixpoint cache. Stale falls through with a
   warning — the caller's next materialisation recomputes fresh — while
   corruption is a hard stop: rebuilding would paper over disk trouble. *)
let load_snapshot q = function
  | None -> ()
  | Some path -> (
      (Query.spec q).Spec.snapshot_path <- Some path;
      match Query.of_snapshot q path with
      | Ok (_bytes, facts) ->
          Printf.printf "snapshot: loaded %d facts from %s\n" facts path
      | Error (Query.Snapshot_stale msg) ->
          Printf.eprintf "warning: snapshot %s is stale (%s); rebuilding\n"
            path msg
      | Error (Query.Snapshot_corrupt msg) ->
          Printf.eprintf "error: snapshot %s: %s\n" path msg;
          exit 2)

let stats_arg =
  Arg.(value & flag
       & info [ "stats" ]
           ~doc:"Print engine statistics after the answer: per-predicate \
                 call/exit/redo/fail port counters for the top-down engine \
                 and per-stratum fixpoint metrics when materialised.")

(* shared by check, query, ask, explain, update and profile *)
let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Write the run as Chrome trace-event JSON, loadable in \
                 chrome://tracing or Perfetto. Implies telemetry.")

let write_trace q trace_out =
  match trace_out with
  | None -> ()
  | Some path ->
      let tracer = Query.tracer q in
      Gdp_obs.Tracer.finish tracer;
      let n = Gdp_obs.Export.write_chrome_trace tracer path in
      (* explain's tree may still sit in Format's buffer *)
      Format.print_flush ();
      Printf.printf "wrote %s (%d events)\n" path n

let explain_violations_arg =
  Arg.(value & opt int 0
       & info [ "explain-violations" ] ~docv:"N"
           ~doc:"After an inconsistent verdict, print a derivation tree for \
                 up to $(docv) ERROR facts — reconstructed from the \
                 fixpoint's recorded lineage under $(b,--materialize), \
                 proved top-down otherwise.")

let print_violation_proofs q n =
  if n > 0 then
    Query.violation_proofs ~limit:n q
    |> List.iter (fun (v, proof) ->
           Format.printf "why %a:@.%a@." Query.pp_violation v
             (Gdp_logic.Explain.pp ~pp_goal:Query.pp_reified_term) proof)

let print_views q =
  Printf.printf "world view: {%s}\n" (String.concat ", " (Query.world_view q));
  Printf.printf "meta view:  {%s}\n" (String.concat ", " (Query.meta_view q))

let print_materialised q =
  let fp = Query.materialization q in
  let s = Gdp_logic.Bottom_up.stats fp in
  Printf.printf "materialised: %d facts, %d strata, %d passes\n"
    (Gdp_logic.Bottom_up.count fp)
    s.bu_strata s.bu_passes

(* the consistency verdict shared by check and update; returns the exit
   code *)
let report_violations q explain_n =
  match Query.violations q with
  | [] ->
      print_endline "consistent: no constraint violations";
      0
  | viols ->
      Printf.printf "INCONSISTENT: %d violation(s)\n" (List.length viols);
      List.iter (fun v -> Format.printf "  %a@." Query.pp_violation v) viols;
      print_violation_proofs q explain_n;
      1

let enable_telemetry result =
  result.Gdp_lang.Elaborate.spec.Spec.telemetry <- true

let print_stats q = Format.printf "-- stats --@.%a@." Query.pp_stats q

let handle_errors f =
  try f () with
  | Gdp_lang.Elaborate.Error msg | Gdp_lang.Parser.Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 2
  | Invalid_argument msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 2
  | Gdp_logic.Bottom_up.Unsupported msg ->
      Printf.eprintf "error: not materializable: %s\n" msg;
      exit 2
  | Gdp_logic.Snapshot.Corrupt msg ->
      (* a loaded snapshot whose store a proof finds inconsistent *)
      Printf.eprintf "error: snapshot: %s\n" msg;
      exit 2
  | Gdp_logic.Bottom_up.Bound_exceeded (bound, limit) ->
      Printf.eprintf
        "error: bottom-up evaluation exceeded its bound of %d %s (the rules \
         derive facts without end)\n"
        limit
        (match bound with `Facts -> "facts" | `Passes -> "passes");
      exit 3
  | Gdp_logic.Solve.Depth_exhausted { depth; goal } ->
      Printf.eprintf
        "error: inference depth %d exhausted while proving %s (try simpler \
         queries or fewer meta-models)\n"
        depth
        (Gdp_logic.Term.to_string goal);
      exit 3

(* ---- check ---- *)

let check_cmd =
  let run file view models metas materialize magic snapshot stats explain_n
      trace_out =
    handle_errors (fun () ->
        let result = load file in
        if stats || trace_out <> None then enable_telemetry result;
        let materialize = materialize || (snapshot <> None && not magic) in
        let q =
          with_engine (build_query result view models metas) ~materialize ~magic
        in
        print_views q;
        load_snapshot q snapshot;
        if materialize then print_materialised q;
        let code = report_violations q explain_n in
        if stats then print_stats q;
        write_trace q trace_out;
        code)
  in
  let doc = "Check a specification's consistency under a world view (§III-E)." in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(const run $ file_arg $ view_arg $ models_arg $ metas_arg $ materialize_arg
          $ magic_arg $ snapshot_arg $ stats_arg $ explain_violations_arg
          $ trace_out_arg)

(* ---- compile ---- *)

let compile_cmd =
  let out_arg =
    Arg.(required & opt (some string) None
         & info [ "o"; "out" ] ~docv:"FILE.gdpx"
             ~doc:"Where to write the snapshot. Conventionally \
                   $(i,SPEC).gdpx next to the specification.")
  in
  let run file view models metas out stats trace_out =
    handle_errors (fun () ->
        let result = load file in
        if stats || trace_out <> None then enable_telemetry result;
        let q =
          Query.with_mode (build_query result view models metas)
            Query.Materialized
        in
        print_views q;
        print_materialised q;
        let _bytes, facts = Query.save_snapshot q out in
        (Query.spec q).Spec.snapshot_path <- Some out;
        Printf.printf "wrote %s (%d facts)\n" out facts;
        if stats then print_stats q;
        write_trace q trace_out;
        0)
  in
  let doc =
    "Materialise a specification's bottom-up fixpoint once and persist it \
     as a snapshot (.gdpx): facts, indexes, stratification, incremental \
     state and provenance, keyed by a content hash of the compiled \
     specification and its views. Later runs pass \
     $(b,--snapshot) to answer from the file instead of re-deriving — \
     compile once, query many. A snapshot whose key no longer matches is \
     reported stale and rebuilt, never silently reused."
  in
  Cmd.v (Cmd.info "compile" ~doc)
    Term.(const run $ file_arg $ view_arg $ models_arg $ metas_arg $ out_arg
          $ stats_arg $ trace_out_arg)

(* ---- update ---- *)

let update_cmd =
  let script_arg =
    Arg.(required & opt (some file) None
         & info [ "script" ] ~docv:"UPDATES"
             ~doc:"Update script: one $(b,assert FACT) or $(b,retract FACT) \
                   per line (the fact syntax of $(b,query) patterns, ground); \
                   blank lines and $(b,#) comments are skipped.")
  in
  let read_lines path =
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file -> List.rev acc
    in
    go []
  in
  let parse_script path =
    read_lines path
    |> List.mapi (fun i line -> (i + 1, String.trim line))
    |> List.filter_map (fun (lineno, line) ->
           if line = "" || line.[0] = '#' then None
           else
             let op, rest =
               match String.index_opt line ' ' with
               | Some i ->
                   ( String.sub line 0 i,
                     String.trim
                       (String.sub line i (String.length line - i)) )
               | None -> (line, "")
             in
             let pat () =
               Gdp_lang.Elaborate.fact_to_pattern (Gdp_lang.Parser.fact rest)
             in
             match op with
             | "assert" -> Some (`Assert (pat ()))
             | "retract" -> Some (`Retract (pat ()))
             | _ ->
                 invalid_arg
                   (Printf.sprintf
                      "%s:%d: expected 'assert FACT' or 'retract FACT'" path
                      lineno))
  in
  let run file view models metas script materialize snapshot stats
      explain_n trace_out =
    handle_errors (fun () ->
        let result = load file in
        if stats || trace_out <> None then enable_telemetry result;
        let materialize = materialize || snapshot <> None in
        let q =
          with_engine (build_query result view models metas) ~materialize
            ~magic:false
        in
        print_views q;
        load_snapshot q snapshot;
        (* materialise before the script runs: the fixpoint (loaded or
           computed) is then repaired incrementally by each update, never
           rebuilt *)
        if materialize then Stdlib.ignore (Query.materialization q);
        let ops = parse_script script in
        List.iter (fun u -> Stdlib.ignore (Query.update q [ u ])) ops;
        let asserts =
          List.length
            (List.filter (function `Assert _ -> true | `Retract _ -> false) ops)
        in
        Printf.printf "applied %d update(s): %d asserted, %d retracted\n"
          (List.length ops) asserts
          (List.length ops - asserts);
        (* persist the maintained fixpoint plus the grown update log, so
           the next --snapshot load replays this batch too *)
        (match snapshot with
        | None -> ()
        | Some path ->
            let _bytes, facts = Query.save_snapshot q path in
            Printf.printf "snapshot: saved %d facts to %s\n" facts path);
        if materialize then print_materialised q;
        let code = report_violations q explain_n in
        if stats then print_stats q;
        write_trace q trace_out;
        code)
  in
  let doc =
    "Apply an assert/retract script to the compiled base, then re-check \
     consistency. Under $(b,--materialize) the bottom-up fixpoint is \
     maintained incrementally (semi-naive deltas for assertions, \
     delete-and-rederive for retractions) rather than recomputed; \
     $(b,--stats) shows the maintenance counters."
  in
  Cmd.v (Cmd.info "update" ~doc)
    Term.(const run $ file_arg $ view_arg $ models_arg $ metas_arg $ script_arg
          $ materialize_arg $ snapshot_arg $ stats_arg $ explain_violations_arg
          $ trace_out_arg)

(* ---- query ---- *)

let query_cmd =
  let pattern_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"PATTERN" ~doc:"Fact pattern, e.g. 'open_road(X)' or '@(1, 2) wet(land)'.")
  in
  let limit_arg =
    Arg.(value & opt int 20 & info [ "limit"; "n" ] ~docv:"N" ~doc:"Maximum answers.")
  in
  let run file view models metas pattern limit materialize magic snapshot
      stats trace_out =
    handle_errors (fun () ->
        let result = load file in
        if stats || trace_out <> None then enable_telemetry result;
        let materialize =
          materialize || (snapshot <> None && not magic)
        in
        let q =
          with_engine (build_query result view models metas) ~materialize ~magic
        in
        load_snapshot q snapshot;
        let pat = Gdp_lang.Elaborate.fact_to_pattern (Gdp_lang.Parser.fact pattern) in
        let code =
          match Query.solutions ~limit q pat with
          | [] ->
              print_endline "not provable (open world: undefined)";
              1
          | sols ->
              List.iter (fun f -> Format.printf "%a@." Gfact.pp f) sols;
              0
        in
        if stats then print_stats q;
        write_trace q trace_out;
        code)
  in
  let doc = "Enumerate the provable instantiations of a fact pattern." in
  Cmd.v (Cmd.info "query" ~doc)
    Term.(const run $ file_arg $ view_arg $ models_arg $ metas_arg $ pattern_arg
          $ limit_arg $ materialize_arg $ magic_arg $ snapshot_arg $ stats_arg
          $ trace_out_arg)

(* ---- ask ---- *)

let ask_cmd =
  let goal_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"GOAL" ~doc:"Raw engine goal over the reified vocabulary (holds/6, acc/7, builtins).")
  in
  let run file view models metas goal magic snapshot stats trace_out =
    handle_errors (fun () ->
        let result = load file in
        if stats || trace_out <> None then enable_telemetry result;
        let q =
          with_engine (build_query result view models metas)
            ~materialize:(snapshot <> None && not magic) ~magic
        in
        load_snapshot q snapshot;
        let code =
          match Query.ask_all ~limit:20 q goal with
          | [] ->
              print_endline "no";
              1
          | [ [] ] ->
              print_endline "yes";
              0
          | answers ->
              List.iter
                (fun bindings ->
                  bindings
                  |> List.map (fun (n, t) ->
                         Printf.sprintf "%s = %s" n (Gdp_logic.Term.to_string t))
                  |> String.concat ", " |> print_endline)
                answers;
              0
        in
        if stats then print_stats q;
        write_trace q trace_out;
        code)
  in
  let doc = "Run a raw engine goal against the compiled database." in
  Cmd.v (Cmd.info "ask" ~doc)
    Term.(const run $ file_arg $ view_arg $ models_arg $ metas_arg $ goal_arg
          $ magic_arg $ snapshot_arg $ stats_arg $ trace_out_arg)

(* ---- profile ---- *)

let profile_cmd =
  let goal_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"GOAL"
             ~doc:"Raw engine goal over the reified vocabulary (holds/6, \
                   acc/7, builtins); every answer is drained.")
  in
  let stats_arg =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Print engine statistics. Always on for $(b,profile), \
                   which prints the statistics block before its profile \
                   tree; accepted so every engine subcommand takes it.")
  in
  let run file view models metas goal materialize snapshot (_ : bool)
      trace_out =
    handle_errors (fun () ->
        let result = load file in
        enable_telemetry result;
        let materialize = materialize || snapshot <> None in
        let q =
          with_engine (build_query result view models metas) ~materialize
            ~magic:false
        in
        load_snapshot q snapshot;
        if materialize then Stdlib.ignore (Query.materialization q);
        let answers = Query.ask_all q goal in
        let tracer = Query.tracer q in
        Gdp_obs.Tracer.finish tracer;
        Printf.printf "answers: %d\n" (List.length answers);
        (* each user-predicate Call port opened exactly one "solve" span *)
        (match Query.solve_stats q with
        | Some s ->
            Printf.printf "solve spans: %d (call ports: %d)\n"
              (Gdp_obs.Tracer.span_count ~cat:"solve" tracer)
              (Gdp_logic.Solve.total_calls s)
        | None -> ());
        print_stats q;
        Format.printf "-- profile --@.%a@." Gdp_obs.Export.pp_profile tracer;
        write_trace q trace_out;
        0)
  in
  let doc =
    "Run a goal with full engine telemetry: a profile tree of the recorded \
     spans, four-port counters per predicate, fixpoint metrics under \
     $(b,--materialize), and optionally a Chrome trace."
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(const run $ file_arg $ view_arg $ models_arg $ metas_arg $ goal_arg
          $ materialize_arg $ snapshot_arg $ stats_arg $ trace_out_arg)

(* ---- render ---- *)

let render_cmd =
  let pred_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"PREDICATE" ~doc:"Predicate to paint where provable at each cell centre.")
  in
  let resolution_arg =
    Arg.(required & opt (some string) None
         & info [ "resolution"; "r" ] ~docv:"SPACE" ~doc:"Declared logical space to rasterize at.")
  in
  let region_arg =
    Arg.(required & opt (some string) None
         & info [ "region" ] ~docv:"REGION" ~doc:"Declared region to cover.")
  in
  let object_arg =
    Arg.(value & opt (some string) None
         & info [ "object"; "o" ] ~docv:"OBJ" ~doc:"Object designator the predicate applies to.")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE.ppm" ~doc:"Write a PPM image.")
  in
  let ascii_arg =
    Arg.(value & flag & info [ "ascii" ] ~doc:"Print an ASCII rendering to stdout.")
  in
  let run file view models metas pred resolution region obj out ascii =
    handle_errors (fun () ->
        let result = load file in
        let q = build_query result view models metas in
        let spec = Query.spec q in
        let region =
          match Spec.find_region spec region with
          | Some r -> r
          | None -> invalid_arg (Printf.sprintf "unknown region %s" region)
        in
        let objects =
          match obj with Some o -> [ Gdp_logic.Term.atom o ] | None -> []
        in
        let layer =
          Gdp_render.Map_render.presence ~name:pred ~color:Gdp_render.Color.red
            (fun p ->
              Gfact.make pred ~objects ~space:(Gfact.S_at (Gfact.pos_term p)))
        in
        let fb = Gdp_render.Map_render.render q ~resolution ~region [ layer ] in
        (match out with
        | Some path ->
            Gdp_render.Framebuffer.write_ppm fb path;
            Printf.printf "wrote %s (%dx%d)\n" path
              (Gdp_render.Framebuffer.width fb)
              (Gdp_render.Framebuffer.height fb)
        | None -> ());
        if ascii || out = None then print_string (Gdp_render.Framebuffer.to_ascii fb);
        0)
  in
  let doc = "Rasterize where a predicate is realised over a logical space (§I)." in
  Cmd.v (Cmd.info "render" ~doc)
    Term.(const run $ file_arg $ view_arg $ models_arg $ metas_arg $ pred_arg
          $ resolution_arg $ region_arg $ object_arg $ out_arg $ ascii_arg)

(* ---- lint ---- *)

let lint_cmd =
  let run file =
    handle_errors (fun () ->
        let result = load file in
        let findings = Lint.lint result.Gdp_lang.Elaborate.spec in
        match findings with
        | [] ->
            print_endline "clean: no findings";
            0
        | fs ->
            List.iter (fun f -> Format.printf "%a@." Lint.pp_finding f) fs;
            if Lint.has_errors fs then 1 else 0)
  in
  let doc = "Statically validate a specification (unused/undeclared names, dead rules)." in
  Cmd.v (Cmd.info "lint" ~doc) Term.(const run $ file_arg)

(* ---- explain ---- *)

let explain_cmd =
  let pattern_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"PATTERN" ~doc:"Ground-ish fact pattern to derive.")
  in
  let dot_arg =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit the derivation as GraphViz DOT.")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the derivation as a provenance-graph JSON object \
                   (root id, nodes with kind and label, conclusion-to-premise \
                   edges).")
  in
  let run file view models metas pattern dot json materialize magic snapshot
      stats trace_out =
    handle_errors (fun () ->
        if dot && json then
          invalid_arg "--dot and --json are mutually exclusive";
        let result = load file in
        if stats || trace_out <> None then enable_telemetry result;
        let materialize =
          materialize || (snapshot <> None && not magic)
        in
        let q =
          with_engine (build_query result view models metas) ~materialize ~magic
        in
        load_snapshot q snapshot;
        let pat = Gdp_lang.Elaborate.fact_to_pattern (Gdp_lang.Parser.fact pattern) in
        let code =
          match Query.explain_proof q pat with
          | Some proof ->
              if dot then
                print_string
                  (Gdp_logic.Explain.to_dot ~pp_goal:Query.pp_reified_term proof)
              else if json then
                print_string
                  (Gdp_logic.Explain.to_json ~pp_goal:Query.pp_reified_term
                     proof)
              else
                Format.printf "%a"
                  (Gdp_logic.Explain.pp ~pp_goal:Query.pp_reified_term)
                  proof;
              0
          | None ->
              print_endline "not provable (open world: undefined)";
              1
        in
        if stats then print_stats q;
        write_trace q trace_out;
        code)
  in
  let doc =
    "Show the derivation tree of a provable fact (requirements evidence). \
     Top-down SLDNF proof by default; under $(b,--materialize) or \
     $(b,--magic) the tree is reconstructed from the bottom-up fixpoint's \
     recorded lineage — the engine that derived the fact explains it."
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(const run $ file_arg $ view_arg $ models_arg $ metas_arg $ pattern_arg
          $ dot_arg $ json_arg $ materialize_arg $ magic_arg $ snapshot_arg
          $ stats_arg $ trace_out_arg)

(* ---- info ---- *)

let info_cmd =
  let run file =
    handle_errors (fun () ->
        let result = load file in
        let spec = result.Gdp_lang.Elaborate.spec in
        Printf.printf "objects:     %d\n" (List.length spec.Spec.objects);
        Printf.printf "predicates:  %d declared\n" (List.length spec.Spec.signatures);
        Printf.printf "models:      %s\n" (String.concat ", " (Spec.model_names spec));
        List.iter
          (fun (m : Spec.model_def) ->
            Printf.printf "  %-12s %d facts, %d accuracy statements, %d rules, %d constraints\n"
              m.Spec.model_name (List.length m.Spec.facts)
              (List.length m.Spec.acc_statements)
              (List.length m.Spec.rules)
              (List.length m.Spec.constraints))
          (List.rev spec.Spec.models);
        Printf.printf "spaces:      %s\n"
          (String.concat ", "
             (List.rev_map (fun (r : Gdp_space.Resolution.t) -> r.Gdp_space.Resolution.name)
                spec.Spec.spaces));
        Printf.printf "regions:     %s\n"
          (String.concat ", " (List.rev_map fst spec.Spec.regions));
        Printf.printf "meta-models: %s\n"
          (String.concat ", "
             (List.rev_map (fun (m : Spec.meta_model) -> m.Spec.meta_name) spec.Spec.meta_models));
        List.iter
          (fun v ->
            Printf.printf "view %s = models {%s} meta {%s}\n"
              v.Gdp_lang.Elaborate.view_name
              (String.concat ", " v.Gdp_lang.Elaborate.view_models)
              (String.concat ", " v.Gdp_lang.Elaborate.view_metas))
          result.Gdp_lang.Elaborate.views;
        0)
  in
  let doc = "Print a specification inventory." in
  Cmd.v (Cmd.info "info" ~doc) Term.(const run $ file_arg)

let main =
  let doc = "formal specification of geographic data processing requirements" in
  let info = Cmd.info "gdprs" ~version:"1.0.0" ~doc in
  Cmd.group info
    [ check_cmd; compile_cmd; update_cmd; query_cmd; ask_cmd; profile_cmd;
      render_cmd; lint_cmd; explain_cmd; info_cmd ]

let () = exit (Cmd.eval' main)
