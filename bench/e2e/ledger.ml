(* One traced op inside the bench process. Given the gdprs arguments of a
   workload op, it makes the library calls the CLI makes for that command,
   in the same order, with a span around each layer. A traced run starts it
   in a fresh child process per sample, so hash-cons tables and the heap
   start cold, as they do for a CLI run.

   Output, one item per line: "code N" (the exit status the CLI would
   return), "answer LINE" (each line the CLI would print as an answer) and
   "m NAME VALUE" (one measurement of this sample). *)

open Gdp_core
module Tracer = Gdp_obs.Tracer
module Bottom_up = Gdp_logic.Bottom_up

(* every command crosses parser, elaborate, compile and query.answer; the
   engine layers in between depend on the command *)
let layers =
  [ "parser"; "elaborate"; "compile"; "snapshot.load"; "bottom_up.run";
    "bottom_up.apply"; "snapshot.save"; "query.answer" ]

let opt name argv =
  let rec go = function
    | x :: v :: _ when x = name -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go argv

(* the CLI's update-script syntax: "assert FACT" or "retract FACT" *)
let parse_update line =
  let i = String.index line ' ' in
  let fact =
    Gdp_lang.Elaborate.fact_to_pattern
      (Gdp_lang.Parser.fact (String.sub line (i + 1) (String.length line - i - 1)))
  in
  match String.sub line 0 i with
  | "assert" -> `Assert fact
  | "retract" -> `Retract fact
  | op -> invalid_arg ("unknown update " ^ op)

let run ~sample ~chrome ~count argv =
  let sub, spec_path =
    match argv with
    | sub :: path :: _ -> (sub, path)
    | _ -> invalid_arg "expected gdprs arguments: COMMAND FILE ..."
  in
  let metrics = ref [] in
  let metric name v = metrics := (name, v) :: !metrics in
  let tr = Tracer.create () in
  let layer name f =
    let words = Gc.minor_words () in
    let frame = Tracer.begin_span tr ~cat:"layer" name in
    let r = f () in
    Tracer.end_span tr
      ~args:[ ("alloc_mw", Tracer.Float ((Gc.minor_words () -. words) /. 1e6)) ]
      frame;
    r
  in
  let root = Tracer.begin_span tr ~cat:"op" ~args:[ ("sample", Tracer.Int sample) ] sub in
  let src = In_channel.with_open_bin spec_path In_channel.input_all in
  let ast = layer "parser" (fun () -> Gdp_lang.Parser.program src) in
  let result =
    layer "elaborate" (fun () ->
        Gdp_lang.Elaborate.program ~base_dir:(Filename.dirname spec_path) ast)
  in
  let spec = result.Gdp_lang.Elaborate.spec in
  spec.Spec.jobs <- 1;
  let snapshot = opt "--snapshot" argv in
  let materialize = List.mem "--materialize" argv || snapshot <> None in
  (* the counting sample attaches an enabled tracer, which switches on the
     top-down engine's counters *)
  let tracer = if count then Some (Tracer.create ()) else None in
  let q =
    layer "compile" (fun () ->
        Query.of_compiled ?tracer
          (Compile.compile ~world_view:(Spec.default_world_view spec)
             ~meta_view:result.Gdp_lang.Elaborate.uses spec))
  in
  let q = if materialize then Query.with_mode q Query.Materialized else q in
  Option.iter
    (fun path ->
      (Query.spec q).Spec.snapshot_path <- Some path;
      match layer "snapshot.load" (fun () -> Query.of_snapshot q path) with
      | Ok (bytes, _) -> metric "snapshot.bytes" (float_of_int bytes)
      | Error e -> failwith (Query.snapshot_error_message e))
    snapshot;
  let run =
    if materialize && snapshot = None then
      Some (layer "bottom_up.run" (fun () -> Query.materialization q))
    else None
  in
  (* answers are rendered after the op's span closes: printing is CLI
     residual, not a layer *)
  let violations () =
    match layer "query.answer" (fun () -> Query.violations q) with
    | [] -> (0, fun () -> [])
    | vs -> (1, fun () -> List.map (Format.asprintf "%a" Query.pp_violation) vs)
  in
  let code, render =
    match sub with
    | "check" -> violations ()
    | "query" -> (
        let pattern = List.nth argv 2 in
        let limit = int_of_string (Option.value (opt "--limit" argv) ~default:"20") in
        match
          layer "query.answer" (fun () ->
              Query.solutions ~limit q
                (Gdp_lang.Elaborate.fact_to_pattern (Gdp_lang.Parser.fact pattern)))
        with
        | [] -> (1, fun () -> [])
        | sols -> (0, fun () -> List.map (Format.asprintf "%a" Gfact.pp) sols))
    | "update" ->
        let path = Option.get snapshot in
        let updates =
          In_channel.with_open_bin (Option.get (opt "--script" argv)) In_channel.input_lines
          |> List.filter (fun l -> String.trim l <> "")
          |> List.map parse_update
        in
        let fp = Query.materialization q in
        let before = Bottom_up.incr_stats fp in
        layer "bottom_up.apply" (fun () ->
            List.iter (fun u -> ignore (Query.update q [ u ])) updates);
        let after = Bottom_up.incr_stats fp in
        let delta f = float_of_int (f after - f before) in
        let overdeleted = delta (fun s -> s.upd_overdeleted) in
        let rederived = delta (fun s -> s.upd_rederived) in
        metric "bottom_up.apply.updates" (float_of_int (List.length updates));
        metric "bottom_up.apply.inserted" (delta (fun s -> s.upd_inserted));
        metric "bottom_up.apply.deleted" (delta (fun s -> s.upd_deleted));
        metric "bottom_up.apply.overdeleted" overdeleted;
        metric "bottom_up.apply.rederived" rederived;
        metric "bottom_up.apply.strata_recomputed"
          (delta (fun s -> s.upd_strata_recomputed));
        metric "bottom_up.apply.rederive_ratio"
          (if overdeleted > 0.0 then rederived /. overdeleted else 0.0);
        let bytes, _ = layer "snapshot.save" (fun () -> Query.save_snapshot q path) in
        metric "snapshot.save.bytes" (float_of_int bytes);
        violations ()
    | _ -> invalid_arg ("unsupported command " ^ sub)
  in
  Tracer.end_span tr root;
  let answers = render () in
  Option.iter
    (fun fp ->
      let s = Bottom_up.stats fp in
      List.iter
        (fun (name, v) -> metric name (float_of_int v))
        [
          ("bottom_up.run.facts", s.bu_facts);
          ("bottom_up.run.passes", s.bu_passes);
          ("bottom_up.run.firings", s.bu_firings);
          ("bottom_up.run.index_probes", s.bu_index_probes);
          ("bottom_up.run.full_scans", s.bu_full_scans);
          ("bottom_up.run.membership_tests", s.bu_membership_tests);
          ("bottom_up.run.prov_bytes", s.bu_prov.prov_bytes);
          ("spatial_index.probes", s.bu_spatial_probes);
          ("spatial_index.scans", s.bu_spatial_scans);
        ];
      metric "bottom_up.run.hcons_hit_rate" (Bottom_up.hcons_hit_rate s))
    run;
  metric "query.answers" (float_of_int (List.length answers));
  metric "parser.bytes" (float_of_int (String.length src));
  metric "compile.clauses" (float_of_int (Gdp_logic.Database.size (Query.db q)));
  (match Query.solve_stats q with
  | Some s ->
      metric "solve.unifications" (float_of_int s.Gdp_logic.Solve.unifications);
      metric "solve.calls" (float_of_int (Gdp_logic.Solve.total_calls s))
  | None -> ());
  metric "peak_heap_mb"
    (float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6);
  (* the ledger: the op's root span and one child per layer *)
  let spans = Tracer.spans tr in
  let ms (s : Tracer.span) = Int64.to_float s.dur_ns /. 1e6 in
  let op = List.find (fun (s : Tracer.span) -> s.parent = -1) spans in
  let parts = List.filter (fun (s : Tracer.span) -> s.parent = op.id) spans in
  List.iter
    (fun (s : Tracer.span) ->
      metric (s.name ^ ".ms") (ms s);
      metric (s.name ^ ".pct") (100.0 *. ms s /. ms op);
      match List.assoc_opt "alloc_mw" s.args with
      | Some (Tracer.Float mw) -> metric (s.name ^ ".alloc_mw") mw
      | _ -> ())
    parts;
  metric "trace.op_ms" (ms op);
  metric "trace.unaccounted_ms"
    (List.fold_left (fun acc s -> acc -. ms s) (ms op) parts);
  (* throughputs of the layers only some commands cross *)
  let rate name per ~layer ~scale =
    match
      (List.assoc_opt per !metrics,
       List.find_opt (fun (s : Tracer.span) -> s.name = layer) parts)
    with
    | Some n, Some s when s.dur_ns > 0L -> metric name (n /. scale /. (ms s /. 1000.0))
    | _ -> ()
  in
  rate "parser.mb_per_s" "parser.bytes" ~layer:"parser" ~scale:1e6;
  rate "bottom_up.run.facts_per_s" "bottom_up.run.facts" ~layer:"bottom_up.run" ~scale:1.0;
  rate "bottom_up.apply.updates_per_s" "bottom_up.apply.updates"
    ~layer:"bottom_up.apply" ~scale:1.0;
  rate "snapshot.load.mb_per_s" "snapshot.bytes" ~layer:"snapshot.load" ~scale:1e6;
  rate "snapshot.save.mb_per_s" "snapshot.save.bytes" ~layer:"snapshot.save" ~scale:1e6;
  Option.iter
    (fun path ->
      Tracer.finish tr;
      ignore (Gdp_obs.Export.write_chrome_trace tr path))
    chrome;
  Printf.printf "code %d\n" code;
  List.iter (Printf.printf "answer %s\n") answers;
  List.iter (fun (name, v) -> Printf.printf "m %s %.17g\n" name v) (List.rev !metrics)
