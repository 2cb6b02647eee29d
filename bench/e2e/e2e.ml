(* End-to-end benchmark of the gdprs CLI. See README.md for the workloads
   and metrics.

   e2e --gdprs PATH --workload NAME --seed N --seconds S --trace 0|1
     One run of one workload: the interface BENCHMARK.json's command is
     called with. [--trace 0] drives the CLI as a closed loop (one client,
     one command at a time) for S seconds and prints the end-to-end
     metrics; [--trace 1] alternates CLI ops with traced in-process samples
     of the same ops and prints the per-layer ledger. The last line of
     output is a JSON object. Without [--workload] and [--trace], every
     workload runs in both modes, one JSON line each.
   e2e --gdprs PATH --smoke --benchmark BENCHMARK.json
     Every workload at a tiny size, 3 ops per mode: checks that no op
     fails and that the printed metrics are exactly those BENCHMARK.json
     names.
   e2e --sample ID [--chrome FILE] [--count] -- GDPRS-ARGS...
     One traced op (see Ledger), run as a child process of a traced run.
   e2e --calibrate
     The fixed job that measures the host's speed (see [calibrate]). *)

module Tracer = Gdp_obs.Tracer

let end_to_end =
  [
    ("op_p50_ms", "ms");
    ("op_p90_ms", "ms");
    ("setup_s", "s");
    ("peak_heap_mb", "MB");
    ("input_bytes", "B");
  ]

(* Printed beside the end-to-end metrics but left out of the JSON: the
   unscaled latency and the calibration follow the host's drift, so no
   bound would hold them. *)
let printed_only = [ ("op_wall_p50_ms", "ms"); ("calibration_ms", "ms") ]

let per_layer =
  List.map (fun l -> (l ^ ".ms", "ms")) [ "parser"; "elaborate"; "compile"; "query.answer" ]
  @ List.concat_map (fun l -> [ (l ^ ".pct", "%"); (l ^ ".alloc_mw", "Mw") ]) Ledger.layers
  @ [
      ("parser.bytes", "B");
      ("parser.mb_per_s", "MB/s");
      ("compile.clauses", "count");
      ("bottom_up.run.facts_per_s", "1/s");
      ("bottom_up.run.facts", "count");
      ("bottom_up.run.passes", "count");
      ("bottom_up.run.firings", "count");
      ("bottom_up.run.index_probes", "count");
      ("bottom_up.run.full_scans", "count");
      ("bottom_up.run.membership_tests", "count");
      ("bottom_up.run.hcons_hit_rate", "ratio");
      ("bottom_up.run.prov_bytes", "B");
      ("spatial_index.probes", "count");
      ("spatial_index.scans", "count");
      ("bottom_up.apply.updates_per_s", "1/s");
      ("bottom_up.apply.inserted", "count");
      ("bottom_up.apply.deleted", "count");
      ("bottom_up.apply.overdeleted", "count");
      ("bottom_up.apply.rederived", "count");
      ("bottom_up.apply.strata_recomputed", "count");
      ("bottom_up.apply.rederive_ratio", "ratio");
      ("snapshot.bytes", "B");
      ("snapshot.load.mb_per_s", "MB/s");
      ("snapshot.save.mb_per_s", "MB/s");
      ("query.answers", "count");
      ("solve.unifications", "count");
      ("solve.calls", "count");
      ("trace.op_ms", "ms");
      ("trace.unaccounted_ms", "ms");
      ("cli.residual_ms", "ms");
    ]

(* ---- statistics ---- *)

let sorted l = Array.of_list (List.sort compare l)

let median l =
  let a = sorted l and n = List.length l in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* nearest rank *)
let percentile p l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then 0.0 else a.(max 0 (int_of_float (ceil (p *. float_of_int n)) - 1))

(* ---- processes and files ---- *)

let seconds_since t0 = Int64.to_float (Int64.sub (Tracer.now_ns ()) t0) /. 1e9

(* Runs [prog args] to completion; returns its exit status (-1 when a
   signal ended it) and stdout. *)
let run_process prog args =
  let ic = Unix.open_process_args_in prog (Array.of_list (prog :: args)) in
  let out = In_channel.input_all ic in
  let code =
    match Unix.close_process_in ic with
    | Unix.WEXITED code -> code
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
  in
  (code, String.split_on_char '\n' out)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let rm_flat_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let file_size path = (Unix.stat path).Unix.st_size

(* ---- host speed ---- *)

(* The host's speed drifts by tens of percent over minutes, most of all for
   what a fresh process does: start up and grow its heap. Every CLI op
   drifts with it. [calibrate] times a fixed job in a fresh child process
   (e2e --calibrate), from spawn to exit, in ms. Each op's time is divided
   by the mean of the calibrations just before and just after it: the
   quotient holds still while the host drifts, and moves when gdprs does.
   Timings are reported at the baseline host's speed, multiplied by
   [reference_ms], near the calibration's medians there. *)
let reference_ms = 50.0

(* The child's job, in the engine's style but with no engine code: a
   Marshal round trip into a hash table, as a snapshot load makes, then a
   semi-naive closure over hashed pairs. *)
let calibration_job () =
  let names = List.init 40_000 (fun i -> (i, string_of_int i)) in
  let table = Hashtbl.create 16 in
  List.iter
    (fun (i, name) -> Hashtbl.replace table name i)
    (Marshal.from_string (Marshal.to_string names []) 0 : (int * string) list);
  let n = 300 in
  let succ z = if z + 1 < n then [ z + 1; min (n - 1) (z + 2 + (z * 7 mod 8)) ] else [] in
  let reach = Hashtbl.create 16 in
  let step acc (x, z) =
    List.fold_left
      (fun acc y ->
        if Hashtbl.mem reach (x, y) then acc
        else begin
          Hashtbl.add reach (x, y) ();
          (x, y) :: acc
        end)
      acc (succ z)
  in
  let rec close delta = if delta <> [] then close (List.fold_left step [] delta) in
  close (List.fold_left step [] (List.init n (fun x -> (x, x))))

let calibrate () =
  let t0 = Tracer.now_ns () in
  match run_process Sys.executable_name [ "--calibrate" ] with
  | 0, _ -> seconds_since t0 *. 1000.0
  | code, _ -> failwith (Printf.sprintf "e2e --calibrate exited %d" code)

(* ---- one run ---- *)

type result = { attempted : int; failed : int; metrics : (string * float) list }

(* a sample's measurement; layers a command does not cross read 0 *)
let value k metrics = Option.value (List.assoc_opt k metrics) ~default:0.0

let run_workload ~gdprs ~workdir ~smoke ~ops ~trace ~seed ~seconds kind =
  let name = Workload.name kind in
  let dir =
    Filename.concat workdir (Printf.sprintf "%s-%d-%d" name seed (Unix.getpid ()))
  in
  mkdir_p dir;
  Fun.protect ~finally:(fun () -> rm_flat_dir dir) @@ fun () ->
  (* In the end-to-end run every timed step, a set-up or an op, is followed
     by a calibration, and [at_reference] scales its time. *)
  let cals = ref [] in
  let last_cal = ref (if trace then Float.nan else calibrate ()) in
  let at_reference t =
    let cal = calibrate () in
    cals := cal :: !cals;
    let scaled = t *. reference_ms *. 2.0 /. (!last_cal +. cal) in
    last_cal := cal;
    scaled
  in
  (* set-up writes the inputs and, where ops read a snapshot, compiles it *)
  let set_up () =
    let t0 = Tracer.now_ns () in
    let env = Workload.inputs kind ~dir ~seed ~smoke in
    Option.iter
      (fun snap ->
        let argv = [ "compile"; env.Workload.spec; "-o"; snap ] in
        let code, _ = run_process gdprs argv in
        if code <> 0 then
          failwith
            (Printf.sprintf "set-up `gdprs %s` exited %d" (String.concat " " argv) code))
      env.snapshot;
    (env, seconds_since t0)
  in
  (* Set-up is timed at least 5 times and, in a timed run, for at least
     2 s: the check workloads' set-up takes under a millisecond, and only
     the median of many reads steadily. The traced run sets up once and
     does not report it. *)
  let setups =
    if trace then [ set_up () ]
    else begin
      let start = Tracer.now_ns () in
      let rec go acc =
        if List.length acc >= 5 && (ops <> None || seconds_since start >= 2.0) then acc
        else
          let env, s = set_up () in
          go ((env, at_reference s) :: acc)
      in
      go []
    end
  in
  (* the inputs on disk are the last set-up's *)
  let env = fst (List.hd setups) in
  let input_bytes =
    file_size env.spec + Option.fold ~none:0 ~some:file_size env.snapshot
  in
  let attempted = ref 0 and failed = ref 0 in
  let tally ok =
    incr attempted;
    if not ok then incr failed
  in
  let cli i =
    let op = env.op i in
    op.prepare ();
    let t0 = Tracer.now_ns () in
    let code, lines = run_process gdprs op.argv in
    let ms = seconds_since t0 *. 1000.0 in
    tally (code = op.code && Workload.answer_lines lines = op.answers);
    ms
  in
  let sample ?chrome ?(count = false) i =
    let op = env.op i in
    op.prepare ();
    let flags =
      [ "--sample"; string_of_int i ]
      @ (match chrome with Some f -> [ "--chrome"; f ] | None -> [])
      @ (if count then [ "--count" ] else [])
    in
    let _, lines = run_process Sys.executable_name (flags @ ("--" :: op.argv)) in
    let code = ref (-1) and answers = ref [] and metrics = ref [] in
    List.iter
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "code"; c ] -> code := int_of_string c
        | "answer" :: _ -> answers := String.sub l 7 (String.length l - 7) :: !answers
        | [ "m"; k; v ] -> metrics := (k, float_of_string v) :: !metrics
        | _ -> ())
      lines;
    tally (!code = op.code && List.sort compare !answers = op.answers);
    !metrics
  in
  (* the closed loop: ops 0, 1, 2, ... until the time (or op count) is up *)
  let repeat f =
    let start = Tracer.now_ns () in
    let rec go i acc =
      let more =
        match ops with Some n -> i < n | None -> seconds_since start < seconds
      in
      if more then go (i + 1) (f i :: acc) else List.rev acc
    in
    go 0 []
  in
  let metrics =
    if not trace then begin
      let timed =
        repeat (fun i ->
            let ms = cli i in
            (ms, at_reference ms))
      in
      let scaled = List.map snd timed in
      let heap = List.init 3 (fun i -> value "peak_heap_mb" (sample i)) |> List.fold_left max 0.0 in
      [
        ("op_p50_ms", median scaled);
        ("op_p90_ms", percentile 0.9 scaled);
        ("setup_s", median (List.map snd setups));
        ("peak_heap_mb", heap);
        ("input_bytes", float_of_int input_bytes);
        ("op_wall_p50_ms", median (List.map fst timed));
        ("calibration_ms", median !cals);
      ]
    end
    else begin
      let chrome = Filename.concat workdir (Printf.sprintf "%s-seed%d.trace.json" name seed) in
      let pairs =
        repeat (fun i ->
            let cli_ms = cli i in
            (cli_ms, sample ?chrome:(if i = 0 then Some chrome else None) i))
      in
      let samples = List.map snd pairs in
      let counted = sample ~count:true 0 in
      let med k = median (List.map (value k) samples) in
      List.map
        (fun (k, _) ->
          match k with
          | "cli.residual_ms" -> (k, median (List.map fst pairs) -. med "trace.op_ms")
          | "solve.unifications" | "solve.calls" -> (k, value k counted)
          | _ -> (k, med k))
        per_layer
    end
  in
  { attempted = !attempted; failed = !failed; metrics }

(* ---- output ---- *)

let number v = if Float.is_integer v then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let units trace = if trace then per_layer else end_to_end

let print_summary ~trace name r =
  Printf.printf "# %s (%s): %d ops, %d failed\n" name
    (if trace then "traced ledger" else "end to end")
    r.attempted r.failed

let printed trace = if trace then per_layer else end_to_end @ printed_only

let print_result ~trace name r =
  print_summary ~trace name r;
  List.iter
    (fun (k, u) -> Printf.printf "#   %-36s %16.4f %s\n" k (List.assoc k r.metrics) u)
    (printed trace);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.failed = 0) r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (k, u) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" k
              (number (List.assoc k r.metrics)) u)
          (units trace)))

(* ---- smoke test ---- *)

(* (name, unit) of every object in BENCHMARK.json that has both; the
   workloads have a name and no unit *)
let benchmark_metrics path =
  let field key obj =
    let tag = Printf.sprintf "\"%s\": \"" key in
    let rec find i =
      if i + String.length tag > String.length obj then None
      else if String.sub obj i (String.length tag) = tag then
        let start = i + String.length tag in
        Some (String.sub obj start (String.index_from obj start '"' - start))
      else find (i + 1)
    in
    find 0
  in
  Workload.read path |> String.split_on_char '{'
  |> List.filter_map (fun chunk ->
         let obj = List.hd (String.split_on_char '}' chunk) in
         match (field "name" obj, field "unit" obj) with
         | Some n, Some u -> Some (n, u)
         | _ -> None)
  |> List.sort compare

let smoke ~gdprs ~workdir ~benchmark =
  let listed = benchmark_metrics benchmark in
  let expected = List.sort compare (end_to_end @ per_layer) in
  let ok = ref (listed = expected) in
  if not !ok then prerr_endline "smoke: BENCHMARK.json metrics differ from the bench's";
  List.iter
    (fun kind ->
      List.iter
        (fun trace ->
          let r =
            run_workload ~gdprs ~workdir ~smoke:true ~ops:(Some 3) ~trace ~seed:1
              ~seconds:0.0 kind
          in
          print_summary ~trace (Workload.name kind) r;
          let names l = List.sort compare (List.map fst l) in
          if r.failed > 0 || names r.metrics <> names (printed trace) then begin
            ok := false;
            Printf.eprintf "smoke: %s failed\n" (Workload.name kind)
          end)
        [ false; true ])
    Workload.all;
  if not !ok then exit 1

(* ---- command line ---- *)

let () =
  match Array.to_list Sys.argv with
  | [ _; "--calibrate" ] -> calibration_job ()
  | _ :: "--sample" :: id :: rest ->
      let rec flags chrome count = function
        | "--chrome" :: f :: r -> flags (Some f) count r
        | "--count" :: r -> flags chrome true r
        | "--" :: argv -> Ledger.run ~sample:(int_of_string id) ~chrome ~count argv
        | _ -> invalid_arg "usage: e2e --sample ID [--chrome FILE] [--count] -- ARGS"
      in
      flags None false rest
  | _ ->
      let gdprs = ref "" and workload = ref "all" and seed = ref 1 in
      let seconds = ref 25.0 and trace = ref (-1) and workdir = ref "_run" in
      let smoke_test = ref false and benchmark = ref "BENCHMARK.json" in
      Arg.parse
        [
          ("--gdprs", Arg.Set_string gdprs, "PATH the gdprs executable");
          ("--workload", Arg.Set_string workload, "NAME a workload, or all (default)");
          ("--seed", Arg.Set_int seed, "N input seed (default 1)");
          ("--seconds", Arg.Set_float seconds, "S measured time per run (default 25)");
          ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced run (default both)");
          ("--workdir", Arg.Set_string workdir, "DIR inputs and traces (default _run)");
          ("--smoke", Arg.Set smoke_test, " run the smoke test");
          ("--benchmark", Arg.Set_string benchmark, "FILE BENCHMARK.json, for --smoke");
        ]
        (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
        "e2e --gdprs PATH [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]";
      if !gdprs = "" then (prerr_endline "e2e: --gdprs is required"; exit 2);
      let gdprs =
        if Filename.is_relative !gdprs then Filename.concat (Sys.getcwd ()) !gdprs else !gdprs
      in
      let workdir = !workdir in
      if !smoke_test then smoke ~gdprs ~workdir ~benchmark:!benchmark
      else
        let kinds =
          if !workload = "all" then Workload.all
          else
            match Workload.of_name !workload with
            | Some k -> [ k ]
            | None -> prerr_endline ("e2e: unknown workload " ^ !workload); exit 2
        in
        let modes = match !trace with 0 -> [ false ] | 1 -> [ true ] | _ -> [ false; true ] in
        List.iter
          (fun kind ->
            List.iter
              (fun trace ->
                print_result ~trace (Workload.name kind)
                  (run_workload ~gdprs ~workdir ~smoke:false ~ops:None ~trace ~seed:!seed
                     ~seconds:!seconds kind))
              modes)
          kinds
