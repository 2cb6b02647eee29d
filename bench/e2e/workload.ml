(* The four workloads: the inputs each generates from the seed, the gdprs
   command one op runs, and what the oracle expects that command to
   print. The oracle never calls the engine. *)

module Rng = Gdp_workload.Rng
module Census = Gdp_workload.Census

type kind = Check_closure | Query_snapshot | Update_closure | Check_topdown

let all = [ Check_closure; Query_snapshot; Update_closure; Check_topdown ]

let name = function
  | Check_closure -> "check-closure"
  | Query_snapshot -> "query-snapshot"
  | Update_closure -> "update-closure"
  | Check_topdown -> "check-topdown"

let of_name s = List.find_opt (fun k -> name k = s) all

(* Junctions for the roadnet specs, states for the census. The full sizes
   put one op's median between 150 and 400 ms on a 2-core x86-64 box; the
   smoke sizes keep every op near 10 ms. *)
let size ~smoke = function
  | Check_closure -> if smoke then 20 else 96
  | Query_snapshot -> if smoke then 20 else 200
  | Update_closure -> if smoke then 16 else 46
  | Check_topdown -> if smoke then 8 else 400

type op = {
  argv : string list;  (** gdprs arguments *)
  prepare : unit -> unit;  (** writes this op's inputs; runs outside the clock *)
  code : int;  (** expected exit status *)
  answers : string list;  (** expected answer lines, sorted *)
}

type env = {
  spec : string;  (** the generated .gdp file *)
  snapshot : string option;
      (** the .gdpx every op reads, if any; set-up compiles it from [spec] *)
  op : int -> op;  (** op [i]'s command and oracle, the same on every run *)
}

(* Lines of gdprs output that carry answers: violations and query
   solutions. Everything else (banners, counts) is ignored. *)
let answer_lines lines =
  List.filter_map
    (fun l ->
      let l = String.trim l in
      if String.starts_with ~prefix:"w: ERROR(" l
         || String.starts_with ~prefix:"reach(" l
      then Some l
      else None)
    lines
  |> List.sort compare

let write path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

let read path = In_channel.with_open_bin path In_channel.input_all
let op_rng ~seed i = Rng.create (Int64.of_int ((seed * 1_000_003) + i))

let census_gdp census =
  let open Gdp_core in
  let spec = Spec.create () in
  Meta.install_standard spec;
  Census.add_to_spec census spec ();
  Census.add_constraints spec ();
  Census.add_large_city_rule spec ~threshold:1_000_000 ();
  Gdp_lang.Pretty.spec_to_string spec

(* states the generator gave a second capital *)
let two_capitals (census : Census.t) =
  let capitals = Hashtbl.create 64 in
  List.iter
    (fun (c : Census.city) -> if c.is_capital then Hashtbl.add capitals c.in_state ())
    census.cities;
  List.filter_map
    (fun s ->
      if List.length (Hashtbl.find_all capitals s) >= 2 then
        Some (Printf.sprintf "w: ERROR(two_capitals, %s)" s)
      else None)
    census.states

let check_op argv answers =
  let answers = List.sort compare answers in
  { argv; prepare = ignore; code = (if answers = [] then 0 else 1); answers }

(* Writes the inputs for [kind] into [dir] and returns how to run it. *)
let inputs kind ~dir ~seed ~smoke =
  let rng = Rng.create (Int64.of_int seed) in
  let n = size ~smoke kind in
  let spec = Filename.concat dir "spec.gdp" in
  let snap = Filename.concat dir "spec.gdpx" in
  let roadnet () =
    let net = Roadnet.generate rng ~n in
    write spec (Roadnet.to_gdp net);
    net
  in
  match kind with
  | Check_closure ->
      let net = roadnet () in
      let op = check_op [ "check"; spec; "--materialize" ] (Roadnet.violations net) in
      { spec; snapshot = None; op = (fun _ -> op) }
  | Check_topdown ->
      let census =
        Census.generate rng ~n_states:n ~cities_per_state:4
          ~capital_bug_probability:0.2 ()
      in
      write spec (census_gdp census);
      let op = check_op [ "check"; spec ] (two_capitals census) in
      { spec; snapshot = None; op = (fun _ -> op) }
  | Query_snapshot ->
      let net = roadnet () in
      let op i =
        let src = Rng.int (op_rng ~seed i) (n - 1) in
        let answers = List.sort compare (Roadnet.reach_answers net src) in
        {
          argv =
            [ "query"; spec; Printf.sprintf "reach(n%d, X)" src; "--snapshot"; snap;
              "--limit"; "100000" ];
          prepare = ignore;
          code = (if answers = [] then 1 else 0);
          answers;
        }
      in
      { spec; snapshot = Some snap; op }
  | Update_closure ->
      let net = roadnet () in
      let script = Filename.concat dir "script.txt" in
      (* every op starts from the freshly compiled snapshot *)
      let pristine = lazy (read snap) in
      let op i =
        let s = Roadnet.script (op_rng ~seed i) net in
        let checked =
          check_op
            [ "update"; spec; "--script"; script; "--snapshot"; snap ]
            (Roadnet.violations (Roadnet.apply net s))
        in
        {
          checked with
          prepare =
            (fun () ->
              write script (Roadnet.script_text s);
              write snap (Lazy.force pristine));
        }
      in
      { spec; snapshot = Some snap; op }
