(* Junction-graph specifications for the roadnet-* workloads, and the
   oracle that answers them without the engine: breadth-first search over
   the link graph and a brute-force Euclidean pair check.

   The graph is a backbone chain plus one forward shortcut per junction,
   2 to 9 junctions ahead, so it is acyclic. The shortcuts come from one
   fixed stream: every seed builds the same graph shape and derives the
   same closure, so runs on different seeds do the same work. The seed
   places the junctions on a lattice of sites 3 units apart, so each site
   is close (under 4 units) to its lattice neighbours only and the close
   relation has the same size for every seed; it also picks each op's
   query source and update script. *)

module Rng = Gdp_workload.Rng

type t = {
  n : int;
  links : (int * int) list;
  sites : (int * int) array;  (* lattice (column, row) of each junction *)
  flagged : int list;
}

let shortcut rng n a = (a, min (n - 1) (a + 2 + Rng.int rng 8))
let columns n = int_of_float (ceil (sqrt (float_of_int n)))

let generate rng ~n =
  let shape = Rng.create 0L in
  let links =
    List.init (n - 1) (fun i -> (i, i + 1)) @ List.init (n - 2) (shortcut shape n)
  in
  let cols = columns n in
  let cells = Array.of_list (Rng.shuffle rng (List.init n Fun.id)) in
  {
    n;
    links;
    sites = Array.map (fun c -> (c mod cols, c / cols)) cells;
    flagged = List.filter (fun i -> i mod 17 = 0) (List.init n Fun.id);
  }

let to_gdp t =
  let b = Buffer.create (64 * t.n) in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  line "objects %s."
    (String.concat ", " (List.init t.n (Printf.sprintf "n%d")));
  (* about a quarter of the lattice, edges between site rows and columns *)
  let zone = (3 * (columns t.n / 2)) - 2 in
  line "region zone = rect(0.0, 0.0, %d.5, %d.5)." zone zone;
  List.iter (fun (a, c) -> line "fact link(n%d, n%d)." a c) t.links;
  Array.iteri
    (fun i (x, y) -> line "fact @(%d.0, %d.0) site(n%d)." (3 * x) (3 * y) i)
    t.sites;
  List.iter (line "fact flagged(n%d).") t.flagged;
  List.iter (line "%s")
    [
      "rule reach(X, Y) <- link(X, Y).";
      "rule reach(X, Y) <- reach(X, Z), link(Z, Y).";
      "rule clear(X) <- link(X, _), not flagged(X).";
      "rule close(X, Y) <- @P site(X), @Q site(Y), test pt_dist(P, Q, D), \
       test D > 0.0, test D < 4.0.";
      "rule inzone(X) <- @P site(X), test region_mem(zone, P).";
      "constraint flagged_reachable(X) <- reach(n0, X), flagged(X).";
      "constraint crowded(X, Y) <- close(X, Y), flagged(X), flagged(Y).";
    ];
  Buffer.contents b

(* ---- update scripts ---- *)

type script = {
  closed : int * int;  (* the backbone link that is retracted *)
  opened : (int * int) list;  (* asserted shortcuts *)
  hazard : int;  (* newly flagged junction *)
}

(* Every op closes the middle backbone link and opens two shortcuts past
   it. DRed over-deletes about i * (n - i) reach facts for bridge i, and a
   shortcut across the closed bridge would restore a seed-dependent share of
   them, so both choices keep every op's work the same: a run's latency
   percentiles then do not depend on which scripts the seed drew. *)
let script rng t =
  let i = t.n / 2 in
  let opened = List.init 2 (fun _ -> shortcut rng t.n (i + 1 + Rng.int rng (t.n - i - 3))) in
  { closed = (i, i + 1); opened; hazard = Rng.int rng t.n }

let script_text s =
  let link (a, c) = Printf.sprintf "link(n%d, n%d)" a c in
  String.concat "\n"
    ((("retract " ^ link s.closed) :: List.map (fun l -> "assert " ^ link l) s.opened)
    @ [ Printf.sprintf "assert flagged(n%d)" s.hazard ])
  ^ "\n"

let apply t s =
  {
    t with
    links = List.filter (fun l -> l <> s.closed) t.links @ s.opened;
    flagged = List.sort_uniq compare (s.hazard :: t.flagged);
  }

(* ---- oracle ---- *)

(* junctions reachable from [src] over one or more links *)
let reachable t src =
  let adj = Array.make t.n [] in
  List.iter (fun (a, c) -> adj.(a) <- c :: adj.(a)) t.links;
  let seen = Array.make t.n false in
  let queue = Queue.create () in
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    List.iter
      (fun y ->
        if not seen.(y) then begin
          seen.(y) <- true;
          Queue.add y queue
        end)
      adj.(Queue.pop queue)
  done;
  seen

(* 0 < distance < 4.0, with sites 3 units per lattice step *)
let close t a c =
  let (xa, ya), (xc, yc) = (t.sites.(a), t.sites.(c)) in
  let d2 = 9 * (((xa - xc) * (xa - xc)) + ((ya - yc) * (ya - yc))) in
  d2 > 0 && d2 < 16

let violations t =
  let from_n0 = reachable t 0 in
  List.filter_map
    (fun x ->
      if from_n0.(x) then
        Some (Printf.sprintf "w: ERROR(flagged_reachable, n%d)" x)
      else None)
    t.flagged
  @ List.concat_map
      (fun x ->
        List.filter_map
          (fun y ->
            if close t x y then
              Some (Printf.sprintf "w: ERROR(crowded, n%d, n%d)" x y)
            else None)
          t.flagged)
      t.flagged

let reach_answers t src =
  let r = reachable t src in
  List.filter_map
    (fun y ->
      if r.(y) then Some (Printf.sprintf "reach(n%d, n%d)" src y) else None)
    (List.init t.n Fun.id)
