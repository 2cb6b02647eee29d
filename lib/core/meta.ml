open Gdp_logic

let clauses_of_string = Reader.program

let mk ?(loop = false) name doc src =
  {
    Spec.meta_name = name;
    meta_doc = doc;
    meta_clauses = clauses_of_string src;
    needs_loop_check = loop;
  }

let contradiction () =
  mk "contradiction" "no fact may be both true and false (§IV-B)"
    {|
    holds(M, 'ERROR', [contradiction, Q], Os, nospace, notime) :-
        holds(M, Q, [true], Os, S, T),
        holds(M, Q, [false], Os, S, T).
    |}

let cwa () =
  mk "cwa" "closed world assumption for unary value-free predicates (§IV-A)"
    {|
    holds(M, Q, [true], [X], nospace, notime) :-
        holds(M, Q, [], [X], nospace, notime).
    holds(M, Q, [false], [X], nospace, notime) :-
        model(M), pred(Q, 0, 1), obj(X),
        \+ holds(M, Q, [true], [X], nospace, notime).
    |}

let spatial_simple () =
  mk "spatial_simple"
    "space-independent facts are true at every point in space (§V-C)"
    {|
    holds(M, Q, Vs, Os, at(P), T) :-
        ground(P),
        holds(M, Q, Vs, Os, nospace, T).
    |}

let spatial_uniform () =
  mk "spatial_uniform"
    "area-uniform operator: patch-wide truth and downward inheritance (§V-C)"
    {|
    holds(M, Q, Vs, Os, at(P1), T) :-
        ground(P1),
        holds(M, Q, Vs, Os, u(R, P), T),
        res_same_cell(R, P1, P).
    holds(M, Q, Vs, Os, u(R2, P2), T) :-
        nonvar(R2),
        res_refines(R2, R1),
        holds(M, Q, Vs, Os, u(R1, P1), T),
        res_subcell_member(R2, R1, P1, P2).
    |}

let spatial_uniform_up () =
  let m =
    mk ~loop:true "spatial_uniform_up"
      "area-uniform operator: upward acquisition when all subareas agree (§V-C)"
      {|
      holds(M, Q, Vs, Os, u(R1, P1), T) :-
          nonvar(R1), ground(P1),
          res_refines(R2, R1),
          res_subcells(R2, R1, P1, [P2 | Rest]),
          holds(M, Q, Vs, Os, u(R2, P2), T),
          forall(member(PX, Rest), holds(M, Q, Vs, Os, u(R2, PX), T)).
      |}
  in
  m

let spatial_sampled () =
  mk "spatial_sampled"
    "area-sampled operator: samples from points and from subareas (§V-C)"
    {|
    holds(M, Q, Vs, Os, s(R, P0), T) :-
        space(R),
        holds(M, Q, Vs, Os, at(P), T),
        res_canon(R, P, P0).
    holds(M, Q, Vs, Os, s(R1, P1), T) :-
        res_refines(R2, R1),
        holds(M, Q, Vs, Os, s(R2, P2), T),
        res_canon(R1, P2, P1).
    |}

let spatial_averaged () =
  mk "spatial_averaged"
    "area-average operator over single-value facts (§V-C)"
    {|
    holds(M, Q, [V0], Os, a(R1, P1), T) :-
        nonvar(R1), ground(P1),
        res_refines(R2, R1),
        res_subcells(R2, R1, P1, [P2 | Rest]),
        holds(M, Q, [_], Os, u(R2, P2), T),
        forall(member(PX, Rest), holds(M, Q, [_], Os, u(R2, PX), T)),
        aggregate_avg(V, (member(PY, [P2 | Rest]), holds(M, Q, [V], Os, u(R2, PY), T)), V0).
    holds(M, Q, [V0], Os, a(R1, P1), T) :-
        nonvar(R1), ground(P1),
        res_refines(R2, R1),
        res_subcells(R2, R1, P1, [P2 | Rest]),
        holds(M, Q, [_], Os, a(R2, P2), T),
        forall(member(PX, Rest), holds(M, Q, [_], Os, a(R2, PX), T)),
        aggregate_avg(V, (member(PY, [P2 | Rest]), holds(M, Q, [V], Os, a(R2, PY), T)), V0).
    |}

let temporal_simple () =
  mk "temporal_simple"
    "time-independent facts are true at every instant (§VI)"
    {|
    holds(M, Q, Vs, Os, S, t(T)) :-
        ground(T),
        holds(M, Q, Vs, Os, S, notime).
    |}

let temporal_uniform () =
  mk "temporal_uniform"
    "interval-uniform operator: member instants and subintervals (§VI-B)"
    {|
    holds(M, Q, Vs, Os, S, t(T)) :-
        ground(T),
        holds(M, Q, Vs, Os, S, tu(Iv)),
        iv_mem(T, Iv).
    holds(M, Q, Vs, Os, S, tu(Iv2)) :-
        nonvar(Iv2),
        holds(M, Q, Vs, Os, S, tu(Iv1)),
        iv_subset(Iv2, Iv1).
    |}

let temporal_sampled () =
  mk "temporal_sampled" "interval-sampled operator (§VI)"
    {|
    holds(M, Q, Vs, Os, S, ts(Iv)) :-
        nonvar(Iv),
        holds(M, Q, Vs, Os, S, t(T)),
        iv_mem(T, Iv).
    holds(M, Q, Vs, Os, S, ts(Iv1)) :-
        nonvar(Iv1),
        holds(M, Q, Vs, Os, S, ts(Iv2)),
        iv_subset(Iv2, Iv1).
    |}

let temporal_comprehension () =
  mk "temporal_comprehension"
    "comprehension principle: expedient interval-uniform truth (§VI-B)"
    {|
    holds(M, Q, Vs, Os, S, tu(Iv)) :-
        nonvar(Iv),
        holds(M, Q, Vs, Os, S, t(T)),
        iv_mem(T, Iv).
    |}

let temporal_continuity () =
  mk "temporal_continuity"
    "continuity assumption for single-value facts (§VI-B)"
    {|
    holds(M, Q, [V1], Os, S, tu(Iv)) :-
        holds(M, Q, [V1], Os, S, t(T1)),
        holds(M, Q, [_V2], Os, S, t(T2)),
        T1 < T2,
        \+ (holds(M, Q, [_V], Os, S, t(T)), T > T1, T < T2),
        iv_make(incl(T1), excl(T2), Iv).
    |}

let temporal_persistence () =
  mk "temporal_persistence"
    "a fact persists from its last observation until contradicted (§I)"
    {|
    holds(M, Q, [V], Os, S, t(T)) :-
        ground(T),
        holds(M, Q, [V], Os, S, t(T1)),
        T1 < T,
        time_now(NOW), T =< NOW,
        \+ (holds(M, Q, [_V2], Os, S, t(T2)), T2 > T1, T2 =< T).
    |}

let temporal_averaged () =
  mk "temporal_averaged"
    "interval-average operator over single-value instant observations (§VI)"
    {|
    holds(M, Q, [V0], Os, S, ta(Iv)) :-
        nonvar(Iv),
        holds(M, Q, [_V1], Os, S, t(T1)),
        iv_mem(T1, Iv),
        aggregate_avg(V, (holds(M, Q, [V], Os, S, t(T)), iv_mem(T, Iv)), V0).
    |}

let point_type () =
  mk "point_type"
    "point-type features: every position-dependent property of the object \
     is realised at a single point (§V-D)"
    {|
    holds(M, point_type, [], [X], nospace, notime) :-
        obj(X),
        holds(M, _Q1, _V1, [X], at(P1), _T1),
        \+ (holds(M, _Q2, _V2, [X], at(P2), _T2), P2 \== P1).
    |}

let overlap () =
  mk "overlap"
    "two objects overlap when position-dependent properties of both are \
     realised at the same point (§V-D)"
    {|
    holds(M, overlap, [], [X, Y], nospace, notime) :-
        holds(M, _Q1, _V1, [X], at(P), _T1),
        holds(M, _Q2, _V2, [Y], at(P), _T2),
        X \== Y.
    |}

let temporal_cyclic () =
  mk "temporal_cyclic"
    "cyclic interval-uniform facts hold at every instant whose phase falls \
     in the cycle's interval (§VI-B's undescribed extension)"
    {|
    holds(M, Q, Vs, Os, S, t(T)) :-
        ground(T),
        holds(M, Q, Vs, Os, S, cyc(Period, Iv)),
        cyc_mem(T, Period, Iv).
    |}

let temporal_now () =
  mk "temporal_now" "&now facts are true throughout the present (§VI-B)"
    {|
    holds(M, Q, Vs, Os, S, t(T)) :-
        ground(T),
        time_present(T),
        holds(M, Q, Vs, Os, S, t(now)).
    |}

let fuzzy_unified_max () =
  mk "fuzzy_unified_max"
    "unified fuzzy operator: highest assigned accuracy (§VII-D)"
    {|
    acc_max(M, Q, Vs, Os, S, T, A) :-
        acc(M, Q, Vs, Os, S, T, _),
        aggregate_max(A0, acc(M, Q, Vs, Os, S, T, A0), A).
    |}

let fuzzy_unified_min () =
  mk "fuzzy_unified_min"
    "unified fuzzy operator variant: lowest assigned accuracy (§VII-D)"
    {|
    acc_max(M, Q, Vs, Os, S, T, A) :-
        acc(M, Q, Vs, Os, S, T, _),
        aggregate_min(A0, acc(M, Q, Vs, Os, S, T, A0), A).
    |}

let fuzzy_unified_avg () =
  mk "fuzzy_unified_avg"
    "unified fuzzy operator variant: average assigned accuracy (§VII-D)"
    {|
    acc_max(M, Q, Vs, Os, S, T, A) :-
        acc(M, Q, Vs, Os, S, T, _),
        aggregate_avg(A0, acc(M, Q, Vs, Os, S, T, A0), A).
    |}

let fuzzy_threshold ~model ~threshold =
  if threshold < 0.0 || threshold > 1.0 then
    invalid_arg "Meta.fuzzy_threshold: threshold outside [0, 1]";
  mk
    (Printf.sprintf "fuzzy_threshold_%s" model)
    (Printf.sprintf
       "facts with unified accuracy above %g are realised in model %s (§VII-C)"
       threshold model)
    (Printf.sprintf
       {|
       holds(%s, Q, Vs, Os, S, T) :-
           acc_max(_M, Q, Vs, Os, S, T, A),
           A > %f.
       |}
       model threshold)

let fuzzy_propagation_name = "fuzzy_propagation"

let fuzzy_propagation () =
  {
    Spec.meta_name = fuzzy_propagation_name;
    meta_doc =
      "generate the mechanical accuracy-propagation clause for every \
       virtual-fact definition (§VII-F)";
    meta_clauses = [];
    needs_loop_check = false;
  }

let sorts spec =
  let clause_for (s : Spec.signature) position domain =
    let value_pattern =
      s.Spec.value_domains
      |> List.mapi (fun i _ -> if i = position then "V" else "_")
      |> String.concat ", "
    in
    Reader.clause
      (Printf.sprintf
         "holds(M, 'ERROR', [bad_sort, %s, V], [], nospace, notime) :- \
          holds(M, %s, [%s], _Os, _S, _T), \\+ domain_contains(%s, V)."
         s.Spec.pred_name s.Spec.pred_name value_pattern domain)
  in
  let clauses =
    List.concat_map
      (fun (s : Spec.signature) ->
        List.mapi (fun i d -> clause_for s i d) s.Spec.value_domains)
      (List.rev spec.Spec.signatures)
  in
  {
    Spec.meta_name = "sorts";
    meta_doc = "many-sorted logic: values must lie in their declared domains (§III-C)";
    meta_clauses = clauses;
    needs_loop_check = false;
  }

let copying ?name ~pred ?fine ?coarse () =
  let f = match fine with Some x -> Printf.sprintf "'%s'" x | None -> "R2" in
  let c = match coarse with Some x -> Printf.sprintf "'%s'" x | None -> "R1" in
  let n = Option.value name ~default:(Printf.sprintf "copy_%s" pred) in
  mk n
    (Printf.sprintf "copying abstraction rule for %s (§V-D)" pred)
    (Printf.sprintf
       {|
       holds(M, %s, Vs, Os, s(%s, P0), T) :-
           res_refines(%s, %s),
           holds(M, %s, Vs, Os, s(%s, P), T),
           res_canon(%s, P, P0).
       |}
       pred c f c pred f c)

let thresholding ?name ~pred ?fine ?coarse ~min_cells () =
  let f = match fine with Some x -> Printf.sprintf "'%s'" x | None -> "R2" in
  let c = match coarse with Some x -> Printf.sprintf "'%s'" x | None -> "R1" in
  let n = Option.value name ~default:(Printf.sprintf "threshold_%s" pred) in
  mk n
    (Printf.sprintf
       "thresholding abstraction rule for %s: present at low resolution only \
        when covering more than %d fine cells (§V-D island example)"
       pred min_cells)
    (Printf.sprintf
       {|
       holds(M, %s, Vs, Os, s(%s, P0), T) :-
           res_refines(%s, %s),
           holds(M, %s, Vs, Os, s(%s, P), T),
           res_canon(%s, P, P0),
           count_distinct(PX, holds(M, %s, Vs, Os, s(%s, PX), T), N),
           N > %d.
       |}
       pred c f c pred f c pred f min_cells)

let averaging ?name ~pred ?fine ?coarse () =
  let f = match fine with Some x -> Printf.sprintf "'%s'" x | None -> "R2" in
  let c = match coarse with Some x -> Printf.sprintf "'%s'" x | None -> "R1" in
  let n = Option.value name ~default:(Printf.sprintf "avg_%s" pred) in
  mk n
    (Printf.sprintf "averaging abstraction rule for %s (§V-D)" pred)
    (Printf.sprintf
       {|
       holds(M, %s, [V0], Os, a(%s, P1), T) :-
           ground(P1),
           res_refines(%s, %s),
           res_subcells(%s, %s, P1, [P2 | Rest]),
           holds(M, %s, [_], Os, u(%s, P2), T),
           forall(member(PX, Rest), holds(M, %s, [_], Os, u(%s, PX), T)),
           aggregate_avg(V, (member(PY, [P2 | Rest]), holds(M, %s, [V], Os, u(%s, PY), T)), V0).
       |}
       pred c f c f c pred f pred f pred f)

let composition ?name ~a ~b ~result ?fine ?coarse () =
  let f = match fine with Some x -> Printf.sprintf "'%s'" x | None -> "R2" in
  let c = match coarse with Some x -> Printf.sprintf "'%s'" x | None -> "R1" in
  let n = Option.value name ~default:(Printf.sprintf "compose_%s" result) in
  mk n
    (Printf.sprintf
       "composition abstraction rule: %s and %s in one coarse cell yield %s \
        (§V-D shore-line example)"
       a b result)
    (Printf.sprintf
       {|
       holds(M, %s, [], Os, at(P0), T) :-
           res_refines(%s, %s),
           holds(M, %s, [], Os, at(P1), T),
           res_canon(%s, P1, P0),
           holds(M, %s, [], Os, at(P2), T),
           res_same_cell(%s, P1, P2).
       |}
       result f c a c b c)

(* ---- §V-D spatial relations between objects ---- *)

let adjacency ?name ~located ~resolution ~max_gap () =
  if max_gap <= 0.0 then invalid_arg "Meta.adjacency: max_gap must be positive";
  let n = Option.value name ~default:"adjacency" in
  mk n
    (Printf.sprintf
       "two objects are adjacent when %s points fall in distinct %s cells whose \
        representatives are within %g (§V-D)"
       located resolution max_gap)
    (Printf.sprintf
       {|
       holds(M, adjacent, [], [X, Y], nospace, notime) :-
           holds(M, %s, _V1, [X], at(P1), _T1),
           holds(M, %s, _V2, [Y], at(P2), _T2),
           X \== Y,
           res_canon('%s', P1, C1),
           res_canon('%s', P2, C2),
           C1 \== C2,
           pt_dist(C1, C2, D),
           D =< %f.
       |}
       located located resolution resolution max_gap)

let relative_position ?name ~located () =
  let n = Option.value name ~default:"relative_position" in
  (* Cartesian convention: direction in radians counterclockwise from +x;
     east (-pi/4, pi/4], north (pi/4, 3pi/4], etc. The direction builtin
     returns [0, 2pi). *)
  mk n
    (Printf.sprintf
       "north_of/south_of/east_of/west_of between objects with %s points (§V-D \
        relative position)"
       located)
    (Printf.sprintf
       {|
       holds(M, north_of, [], [X, Y], nospace, notime) :-
           holds(M, %s, _V1, [X], at(P1), _T1),
           holds(M, %s, _V2, [Y], at(P2), _T2),
           X \== Y,
           pt_direction(P2, P1, A), A > 0.7853981, A =< 2.3561944.
       holds(M, west_of, [], [X, Y], nospace, notime) :-
           holds(M, %s, _V1, [X], at(P1), _T1),
           holds(M, %s, _V2, [Y], at(P2), _T2),
           X \== Y,
           pt_direction(P2, P1, A), A > 2.3561944, A =< 3.9269908.
       holds(M, south_of, [], [X, Y], nospace, notime) :-
           holds(M, %s, _V1, [X], at(P1), _T1),
           holds(M, %s, _V2, [Y], at(P2), _T2),
           X \== Y,
           pt_direction(P2, P1, A), A > 3.9269908, A =< 5.4977871.
       holds(M, east_of, [], [X, Y], nospace, notime) :-
           holds(M, %s, _V1, [X], at(P1), _T1),
           holds(M, %s, _V2, [Y], at(P2), _T2),
           X \== Y,
           pt_direction(P2, P1, A),
           (A =< 0.7853981 ; A > 5.4977871).
       |}
       located located located located located located located located)

let relative_size ?name ~pred ~resolution () =
  let n = Option.value name ~default:(Printf.sprintf "size_%s" pred) in
  mk n
    (Printf.sprintf
       "larger_than between objects by the number of distinct %s cells their %s \
        samples cover (§V-D relative size via the size function)"
       resolution pred)
    (Printf.sprintf
       {|
       holds(M, larger_than, [], [X, Y], nospace, notime) :-
           holds(M, %s, _VX, [X], s('%s', _PX), _TX),
           holds(M, %s, _VY, [Y], s('%s', _PY), _TY),
           X \== Y,
           count_distinct(P1, holds(M, %s, _V1, [X], s('%s', P1), _T1), N1),
           count_distinct(P2, holds(M, %s, _V2, [Y], s('%s', P2), _T2), N2),
           N1 > N2.
       |}
       pred resolution pred resolution pred resolution pred resolution)

let standard_makers () =
  [
    contradiction ();
    cwa ();
    spatial_simple ();
    spatial_uniform ();
    spatial_uniform_up ();
    spatial_sampled ();
    spatial_averaged ();
    point_type ();
    overlap ();
    temporal_simple ();
    temporal_uniform ();
    temporal_sampled ();
    temporal_averaged ();
    temporal_comprehension ();
    temporal_continuity ();
    temporal_persistence ();
    temporal_cyclic ();
    temporal_now ();
    fuzzy_unified_max ();
    fuzzy_unified_min ();
    fuzzy_unified_avg ();
    fuzzy_propagation ();
  ]

let standard_names =
  [
    "contradiction";
    "cwa";
    "spatial_simple";
    "spatial_uniform";
    "spatial_uniform_up";
    "spatial_sampled";
    "spatial_averaged";
    "point_type";
    "overlap";
    "temporal_simple";
    "temporal_uniform";
    "temporal_sampled";
    "temporal_averaged";
    "temporal_comprehension";
    "temporal_continuity";
    "temporal_persistence";
    "temporal_cyclic";
    "temporal_now";
    "fuzzy_unified_max";
    "fuzzy_unified_min";
    "fuzzy_unified_avg";
    "fuzzy_propagation";
    "sorts";
  ]

let install_standard spec =
  List.iter (Spec.add_meta_model spec) (standard_makers ());
  Spec.add_meta_model spec (sorts spec)
