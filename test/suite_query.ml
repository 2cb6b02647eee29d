open Gdp_logic
open Gdp_core

let a = Term.atom
let v = Term.var

(* the paper's §II/§III running example *)
let roads_spec () =
  let spec = Spec.create () in
  Meta.install_standard spec;
  Spec.declare_objects spec [ "s1"; "s2"; "b1"; "b2"; "b3" ];
  Spec.declare_predicate spec "road" ~object_arity:1;
  Spec.declare_predicate spec "bridge" ~object_arity:2;
  List.iter
    (fun o -> Spec.add_fact spec (Gfact.make "road" ~objects:[ a o ]))
    [ "s1"; "s2" ];
  List.iter
    (fun (b, s) -> Spec.add_fact spec (Gfact.make "bridge" ~objects:[ a b; a s ]))
    [ ("b1", "s1"); ("b2", "s1"); ("b3", "s2") ];
  List.iter
    (fun b -> Spec.add_fact spec (Gfact.make "open" ~objects:[ a b ]))
    [ "b1"; "b2" ];
  let x = v "X" and y = v "Y" in
  Spec.add_rule spec ~name:"open_road" ~head:(Gfact.make "open_road" ~objects:[ x ])
    Formula.(
      And
        ( Atom (Gfact.make "road" ~objects:[ x ]),
          Forall
            ( Atom (Gfact.make "bridge" ~objects:[ y; x ]),
              Atom (Gfact.make "open" ~objects:[ y ]) ) ));
  let x = v "X" in
  Spec.add_rule spec ~name:"closed" ~head:(Gfact.make "closed" ~objects:[ x ])
    Formula.(
      And
        ( Atom (Gfact.make "bridge" ~objects:[ x; v "_R" ]),
          Not (Atom (Gfact.make "open" ~objects:[ x ])) ));
  let x = v "X" in
  Spec.add_constraint spec ~name:"open_and_closed" ~error:"open_and_closed"
    ~args:[ x ]
    Formula.(
      conj
        [
          Atom (Gfact.make "open" ~objects:[ x ]);
          Atom (Gfact.make "closed" ~objects:[ x ]);
        ]);
  spec

let test_paper_virtual_facts () =
  let q = Query.create (roads_spec ()) in
  Alcotest.(check bool) "open_road(s1)" true
    (Query.holds q (Gfact.make "open_road" ~objects:[ a "s1" ]));
  Alcotest.(check bool) "open_road(s2) undefined" false
    (Query.holds q (Gfact.make "open_road" ~objects:[ a "s2" ]));
  Alcotest.(check bool) "closed(b3) by NAF" true
    (Query.holds q (Gfact.make "closed" ~objects:[ a "b3" ]))

let test_solutions_enumeration () =
  let q = Query.create (roads_spec ()) in
  let sols = Query.solutions q (Gfact.make "bridge" ~objects:[ v "B"; v "R" ]) in
  Alcotest.(check int) "three bridges" 3 (List.length sols);
  Alcotest.(check bool) "instantiated" true (List.for_all Gfact.is_ground sols);
  let limited = Query.solutions ~limit:2 q (Gfact.make "bridge" ~objects:[ v "B"; v "R" ]) in
  Alcotest.(check int) "limit honoured" 2 (List.length limited)

let test_consistency () =
  let spec = roads_spec () in
  let q = Query.create spec in
  Alcotest.(check bool) "consistent" true (Query.consistent q);
  Alcotest.(check int) "no violations" 0 (List.length (Query.violations q));
  Spec.add_fact spec (Gfact.make "closed" ~objects:[ a "b1" ]);
  let q2 = Query.create spec in
  Alcotest.(check bool) "inconsistent after closed(b1)" false (Query.consistent q2);
  match Query.violations q2 with
  | [ viol ] ->
      Alcotest.(check string) "tag" "open_and_closed" viol.Query.v_tag;
      Alcotest.(check string) "model" "w" viol.Query.v_model;
      Alcotest.(check bool) "culprit" true
        (List.exists (Term.equal (a "b1")) viol.Query.v_args)
  | l -> Alcotest.failf "expected one violation, got %d" (List.length l)

let test_world_view_filtering () =
  let spec = roads_spec () in
  Spec.declare_model spec "proposed";
  Spec.add_fact spec ~model:"proposed" (Gfact.make "road" ~objects:[ a "s1" ]);
  Spec.add_fact spec ~model:"proposed" (Gfact.make "planned" ~objects:[ a "s9" ]);
  let q_all = Query.create spec in
  Alcotest.(check bool) "proposed fact visible in full view" true
    (Query.holds q_all (Gfact.make "planned" ~model:"proposed" ~objects:[ a "s9" ]));
  let q_w = Query.create spec ~world_view:[ "w" ] in
  Alcotest.(check bool) "invisible when model outside world view" false
    (Query.holds q_w (Gfact.make "planned" ~model:"proposed" ~objects:[ a "s9" ]));
  Alcotest.(check (list string)) "world view recorded" [ "w" ] (Query.world_view q_w)

let test_constraint_relative_to_world_view () =
  (* a violation may occur in one world view but not another (§III-E) *)
  let spec = roads_spec () in
  Spec.declare_model spec "survey";
  Spec.add_fact spec ~model:"survey" (Gfact.make "open" ~objects:[ a "b3" ]);
  Spec.add_fact spec ~model:"survey" (Gfact.make "closed" ~objects:[ a "b3" ]);
  let x = v "X" in
  Spec.add_constraint spec ~model:"survey" ~name:"survey_conflict"
    ~error:"survey_conflict" ~args:[ x ]
    Formula.(
      conj
        [
          Atom (Gfact.make "open" ~objects:[ x ]);
          Atom (Gfact.make "closed" ~objects:[ x ]);
        ]);
  Alcotest.(check bool) "w alone consistent" true
    (Query.consistent (Query.create spec ~world_view:[ "w" ]));
  Alcotest.(check bool) "with survey inconsistent" false
    (Query.consistent (Query.create spec ~world_view:[ "w"; "survey" ]))

let test_undeclared_names_rejected () =
  let spec = roads_spec () in
  Alcotest.(check bool) "bad model" true
    (try
       ignore (Query.create spec ~world_view:[ "nope" ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad meta-model" true
    (try
       ignore (Query.create spec ~meta_view:[ "nope" ]);
       false
     with Invalid_argument _ -> true)

let test_generator_facts () =
  let q = Query.create (roads_spec ()) in
  Alcotest.(check bool) "model generator" true (Query.ask q "model(w)");
  Alcotest.(check bool) "pred generator" true (Query.ask q "pred(road, 0, 1)");
  Alcotest.(check bool) "obj generator" true (Query.ask q "obj(b2)");
  Alcotest.(check int) "all objects" 5
    (List.length (Query.ask_all q "obj(X)"))

let test_ask_raw () =
  let q = Query.create (roads_spec ()) in
  Alcotest.(check bool) "raw holds query" true
    (Query.ask q "holds(w, road, [], [s1], nospace, notime)");
  Alcotest.(check int) "raw enumeration" 2
    (List.length (Query.ask_all q "holds(w, road, [], [R], nospace, notime)"))

let test_rule_clause_shape () =
  let x = v "X" in
  let rule =
    {
      Spec.rule_head = Gfact.make "p" ~objects:[ x ];
      rule_accuracy = None;
      rule_body = Formula.Atom (Gfact.make "q" ~objects:[ x ]);
      rule_name = "test";
    }
  in
  let c = Compile.rule_clause ~model:"m" rule in
  (match c.Database.head with
  | Term.App ("holds", Term.Atom "m" :: _) -> ()
  | t -> Alcotest.failf "head: %s" (Term.to_string t));
  Alcotest.(check int) "one body goal" 1 (List.length c.Database.body);
  (* propagation companion *)
  (match Compile.propagation_clause ~model:"m" rule with
  | Some pc -> (
      match pc.Database.head with
      | Term.App ("acc", _) ->
          Alcotest.(check int) "body + ac_eval" 2 (List.length pc.Database.body)
      | t -> Alcotest.failf "acc head: %s" (Term.to_string t))
  | None -> Alcotest.fail "propagation clause expected");
  let acc_rule = { rule with Spec.rule_accuracy = Some (Term.float 0.5) } in
  Alcotest.(check bool) "no companion for accuracy rules" true
    (Compile.propagation_clause ~model:"m" acc_rule = None);
  match (Compile.rule_clause ~model:"m" acc_rule).Database.head with
  | Term.App ("acc", args) ->
      Alcotest.(check bool) "accuracy last arg" true
        (match List.rev args with Term.Float 0.5 :: _ -> true | _ -> false)
  | t -> Alcotest.failf "acc rule head: %s" (Term.to_string t)

let test_depth_options () =
  let spec = roads_spec () in
  (* a pathological meta-model that loops *)
  Spec.add_meta_model spec
    {
      Spec.meta_name = "looper";
      meta_doc = "test";
      meta_clauses = [ Reader.clause "holds(M, Q, V, O, S, T) :- holds(M, Q, V, O, S, T)." ];
      needs_loop_check = false;
    };
  let q = Query.create spec ~meta_view:[ "looper" ] ~max_depth:200 in
  (try
     ignore (Query.holds q (Gfact.make "nothing" ~objects:[ a "x" ]));
     Alcotest.fail "expected Depth_exhausted"
   with Solve.Depth_exhausted { depth; goal = _ } ->
     Alcotest.(check int) "carries the configured budget" 200 depth);
  let q2 = Query.create spec ~meta_view:[ "looper" ] ~max_depth:200 ~on_depth:`Fail in
  Alcotest.(check bool) "fail mode" false
    (Query.holds q2 (Gfact.make "nothing" ~objects:[ a "x" ]))

let test_loop_check_auto_enabled () =
  let spec = roads_spec () in
  Spec.add_meta_model spec
    {
      Spec.meta_name = "looper";
      meta_doc = "test";
      meta_clauses = [ Reader.clause "holds(M, Q, V, O, S, T) :- holds(M, Q, V, O, S, T)." ];
      needs_loop_check = true;
    };
  (* needs_loop_check makes the identical-goal recursion fail finitely *)
  let q = Query.create spec ~meta_view:[ "looper" ] in
  Alcotest.(check bool) "terminates and answers" true
    (Query.holds q (Gfact.make "road" ~objects:[ a "s1" ]))

(* a specification inside the stratified Datalog fragment: recursion,
   negation of a single atom, and a seeded constraint violation *)
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
  Spec.add_constraint spec ~name:"flag_reach" ~error:"flagged_reachable"
    ~args:[ x ]
    Formula.(
      conj
        [
          Atom (Gfact.make "reach" ~objects:[ a "n1"; x ]);
          Atom (Gfact.make "flagged" ~objects:[ x ]);
        ]);
  spec

let test_materialized_mode () =
  let spec = datalog_spec () in
  let q = Query.create spec in
  (match Query.materializable q with
  | Ok () -> ()
  | Error r -> Alcotest.failf "expected materializable: %s" r);
  let qm = Query.with_mode q Query.Materialized in
  Alcotest.(check bool) "ground holds" true
    (Query.holds qm (Gfact.make "reach" ~objects:[ a "n1"; a "n4" ]));
  Alcotest.(check bool) "absent" false
    (Query.holds qm (Gfact.make "reach" ~objects:[ a "n4"; a "n1" ]));
  Alcotest.(check int) "open query from the fixpoint" 3
    (List.length (Query.solutions qm (Gfact.make "reach" ~objects:[ a "n1"; v "Y" ])));
  let key f = Format.asprintf "%a" Gfact.pp f in
  let sorted l = List.sort_uniq compare (List.map key l) in
  Alcotest.(check (list string))
    "solutions agree with top-down"
    (sorted (Query.solutions q (Gfact.make "reach" ~objects:[ v "X"; v "Y" ])))
    (sorted (Query.solutions qm (Gfact.make "reach" ~objects:[ v "X"; v "Y" ])));
  (* negation over a lower stratum *)
  Alcotest.(check bool) "clear(n1)" true
    (Query.holds qm (Gfact.make "clear" ~objects:[ a "n1" ]));
  Alcotest.(check bool) "not clear(n3): flagged" false
    (Query.holds qm (Gfact.make "clear" ~objects:[ a "n3" ]));
  (* the ERROR sweep runs off the fixpoint *)
  (match Query.violations qm with
  | [ viol ] -> Alcotest.(check string) "tag" "flagged_reachable" viol.Query.v_tag
  | l -> Alcotest.failf "expected one violation, got %d" (List.length l));
  Alcotest.(check bool) "consistent agrees with top-down" (Query.consistent q)
    (Query.consistent qm);
  (* a forall-using spec is not materializable *)
  match Query.materializable (Query.create (roads_spec ())) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "forall spec should not be materializable"

(* Raw goals in materialised mode are answered from the fixpoint: the
   same rows as top-down resolution, and not one SLDNF call. *)
let test_ask_materialized () =
  let query mode =
    Query.create ~mode ~tracer:(Gdp_obs.Tracer.create ()) (datalog_spec ())
  in
  let qt = query Query.Top_down and qm = query Query.Materialized in
  let rows q goal =
    Query.ask_all q goal
    |> List.map (fun row ->
           String.concat ", "
             (List.map (fun (n, t) -> n ^ " = " ^ Term.to_string t) row))
    |> List.sort compare
  in
  List.iter
    (fun goal ->
      Alcotest.(check (list string)) goal (rows qt goal) (rows qm goal);
      Alcotest.(check bool) goal (Query.ask qt goal) (Query.ask qm goal))
    [
      "holds(w, reach, [], [n1, X], nospace, notime)";
      "holds(M, reach, Vs, [X, n4], S, T)";
      "holds(w, clear, [], [X], nospace, notime)";
      "holds(w, reach, [], [n4, n1], nospace, notime)";
    ];
  Alcotest.(check int) "no SLDNF call in materialised mode" 0
    (Solve.total_calls (Option.get (Query.solve_stats qm)));
  Alcotest.check_raises "a conjunction is no single goal"
    (Bottom_up.Unsupported "ask takes a single atomic goal (no conjunctions)")
    (fun () ->
      ignore
        (Query.ask qm
           "holds(w, reach, [], [n1, X], nospace, notime), \
            holds(w, clear, [], [X], nospace, notime)"))

let test_update_maintains_views () =
  let spec = datalog_spec () in
  let q = Query.create spec in
  let qm = Query.with_mode q Query.Materialized in
  (* materialise first, so the update exercises incremental repair *)
  Alcotest.(check bool) "n1 reaches n4" true
    (Query.holds qm (Gfact.make "reach" ~objects:[ a "n1"; a "n4" ]));
  let link x y = Gfact.make "link" ~objects:[ a x; a y ] in
  ignore (Query.update q [ `Assert (link "n4" "n1") ]);
  (* the fixpoint cache cell is shared: the with_mode copy sees the
     repair even though the update went through the top-down copy *)
  Alcotest.(check bool) "cycle closed (materialized)" true
    (Query.holds qm (Gfact.make "reach" ~objects:[ a "n4"; a "n2" ]));
  Alcotest.(check bool) "cycle closed (top-down)" true
    (Query.holds q (Gfact.make "reach" ~objects:[ a "n4"; a "n2" ]));
  let i = Bottom_up.incr_stats (Query.materialization qm) in
  Alcotest.(check int) "repaired in one maintenance batch" 1
    i.Bottom_up.upd_batches;
  (* retraction through negation: unflagging n3 makes it clear and
     removes the flagged_reachable violation *)
  ignore
    (Query.update qm [ `Retract (Gfact.make "flagged" ~objects:[ a "n3" ]) ]);
  Alcotest.(check bool) "clear(n3) after retract (materialized)" true
    (Query.holds qm (Gfact.make "clear" ~objects:[ a "n3" ]));
  Alcotest.(check bool) "clear(n3) after retract (top-down)" true
    (Query.holds q (Gfact.make "clear" ~objects:[ a "n3" ]));
  Alcotest.(check bool) "violations cleared" true (Query.consistent qm);
  Alcotest.(check int) "updates logged on the spec" 2
    (List.length (Spec.update_log spec));
  (* a fresh compile of the same spec replays the log and agrees *)
  let q2 = Query.with_mode (Query.create spec) Query.Materialized in
  let key f = Format.asprintf "%a" Gfact.pp f in
  let sorted l = List.sort_uniq compare (List.map key l) in
  Alcotest.(check (list string))
    "fresh compile agrees with the maintained query"
    (sorted (Query.solutions qm (Gfact.make "reach" ~objects:[ v "X"; v "Y" ])))
    (sorted (Query.solutions q2 (Gfact.make "reach" ~objects:[ v "X"; v "Y" ])));
  (* invalid updates are rejected before anything mutates *)
  match
    Query.update q [ `Assert (Gfact.make "link" ~objects:[ v "X"; a "n1" ]) ]
  with
  | exception Invalid_argument _ ->
      Alcotest.(check int) "rejected update not logged" 2
        (List.length (Spec.update_log spec))
  | _ -> Alcotest.fail "non-ground update accepted"

(* A batch whose repair runs into the pass bound is undone: the database
   and the update log read as before it, and the next answer re-runs
   from that base instead of hitting the bound again. *)
let test_update_past_bound_undone () =
  let spec =
    (Gdp_lang.Elaborate.load_string
       {|objects a.
fact r(0).
rule r(Y) <- go(a), r(X), test Y is X + 1.
constraint counted(X) <- r(X).
|})
      .Gdp_lang.Elaborate.spec
  in
  let q = Query.with_mode (Query.create spec) Query.Materialized in
  let fact p = Gfact.make p ~objects:[ a "a" ] in
  ignore (Query.update q [ `Assert (fact "seen") ]);
  let key f = Format.asprintf "%a" Gfact.pp f in
  let log () =
    List.map (function `Assert f -> "+" ^ key f | `Retract f -> "-" ^ key f)
      (Spec.update_log spec)
  in
  let violations () = List.map (Format.asprintf "%a" Query.pp_violation) (Query.violations q) in
  let size = Database.size (Query.db q) and log_before = log () in
  let before = violations () in
  (match Query.update q [ `Assert (fact "extra"); `Assert (fact "go") ] with
  | exception Bottom_up.Bound_exceeded (`Passes, _) -> ()
  | _ -> Alcotest.fail "the batch did not reach the pass bound");
  Alcotest.(check int) "clauses as before the batch" size (Database.size (Query.db q));
  Alcotest.(check (list string)) "log as before the batch" log_before (log ());
  Alcotest.(check (list string)) "violations as before the batch" before (violations ());
  Alcotest.(check bool) "go(a) is gone" false (Query.holds q (fact "go"))

let tests =
  [
    Alcotest.test_case "paper's virtual facts" `Quick test_paper_virtual_facts;
    Alcotest.test_case "a batch past the pass bound is undone" `Quick
      test_update_past_bound_undone;
    Alcotest.test_case "materialized engine mode" `Quick test_materialized_mode;
    Alcotest.test_case "materialized ask answers from the fixpoint" `Quick
      test_ask_materialized;
    Alcotest.test_case "incremental updates keep every view coherent" `Quick
      test_update_maintains_views;
    Alcotest.test_case "solution enumeration" `Quick test_solutions_enumeration;
    Alcotest.test_case "consistency and violations" `Quick test_consistency;
    Alcotest.test_case "world-view filtering" `Quick test_world_view_filtering;
    Alcotest.test_case "violations relative to world view" `Quick
      test_constraint_relative_to_world_view;
    Alcotest.test_case "undeclared names rejected" `Quick test_undeclared_names_rejected;
    Alcotest.test_case "generator facts" `Quick test_generator_facts;
    Alcotest.test_case "raw queries" `Quick test_ask_raw;
    Alcotest.test_case "compiled clause shapes" `Quick test_rule_clause_shape;
    Alcotest.test_case "depth options" `Quick test_depth_options;
    Alcotest.test_case "automatic loop check" `Quick test_loop_check_auto_enabled;
  ]
