open Gdp_logic
open Gdp_core

let a = Term.atom
let v = Term.var

let db_with src =
  let db = Engine.create () in
  Engine.consult db src;
  db

let test_fact_proof () =
  let db = db_with "p(1)." in
  match Explain.first db (Reader.goals "p(1)") with
  | Some (_, [ Explain.Fact g ]) ->
      Alcotest.(check string) "goal recorded" "p(1)" (Term.to_string g)
  | _ -> Alcotest.fail "expected a fact leaf"

let test_rule_proof () =
  let db = db_with "q(X) :- p(X), r(X). p(1). r(1)." in
  match Explain.first db (Reader.goals "q(1)") with
  | Some (_, [ Explain.Rule { goal; premises = [ Explain.Fact _; Explain.Fact _ ] } ])
    ->
      Alcotest.(check string) "instantiated goal" "q(1)" (Term.to_string goal)
  | Some (_, [ p ]) ->
      Alcotest.failf "unexpected shape (size %d, depth %d)" (Explain.size p)
        (Explain.depth p)
  | _ -> Alcotest.fail "no proof"

let test_recursive_proof_depth () =
  let db = db_with "e(a, b). e(b, c). e(c, d). path(X, Y) :- e(X, Y). path(X, Y) :- e(X, Z), path(Z, Y)." in
  match Explain.first db (Reader.goals "path(a, d)") with
  | Some (_, [ proof ]) ->
      Alcotest.(check bool) "deep derivation" true (Explain.depth proof >= 3);
      Alcotest.(check bool) "several nodes" true (Explain.size proof >= 5)
  | _ -> Alcotest.fail "no proof"

let test_naf_leaf () =
  let db = db_with "closed(X) :- bridge(X), \\+ open(X). bridge(b1)." in
  match Explain.first db (Reader.goals "closed(b1)") with
  | Some (_, [ Explain.Rule { premises; _ } ]) ->
      Alcotest.(check bool) "has naf premise" true
        (List.exists (function Explain.Naf _ -> true | _ -> false) premises)
  | _ -> Alcotest.fail "no proof"

let test_builtin_leaf () =
  let db = db_with "big(X) :- X > 10." in
  match Explain.first db (Reader.goals "big(20)") with
  | Some (_, [ Explain.Rule { premises = [ Explain.Builtin _ ]; _ } ]) -> ()
  | _ -> Alcotest.fail "expected builtin premise"

let test_branch_records_taken () =
  let db = db_with "status(X) :- (open(X) ; closed(X)). closed(b)." in
  match Explain.first db (Reader.goals "status(b)") with
  | Some (_, [ Explain.Rule { premises = [ Explain.Branch { taken; _ } ]; _ } ]) ->
      Alcotest.(check string) "closed branch taken" "closed(b)"
        (Term.to_string (Explain.goal_of taken))
  | _ -> Alcotest.fail "expected branch premise"

let test_agrees_with_solve () =
  (* the explainer and the solver prove exactly the same goals *)
  let db =
    db_with
      {|
      e(a, b). e(b, c). e(c, a). f(c).
      reach(X, Y) :- e(X, Y).
      reach(X, Y) :- e(X, Z), reach(Z, Y).
      good(X) :- f(X), \+ e(X, a).
      |}
  in
  let opts = { Solve.default_options with loop_check = true } in
  (* each answer as the goals it instantiates, in answer order *)
  let instances goals s = List.map (fun g -> Term.to_string (Subst.apply s g)) goals in
  List.iter
    (fun goal ->
      let s = Solve.succeeds ~options:opts db (Reader.goals goal) in
      let e = Explain.first ~options:opts db (Reader.goals goal) <> None in
      Alcotest.(check bool) goal s e;
      let goals = Reader.goals goal in
      Alcotest.(check (list (list string)))
        (goal ^ ": same answers in the same order")
        (List.map (instances goals) (Solve.all ~options:opts db goals))
        (Explain.prove ~options:opts db goals
        |> List.of_seq
        |> List.map (fun (s, _) -> instances goals s)))
    [
      "reach(a, c)"; "reach(a, z)"; "good(c)"; "good(a)"; "e(a, b), e(b, c)";
      "reach(a, X)"; "reach(X, Y)"; "e(X, Y), \\+ f(Y)";
      "(e(X, c) ; f(X))"; "(f(X) -> e(X, Y) ; e(Y, X))"; "e(X, Y), X \\== Y";
      "findall(Y, reach(a, Y), L)";
    ]

let test_multiple_proofs_enumerated () =
  let db = db_with "p(1). p(2). p(3)." in
  let proofs = Explain.prove db (Reader.goals "p(X)") |> List.of_seq in
  Alcotest.(check int) "three proofs" 3 (List.length proofs)

let test_pp_renders () =
  let db = db_with "q(X) :- p(X). p(1)." in
  match Explain.first db (Reader.goals "q(1)") with
  | Some (_, [ proof ]) ->
      let s = Format.asprintf "%a" (Explain.pp ?pp_goal:None) proof in
      Alcotest.(check bool) "mentions rule" true
        (String.split_on_char '\n' s |> List.length >= 2)
  | _ -> Alcotest.fail "no proof"

(* GDP-level explanations *)

let test_query_explain () =
  let spec = Spec.create () in
  Meta.install_standard spec;
  Spec.declare_objects spec [ "s1"; "b1"; "b2" ];
  List.iter (Spec.add_fact spec)
    [
      Gfact.make "road" ~objects:[ a "s1" ];
      Gfact.make "bridge" ~objects:[ a "b1"; a "s1" ];
      Gfact.make "bridge" ~objects:[ a "b2"; a "s1" ];
      Gfact.make "open" ~objects:[ a "b1" ];
      Gfact.make "open" ~objects:[ a "b2" ];
    ];
  let x = v "X" and y = v "Y" in
  Spec.add_rule spec ~name:"open_road" ~head:(Gfact.make "open_road" ~objects:[ x ])
    Formula.(
      And
        ( Atom (Gfact.make "road" ~objects:[ x ]),
          Forall
            ( Atom (Gfact.make "bridge" ~objects:[ y; x ]),
              Atom (Gfact.make "open" ~objects:[ y ]) ) ));
  let q = Query.create spec in
  (match Query.explain q (Gfact.make "open_road" ~objects:[ a "s1" ]) with
  | Some text ->
      let contains needle =
        let n = String.length needle and h = String.length text in
        let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "shows the fact notation" true (contains "open_road(s1)");
      Alcotest.(check bool) "shows the road premise" true (contains "road(s1)")
  | None -> Alcotest.fail "expected an explanation");
  Alcotest.(check bool) "unprovable yields None" true
    (Query.explain q (Gfact.make "open_road" ~objects:[ a "szzz" ]) = None)

let test_query_explain_through_meta () =
  let spec = Spec.create () in
  Meta.install_standard spec;
  Spec.declare_space spec (Gdp_space.Resolution.uniform ~name:"r1" 4.0);
  Spec.declare_object spec "land";
  Spec.add_fact spec
    (Gfact.make "wet" ~objects:[ a "land" ]
       ~space:(Gfact.S_uniform (a "r1", Gfact.pos_term (Gdp_space.Point.make 2.0 2.0))));
  let q = Query.create spec ~meta_view:[ "spatial_uniform" ] in
  match
    Query.explain_proof q
      (Gfact.make "wet" ~objects:[ a "land" ]
         ~space:(Gfact.S_at (Gfact.pos_term (Gdp_space.Point.make 1.0 3.0))))
  with
  | Some proof -> Alcotest.(check bool) "derivation through meta-rule" true
      (Explain.depth proof >= 2)
  | None -> Alcotest.fail "expected a proof"

let tests =
  [
    Alcotest.test_case "fact leaves" `Quick test_fact_proof;
    Alcotest.test_case "rule nodes" `Quick test_rule_proof;
    Alcotest.test_case "recursive derivations" `Quick test_recursive_proof_depth;
    Alcotest.test_case "negation leaves" `Quick test_naf_leaf;
    Alcotest.test_case "builtin leaves" `Quick test_builtin_leaf;
    Alcotest.test_case "branch records taken" `Quick test_branch_records_taken;
    Alcotest.test_case "agrees with the solver" `Quick test_agrees_with_solve;
    Alcotest.test_case "enumerates all proofs" `Quick test_multiple_proofs_enumerated;
    Alcotest.test_case "pretty printing" `Quick test_pp_renders;
    Alcotest.test_case "Query.explain" `Quick test_query_explain;
    Alcotest.test_case "explain through meta-models" `Quick
      test_query_explain_through_meta;
  ]
