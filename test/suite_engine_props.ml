(* Differential testing: on the stratified Datalog fragment the top-down
   SLDNF engine and every bottom-up evaluation — the semi-naive default
   with index-driven reordered joins and the [Naive] and [Scan]
   baselines — must derive exactly
   the same ground atoms, including negation as failure over lower
   strata and ground arithmetic guards. *)

open Gdp_logic

let db_of src =
  let db = Database.create () in
  List.iter (Database.assertz db) (Reader.program src);
  db

(* Engine databases carry the builtins ([<], [is], ...) and the prelude,
   so guards behave identically under both evaluators. *)
let engine_db_of src =
  let db = Engine.create () in
  Engine.consult db src;
  db

let test_bottom_up_basics () =
  let db = db_of "e(a, b). e(b, c). p(X, Y) :- e(X, Y). p(X, Y) :- e(X, Z), p(Z, Y)." in
  let fp = Bottom_up.run db in
  Alcotest.(check bool) "direct edge" true (Bottom_up.holds fp (Reader.term "p(a, b)"));
  Alcotest.(check bool) "transitive" true (Bottom_up.holds fp (Reader.term "p(a, c)"));
  Alcotest.(check bool) "absent" false (Bottom_up.holds fp (Reader.term "p(c, a)"));
  Alcotest.(check int) "2 edges + 3 paths" 5 (Bottom_up.count fp);
  Alcotest.(check bool) "took >1 pass" true ((Bottom_up.stats fp).bu_passes > 1)

let test_bottom_up_cycles_terminate () =
  (* left recursion and cycles are no problem bottom-up *)
  let db =
    db_of "e(a, b). e(b, a). r(X, Y) :- r(X, Z), e(Z, Y). r(X, Y) :- e(X, Y)."
  in
  let fp = Bottom_up.run db in
  Alcotest.(check bool) "cycle closed" true (Bottom_up.holds fp (Reader.term "r(a, a)"))

let test_unsupported_detected () =
  let rejects src =
    let db = engine_db_of src in
    Result.is_error (Bottom_up.classify db)
    &&
    match Bottom_up.run db with
    | exception Bottom_up.Unsupported _ -> true
    | _ -> false
  in
  let accepts src = Bottom_up.classify (engine_db_of src) = Ok () in
  (* the fragment now includes stratified negation and ground guards *)
  Alcotest.(check bool) "stratified negation accepted" true
    (accepts "p(X) :- q(X), \\+ r(X). q(1).");
  Alcotest.(check bool) "arith guard accepted" true
    (accepts "p(X) :- q(X), X > 1. q(2).");
  Alcotest.(check bool) "is on bound args accepted" true
    (accepts "p(Y) :- q(X), Y is X + 1. q(2).");
  (* ... and still rejects what it cannot evaluate *)
  Alcotest.(check bool) "negation in a recursive stratum" true
    (rejects "p(X) :- q(X), \\+ p(X). q(1).");
  Alcotest.(check bool) "disjunction" true (rejects "p(X) :- q(X) ; r(X). q(1).");
  Alcotest.(check bool) "unification builtin" true
    (rejects "p(X) :- q(X), X = 1. q(1).");
  Alcotest.(check bool) "non-ground fact" true (rejects "p(X).");
  Alcotest.(check bool) "unrestricted head" true (rejects "p(X, Y) :- q(X). q(1).");
  Alcotest.(check bool) "unbound negated literal" true (rejects "p :- \\+ q(X).");
  Alcotest.(check bool) "unbound guard" true (rejects "p(X) :- q(X), Y < 2. q(1).");
  Alcotest.(check bool) "library predicate in body" true
    (rejects "p(X) :- member(X, l).");
  Alcotest.(check bool) "positive fragment accepted" true
    (Bottom_up.classify (db_of "p(1). q(X) :- p(X).") = Ok ());
  (* classify names the offending construct *)
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  (match Bottom_up.classify (engine_db_of "p(X) :- q(X), \\+ p(X). q(1).") with
  | Error reason ->
      Alcotest.(check bool) "reason mentions the stratum" true
        (contains reason "stratum")
  | Ok () -> Alcotest.fail "recursion through negation not detected")

let test_stratified_negation () =
  let db =
    engine_db_of
      "b(1). b(2). g(1).\n\
       bad(X) :- b(X), \\+ g(X).\n\
       good(X) :- b(X), \\+ bad(X)."
  in
  let fp = Bottom_up.run db in
  Alcotest.(check bool) "bad(2)" true (Bottom_up.holds fp (Reader.term "bad(2)"));
  Alcotest.(check bool) "not bad(1)" false (Bottom_up.holds fp (Reader.term "bad(1)"));
  Alcotest.(check bool) "good(1)" true (Bottom_up.holds fp (Reader.term "good(1)"));
  Alcotest.(check bool) "not good(2)" false (Bottom_up.holds fp (Reader.term "good(2)"));
  Alcotest.(check int) "three strata" 3 (Bottom_up.stats fp).bu_strata

let test_guards () =
  let db =
    engine_db_of
      "q(1). q(5). q(a).\n\
       p(X) :- q(X), X < 3.\n\
       d(Y) :- q(X), Y is X * 2."
  in
  let fp = Bottom_up.run db in
  Alcotest.(check bool) "p(1)" true (Bottom_up.holds fp (Reader.term "p(1)"));
  Alcotest.(check bool) "not p(5)" false (Bottom_up.holds fp (Reader.term "p(5)"));
  (* non-numeric argument: the guard fails like the top-down builtin does *)
  Alcotest.(check bool) "not p(a)" false (Bottom_up.holds fp (Reader.term "p(a)"));
  Alcotest.(check bool) "d(2)" true (Bottom_up.holds fp (Reader.term "d(2)"));
  Alcotest.(check bool) "d(10)" true (Bottom_up.holds fp (Reader.term "d(10)"));
  (* sqrt(-1.0) is NaN and so is sqrt(NaN): the recursive rule derives
     the stored NaN fact again, and the fixpoint must see it as stored *)
  let fp =
    Bottom_up.run (engine_db_of "r(-1.0).\nr(Y) :- r(X), Y is sqrt(X).")
  in
  Alcotest.(check int) "r(-1.0) and one NaN fact" 2 (Bottom_up.count fp)

let test_delta_refiring () =
  (* a 30-edge chain: semi-naive re-fires only the recursive rule against
     the delta; naive re-fires every rule against the full relations on
     every one of the ~30 passes *)
  let buf = Buffer.create 512 in
  for i = 0 to 29 do
    Buffer.add_string buf (Printf.sprintf "e(n%d, n%d). " i (i + 1))
  done;
  Buffer.add_string buf "r(X, Y) :- e(X, Y). r(X, Y) :- e(X, Z), r(Z, Y).";
  let db = db_of (Buffer.contents buf) in
  let naive = Bottom_up.run ~baseline:Naive db in
  let semi = Bottom_up.run db in
  Alcotest.(check int) "same fixpoint" (Bottom_up.count naive) (Bottom_up.count semi);
  let stats = Bottom_up.stats in
  Alcotest.(check bool) "many passes" true ((stats semi).bu_passes > 15);
  Alcotest.(check bool) "semi-naive fires fewer rule bodies" true
    ((stats semi).bu_firings < (stats naive).bu_firings)

(* Probe every ground atom of the (finite) Herbrand base over the user
   predicates: top-down provability must coincide with bottom-up
   membership, and every bottom-up configuration — naive, semi-naive with
   index-driven reordered joins (the default), and semi-naive restricted
   to textual-order full scans — must compute the same fixpoint. Ground
   probes with the ancestor loop check keep each SLD search finite;
   prelude predicates are skipped (the fixpoint ignores their clauses,
   and e.g. [forall] succeeds vacuously top-down). *)
let agree ?(constants = [ "a"; "b"; "c" ]) ?refine ?(probes = []) db =
  let fp = Bottom_up.run ?refine db in
  let fp_naive = Bottom_up.run ?refine ~baseline:Naive db in
  let fp_scan = Bottom_up.run ?refine ~baseline:Scan db in
  let opts = { Solve.default_options with loop_check = true } in
  (* A blown resolution budget is a verdict on neither side: the probe is
     Unknown and constrains nothing — without this, one pathological SLD
     search would crash the whole QCheck case instead of skipping. *)
  let succeeds_opt goal =
    match Solve.succeeds ~options:opts db [ goal ] with
    | b -> Some b
    | exception Solve.Depth_exhausted _ -> None
  in
  List.equal Term.equal (Bottom_up.facts fp) (Bottom_up.facts fp_naive)
  && List.equal Term.equal (Bottom_up.facts fp) (Bottom_up.facts fp_scan)
  && (* every bottom-up consequence (including atoms outside the constant
        base) is provable top-down *)
  List.for_all
    (fun fact -> succeeds_opt fact <> Some false)
    (Bottom_up.facts fp)
  && (* [probes]: ground atoms beyond the constant tuples below, such as
        list-shaped ones, checked the same way *)
  List.for_all
    (fun atom ->
      match succeeds_opt atom with
      | None -> true
      | Some proved -> proved = Bottom_up.holds fp atom)
    probes
  && List.for_all
       (fun (name, arity) ->
         let rec tuples n =
           if n = 0 then [ [] ]
           else
             List.concat_map
               (fun rest -> List.map (fun c -> Term.atom c :: rest) constants)
               (tuples (n - 1))
         in
         List.for_all
           (fun args ->
             let atom = Term.app name args in
             match succeeds_opt atom with
             | None -> true
             | Some proved -> proved = Bottom_up.holds fp atom)
           (tuples arity))
       (List.filter
          (fun fa -> not (List.mem fa Prelude.predicates))
          (Database.predicates db))

let test_differential_fixed_programs () =
  List.iter
    (fun src -> Alcotest.(check bool) src true (agree (db_of src)))
    [
      "e(a, b). e(b, c). e(c, d). p(X, Y) :- e(X, Y). p(X, Y) :- e(X, Z), p(Z, Y).";
      "n(z). n(s(z)). n(s(s(z))). even(z). even(s(s(X))) :- even(X), n(X).";
      "f(a). g(b). h(X, Y) :- f(X), g(Y).";
      "p(1). p(2). q(X, Y) :- p(X), p(Y).";
      "a(1). b(1). c(X) :- a(X), b(X). d(X) :- c(X).";
    ];
  (* negation and guards need the engine builtins on the top-down side *)
  List.iter
    (fun src -> Alcotest.(check bool) src true (agree (engine_db_of src)))
    [
      "q(a). q(b). m(a). p(X) :- q(X), \\+ m(X).";
      "v(a, 1). v(b, 4). big(X) :- v(X, N), N >= 3. small(X) :- v(X, N), \\+ big(X).";
      "q(1). q(5). q(a). p(X) :- q(X), X < 3.";
    ]

(* Random stratified (non-recursive) positive programs: base predicates
   q0/q1 hold facts, derived predicates p1/p2 are defined only from
   strictly lower strata — SLD is then complete without any loop guard,
   so equality with the fixpoint is the true specification. *)
let gen_program =
  let open QCheck.Gen in
  let const = oneofl [ "a"; "b"; "c" ] in
  let gen_fact =
    map2 (fun p args -> Printf.sprintf "%s(%s)." p (String.concat ", " args))
      (oneofl [ "q0"; "q1" ])
      (list_size (return 2) const)
  in
  let var = oneofl [ "X"; "Y"; "Z" ] in
  let gen_rule ~head_pred ~body_preds =
    let gen_atom vars =
      map2 (fun p args -> Printf.sprintf "%s(%s)" p (String.concat ", " args))
        (oneofl body_preds)
        (list_size (return 2) (oneof [ oneofl vars; const ]))
    in
    let* vars = list_size (return 2) var in
    let vars = List.sort_uniq compare vars in
    let* body_n = int_range 1 3 in
    let* body = list_size (return body_n) (gen_atom vars) in
    let occurring =
      List.filter
        (fun v ->
          List.exists
            (fun atom ->
              let rec find i =
                i + String.length v <= String.length atom
                && (String.sub atom i (String.length v) = v || find (i + 1))
              in
              find 0)
            body)
        vars
    in
    let head_pool = if occurring = [] then [ "a" ] else occurring in
    let* head_args = list_size (return 2) (oneofl head_pool) in
    return
      (Printf.sprintf "%s(%s) :- %s." head_pred
         (String.concat ", " head_args)
         (String.concat ", " body))
  in
  let* n_facts = int_range 1 6 in
  let* facts = list_size (return n_facts) gen_fact in
  let* n_p1 = int_range 1 2 in
  let* p1_rules =
    list_size (return n_p1) (gen_rule ~head_pred:"p1" ~body_preds:[ "q0"; "q1" ])
  in
  let* n_p2 = int_range 0 2 in
  let* p2_rules =
    list_size (return n_p2)
      (gen_rule ~head_pred:"p2" ~body_preds:[ "q0"; "q1"; "p1" ])
  in
  return (String.concat "\n" (facts @ p1_rules @ p2_rules))

let prop_differential =
  QCheck.Test.make ~name:"SLD and fixpoint agree on random positive programs"
    ~count:60 (QCheck.make ~print:(fun s -> s) gen_program) (fun src ->
      agree (db_of src))

(* Random stratified programs over the full fragment: a random edge
   relation, its (right-recursive, so SLD with the ancestor check stays
   complete on ground probes) transitive closure, negation over lower
   strata — sometimes two layers deep — and arithmetic guards. *)
let gen_stratified_program =
  let open QCheck.Gen in
  let const = oneofl [ "a"; "b"; "c"; "d" ] in
  let* n_edges = int_range 3 8 in
  let* edges =
    list_size (return n_edges)
      (map2 (fun x y -> Printf.sprintf "e(%s, %s)." x y) const const)
  in
  let nodes = List.map (Printf.sprintf "node(%s).") [ "a"; "b"; "c"; "d" ] in
  let* vals =
    list_size (return 4)
      (map2 (fun c n -> Printf.sprintf "val(%s, %d)." c n) const (int_range 0 5))
  in
  let reach = [ "r(X, Y) :- e(X, Y)."; "r(X, Y) :- e(X, Z), r(Z, Y)." ] in
  let* hub =
    oneofl
      [
        "hub(X) :- e(X, Y).";
        "hub(X) :- r(X, X).";
        "hub(X) :- r(X, Y), r(Y, X).";
      ]
  in
  let iso = "iso(X) :- node(X), \\+ hub(X)." in
  let* second_layer = oneofl [ []; [ "plain(X) :- node(X), \\+ iso(X)." ] ] in
  let* guards =
    oneofl
      [
        [];
        [ "big(X) :- val(X, N), N >= 3." ];
        [ "twice(X, M) :- val(X, N), M is N * 2." ];
        [ "big(X) :- val(X, N), N >= 3."; "small(X) :- node(X), \\+ big(X)." ];
      ]
  in
  return
    (String.concat "\n"
       (edges @ nodes @ vals @ reach @ [ hub; iso ] @ second_layer @ guards))

let prop_differential_stratified =
  QCheck.Test.make
    ~name:
      "semi-naive, naive and SLD agree on random stratified programs with \
       negation and guards"
    ~count:250
    (QCheck.make ~print:(fun s -> s) gen_stratified_program)
    (fun src ->
      agree ~constants:[ "a"; "b"; "c"; "d" ] (engine_db_of src))

(* Random holds-shaped stratified programs. Edges, nodes and reach facts
   are reified the way the GDP compiler reifies every user predicate —
   [h(w, Pred, [Objects], s)], refined by the constant at argument 1 —
   and values sit under a compound, [v(k, pt(X, N))], so join variables
   are bound inside list and compound arguments, where only probes keyed
   on subterms narrow the bucket. A few odd-shaped facts (a shorter or
   longer list, a compound or atom where the list belongs) share the
   edge relation and never join. *)
let holds_atom pred objs =
  Printf.sprintf "h(w, %s, [%s], s)" pred (String.concat ", " objs)

let holds_refine = function "h", 4 -> Some 1 | _ -> None

let gen_holds_program =
  let open QCheck.Gen in
  let const = oneofl [ "a"; "b"; "c"; "d" ] in
  let rule head body = head ^ " :- " ^ String.concat ", " body ^ "." in
  let* n_edges = int_range 3 8 in
  let* edges =
    list_size (return n_edges)
      (map2 (fun x y -> holds_atom "e" [ x; y ] ^ ".") const const)
  in
  let* odd =
    list_size (int_range 0 2)
      (oneofl
         [
           "h(w, e, [a], s).";
           "h(w, e, [a, b, c], s).";
           "h(w, e, f(a, b), s).";
           "h(w, e, nil, s).";
         ])
  in
  let nodes =
    List.map (fun c -> holds_atom "node" [ c ] ^ ".") [ "a"; "b"; "c"; "d" ]
  in
  let* vals =
    list_size (return 4)
      (map2 (Printf.sprintf "v(k, pt(%s, %d)).") const (int_range 0 5))
  in
  let reach =
    [
      rule (holds_atom "r" [ "X"; "Y" ]) [ holds_atom "e" [ "X"; "Y" ] ];
      rule
        (holds_atom "r" [ "X"; "Y" ])
        [ holds_atom "e" [ "X"; "Z" ]; holds_atom "r" [ "Z"; "Y" ] ];
    ]
  in
  let* hub =
    oneofl
      [
        rule "hub(X)" [ holds_atom "r" [ "X"; "X" ] ];
        rule "hub(X)" [ holds_atom "e" [ "X"; "Y" ]; holds_atom "r" [ "Y"; "X" ] ];
      ]
  in
  let iso = rule "iso(X)" [ holds_atom "node" [ "X" ]; "\\+ hub(X)" ] in
  let* guards =
    oneofl
      [
        [];
        [ rule "big(X)" [ "v(k, pt(X, N))"; "N >= 3" ] ];
        [ rule "near(X, Y)" [ holds_atom "e" [ "X"; "Y" ]; "v(k, pt(Y, N))"; "N < 3" ] ];
      ]
  in
  return
    (String.concat "\n"
       (edges @ odd @ nodes @ vals @ reach @ [ hub; iso ] @ guards))

let holds_probes =
  let cs = [ "a"; "b"; "c"; "d" ] in
  List.concat_map
    (fun x ->
      Term.app "hub" [ Term.atom x ]
      :: Reader.term (holds_atom "node" [ x ])
      :: List.concat_map
           (fun y ->
             [
               Reader.term (holds_atom "e" [ x; y ]);
               Reader.term (holds_atom "r" [ x; y ]);
             ])
           cs)
    cs

let prop_differential_holds =
  QCheck.Test.make
    ~name:
      "semi-naive, naive, scans and SLD agree on random holds-shaped programs"
    ~count:150
    (QCheck.make ~print:(fun s -> s) gen_holds_program)
    (fun src ->
      agree ~constants:[ "a"; "b"; "c"; "d" ] ~refine:holds_refine
        ~probes:holds_probes (engine_db_of src))

(* A holds-shaped left-linear closure, the shape of the GDP compiler's
   reach/2, pinned at the passes, firings, probe counts and proofs
   that probes keyed on top-level arguments alone produce. A subterm
   bucket is the top-level bucket minus facts that cannot unify, in the
   same order, so none of these may drift. *)
let test_holds_closure_pinned () =
  let edges =
    [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (0, 2); (1, 4); (2, 5); (3, 5) ]
  in
  let src =
    String.concat "\n"
      (List.map
         (fun (x, y) ->
           holds_atom "link" [ Printf.sprintf "n%d" x; Printf.sprintf "n%d" y ]
           ^ ".")
         edges
      @ [
          holds_atom "reach" [ "X"; "Y" ] ^ " :- "
          ^ holds_atom "link" [ "X"; "Y" ] ^ ".";
          holds_atom "reach" [ "X"; "Y" ] ^ " :- "
          ^ holds_atom "reach" [ "X"; "Z" ] ^ ", "
          ^ holds_atom "link" [ "Z"; "Y" ] ^ ".";
          "far(X) :- " ^ holds_atom "reach" [ "n0"; "X" ] ^ ".";
          (* derived once per reachable X; its proof names the first
             link out of X the probe enumerates *)
          "fork(X) :- " ^ holds_atom "reach" [ "n0"; "X" ] ^ ", "
          ^ holds_atom "link" [ "X"; "Y" ] ^ ".";
        ])
  in
  let fp = Bottom_up.run ~refine:holds_refine (db_of src) in
  let s = Bottom_up.stats fp in
  Alcotest.(check (list int))
    "passes, firings, facts, probes, scans, membership tests"
    [ 3; 7; 33; 33; 0; 0 ]
    [
      s.Bottom_up.bu_passes;
      s.Bottom_up.bu_firings;
      s.Bottom_up.bu_facts;
      s.Bottom_up.bu_index_probes;
      s.Bottom_up.bu_full_scans;
      s.Bottom_up.bu_membership_tests;
    ];
  (* the premises of a fact's proof: the first firing whose premises
     from its stratum rank below it *)
  let premises t =
    match Bottom_up.proof fp (Reader.term t) with
    | Some (Explain.Rule { premises; _ }) ->
        List.map (fun p -> Term.to_string (Explain.goal_of p)) premises
    | _ -> Alcotest.failf "%s has no rule proof" t
  in
  Alcotest.(check (list string))
    "proof of reach(n0, n5)"
    [ "h(w, reach, [n0, n2], s)"; "h(w, link, [n2, n5], s)" ]
    (premises (holds_atom "reach" [ "n0"; "n5" ]));
  Alcotest.(check (list string))
    "proof of fork(n1)"
    [ "h(w, reach, [n0, n1], s)"; "h(w, link, [n1, n4], s)" ]
    (premises "fork(n1)")

(* [Bottom_up.probe] narrows candidates through the argument indexes; on
   any goal shape the unifiable subset must coincide with what filtering
   the whole (sorted) store yields. Every goal is probed
   twice: the first probe of a path no rule join indexed scans the id
   column, the second builds the index, and both return the same list
   in the same order. *)
let probe_twice fp goal =
  let show ts = List.map Term.to_string ts in
  let first = Bottom_up.probe fp goal in
  Alcotest.(check (list string))
    (Term.to_string goal ^ ": the second probe returns the first's list")
    (show first)
    (show (Bottom_up.probe fp goal));
  first

let test_probe_consistency () =
  let src =
    "e(a, b). e(b, c). e(c, d). e(a, d).\n\
     p(X, Y) :- e(X, Y). p(X, Y) :- e(X, Z), p(Z, Y)."
  in
  let fp = Bottom_up.run (db_of src) in
  let unifiable goal facts =
    List.filter (fun f -> Unify.unify Subst.empty goal f <> None) facts
    |> List.sort Term.compare
  in
  List.iter
    (fun goal_src ->
      let goal = Reader.term goal_src in
      Alcotest.(check (list string))
        goal_src
        (List.map Term.to_string (unifiable goal (Bottom_up.facts fp)))
        (List.map Term.to_string (unifiable goal (probe_twice fp goal))))
    [
      "p(a, X)" (* bound first argument: the rule join's index on position 0 *);
      "p(X, d)" (* bound second argument: a scan, then an index *);
      "e(X, d)" (* a relation no join probes: a scan, then an index *);
      "p(a, d)" (* ground: membership *);
      "p(X, Y)" (* open: falls back to the full relation *);
      "p(X, X)" (* repeated variable: superset is filtered by unification *);
      "q(X)" (* unknown predicate: empty either way *);
    ];
  (* After a retraction the scan reads the compacted column: the facts
     through the retracted edge are gone from both probes. *)
  let fp = Bottom_up.run (db_of src) in
  Bottom_up.apply fp [ `Retract (Reader.term "e(c, d)") ];
  List.iter
    (fun (goal_src, want) ->
      let goal = Reader.term goal_src in
      let probed = probe_twice fp goal in
      Alcotest.(check (list string))
        (goal_src ^ " after the retraction")
        want
        (List.map Term.to_string (unifiable goal probed));
      Alcotest.(check (list string))
        (goal_src ^ " after the retraction: the relation agrees")
        want
        (List.map Term.to_string
           (unifiable goal (Bottom_up.facts fp))))
    [
      ("p(X, d)", [ "p(a, d)" ]);
      ("e(X, d)", [ "e(a, d)" ]);
      ("p(X, c)", [ "p(a, c)"; "p(b, c)" ]);
    ];
  (* A holds-shaped closure goal keys on its bound object, not on the
     top-level arguments every reach fact shares: the probe returns
     exactly the unifiable facts, not the relation. *)
  let src =
    String.concat "\n"
      (List.map
         (fun (x, y) -> holds_atom "link" [ x; y ] ^ ".")
         [ ("n0", "n1"); ("n1", "n2"); ("n2", "n3"); ("n1", "n3") ]
      @ [
          holds_atom "reach" [ "X"; "Y" ] ^ " :- "
          ^ holds_atom "link" [ "X"; "Y" ] ^ ".";
          holds_atom "reach" [ "X"; "Y" ] ^ " :- "
          ^ holds_atom "reach" [ "X"; "Z" ] ^ ", "
          ^ holds_atom "link" [ "Z"; "Y" ] ^ ".";
        ])
  in
  let fp = Bottom_up.run ~refine:holds_refine (db_of src) in
  let goal = Reader.term (holds_atom "reach" [ "n0"; "X" ]) in
  let all =
    unifiable (Reader.term (holds_atom "reach" [ "X"; "Y" ])) (Bottom_up.facts fp)
  and probed = List.sort Term.compare (probe_twice fp goal) in
  Alcotest.(check (list string))
    "reach from n0: the probe returns exactly the unifiable facts"
    (List.map Term.to_string (unifiable goal all))
    (List.map Term.to_string probed);
  Alcotest.(check (pair int int))
    "reach from n0: 3 of the relation's 6 facts" (3, 6)
    (List.length probed, List.length all);
  (* Value queries on one object, a position-qualified goal and a rule
     literal with a constant object key on the object list or the
     position, not on the model, predicate, [no_space] or a one-element
     list's [nil] tail that every fact of the relation carries. *)
  let value pred v o sp = Printf.sprintf "h(w, %s, [%s], [%s], %s)" pred v o sp in
  let src =
    String.concat "\n"
      (List.map
         (fun (v, o) -> value "depth" v o "no_space" ^ ".")
         [ ("4", "ocean"); ("2", "lake"); ("1", "pond"); ("3", "sea") ]
      @ List.map
          (fun (v, sp) -> value "temp" v "" sp ^ ".")
          [ ("5", "at(pos(1, 2))"); ("6", "at(pos(3, 4))"); ("7", "no_space") ]
      @ [
          value "deep" "D" "" "no_space" ^ " :- "
          ^ value "depth" "D" "ocean" "no_space" ^ ".";
        ])
  in
  let fp =
    Bottom_up.run
      ~refine:(function "h", 5 -> Some 1 | _ -> None)
      (db_of src)
  in
  List.iter
    (fun (goal_src, want) ->
      let goal = Reader.term goal_src in
      let probed = List.sort Term.compare (probe_twice fp goal) in
      Alcotest.(check (list string))
        (goal_src ^ ": the probe returns exactly the unifiable facts")
        (List.map Term.to_string (unifiable goal (Bottom_up.facts fp)))
        (List.map Term.to_string probed);
      Alcotest.(check int) (goal_src ^ ": candidates") want (List.length probed))
    [
      (value "depth" "V" "ocean" "S", 1);
      (value "depth" "V" "sea" "no_space", 1);
      (value "temp" "V" "" "at(pos(1, 2))", 1);
    ];
  Alcotest.(check int)
    "depth(D)(ocean) in a rule body: one candidate, not the relation's four"
    1 (Bottom_up.stats fp).Bottom_up.bu_candidates

let tests =
  [
    Alcotest.test_case "fixpoint basics" `Quick test_bottom_up_basics;
    Alcotest.test_case "cycles terminate bottom-up" `Quick
      test_bottom_up_cycles_terminate;
    Alcotest.test_case "fragment detection" `Quick test_unsupported_detected;
    Alcotest.test_case "stratified negation" `Quick test_stratified_negation;
    Alcotest.test_case "arithmetic guards" `Quick test_guards;
    Alcotest.test_case "semi-naive delta re-firing" `Quick test_delta_refiring;
    Alcotest.test_case "differential: fixed programs" `Quick
      test_differential_fixed_programs;
    Alcotest.test_case "probe matches filtered relation" `Quick
      test_probe_consistency;
    QCheck_alcotest.to_alcotest prop_differential;
    QCheck_alcotest.to_alcotest prop_differential_stratified;
    QCheck_alcotest.to_alcotest prop_differential_holds;
    Alcotest.test_case "holds-shaped closure keeps its counters" `Quick
      test_holds_closure_pinned;
  ]
