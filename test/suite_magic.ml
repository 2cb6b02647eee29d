(* Goal-directed bottom-up evaluation, tested two ways.

   Unit tests pin the magic-set rewrite of two paper-§V shapes — the
   island-thresholding rule stack and the shore-line abstraction with its
   closed-world water complement — down to the adornments, rule counts,
   seeds and guarded-body order, so a change to the SIP or the fallback
   analysis shows up as a diff, not a silent slowdown.

   The property is a three-way differential: on random stratified
   programs and random point goals, the answers of the magic-rewritten
   seeded fixpoint must equal the answers read off the full
   materialisation, and both must agree with top-down SLDNF wherever the
   resolution budget suffices — a [Solve.Depth_exhausted] probe counts as
   Unknown and constrains nothing. *)

open Gdp_logic

(* Engine databases carry the builtins ([>], [is], ...) and the prelude,
   so guards behave identically under every evaluator. *)
let engine_db_of src =
  let db = Engine.create () in
  Engine.consult db src;
  db

let term = Reader.term

(* [Bottom_up.probe] narrows by index bucket but does not unify against
   the goal — filter, then sort so answer sets compare as lists. *)
let answers fp goal =
  Bottom_up.probe fp goal
  |> List.filter (fun fact -> Unify.unify Subst.empty goal fact <> None)
  |> List.sort Term.compare

let magic_run ?indexing db goal =
  let rewritten, info = Magic.rewrite ~goal db in
  (Bottom_up.run ?indexing ~seed:info.Magic.seeds rewritten, info)

(* A depth-out neither confirms nor refutes: report Unknown. *)
let succeeds_opt options db goals =
  match Solve.succeeds ~options db goals with
  | b -> Some b
  | exception Solve.Depth_exhausted _ -> None

(* Bodies of the rewritten rules for one head predicate, as functor-name
   sequences — clause heads keep fresh variable ids, so string-pinning
   whole clauses would be nondeterministic; the functor skeleton is not. *)
let rule_bodies rewritten head_name =
  Database.predicates rewritten
  |> List.concat_map (Database.all_clauses rewritten)
  |> List.filter_map (fun (c : Database.clause) ->
         match Term.functor_of c.Database.head with
         | Some (n, _) when String.equal n head_name && c.Database.body <> []
           ->
             Some (List.map fst (List.filter_map Term.functor_of c.Database.body))
         | _ -> None)

(* §V-D island thresholding, skeletonised into the Datalog fragment: a
   fine-resolution elevation raster, a threshold rule marking island
   cells, and a coarse covering that survives if any covered cell is an
   island. Asking about one coarse cell must adorn both derived
   predicates fully bound and push the binding through [covers/2] — the
   rewrite's magic rule IS the sideways information passing. *)
let test_island_thresholding_rewrite () =
  let db =
    engine_db_of
      "elevation(c1, 4). elevation(c2, 2). elevation(c3, 5).\n\
       covers(p1, c1). covers(p1, c2). covers(p2, c3).\n\
       island_at(C) :- elevation(C, Z), Z > 3.\n\
       island_coarse(P) :- covers(P, C), island_at(C)."
  in
  let goal = term "island_coarse(p1)" in
  let rewritten, info = Magic.rewrite ~goal db in
  Alcotest.(check (list (pair string string)))
    "both derived predicates adorned bound"
    [ ("island_at/1", "b"); ("island_coarse/1", "b") ]
    info.Magic.adorned;
  Alcotest.(check int) "one magic rule" 1 info.Magic.magic_rules;
  Alcotest.(check int) "two guarded rules" 2 info.Magic.guarded_rules;
  Alcotest.(check int) "no fallback copies" 0 info.Magic.copied_rules;
  Alcotest.(check int) "nothing dropped" 0 info.Magic.dropped_rules;
  Alcotest.(check (list string))
    "seed plants the goal's binding"
    [ "'magic$island_coarse$$b'(p1)" ]
    (List.map Term.to_string info.Magic.seeds);
  Alcotest.(check (list string)) "no fallback preds" [] info.Magic.fallback_preds;
  Alcotest.(check int) "no fallback strata" 0 info.Magic.fallback_strata;
  Alcotest.(check bool) "goal-directed, not full" false info.Magic.full_fallback;
  (* guarded rules lead with their magic guard, then the planner's greedy
     order; the magic rule for island_at passes the binding via covers *)
  Alcotest.(check (list (list string)))
    "guarded island_coarse body"
    [ [ "magic$island_coarse$$b"; "covers"; "island_at" ] ]
    (rule_bodies rewritten "island_coarse");
  Alcotest.(check (list (list string)))
    "guarded island_at body"
    [ [ "magic$island_at$$b"; "elevation"; ">" ] ]
    (rule_bodies rewritten "island_at");
  Alcotest.(check (list (list string)))
    "magic rule for island_at"
    [ [ "magic$island_coarse$$b"; "covers" ] ]
    (rule_bodies rewritten (Magic.magic_name "island_at" ~sub:None ~adornment:"b"));
  (* the seeded fixpoint answers the point query without touching the
     p2 / c3 side of the raster *)
  let fp = Bottom_up.run ~seed:info.Magic.seeds rewritten in
  Alcotest.(check bool) "island_coarse(p1) derived" true
    (Bottom_up.holds fp (term "island_coarse(p1)"));
  Alcotest.(check bool) "island_coarse(p2) never asked, never derived" false
    (Bottom_up.holds fp (term "island_coarse(p2)"));
  Alcotest.(check bool) "island_at(c3) never asked, never derived" false
    (Bottom_up.holds fp (term "island_at(c3)"));
  (* 6 base facts + 1 seed + 2 magic facts + island_at(c1) + the answer *)
  Alcotest.(check int) "restricted fact count" 11 (Bottom_up.count fp)

(* §V shore-line abstraction: a shore cell is land adjacent to water,
   water is the closed-world complement of land, and land is itself
   derived (elevation above datum). The negated predicate [land/1] must
   fall back to full evaluation — an absent magic-restricted fact would
   mean "not asked", not "false" — while [shore/1] and [water/1] stay
   goal-directed. *)
let test_shoreline_rewrite () =
  let db =
    engine_db_of
      "cell(c1). cell(c2). cell(c3).\n\
       elevation(c1, 2). elevation(c2, 1). elevation(c3, 0).\n\
       adj(c1, c2). adj(c2, c3). adj(c3, c2).\n\
       land(C) :- elevation(C, Z), Z > 0.\n\
       water(D) :- cell(D), \\+ land(D).\n\
       shore(C) :- land(C), adj(C, D), water(D)."
  in
  let goal = term "shore(c2)" in
  let rewritten, info = Magic.rewrite ~goal db in
  Alcotest.(check (list (pair string string)))
    "shore and water adorned; land is fallback, never adorned"
    [ ("shore/1", "b"); ("water/1", "b") ]
    info.Magic.adorned;
  Alcotest.(check (list string))
    "negated land falls back to full evaluation" [ "land/1" ]
    info.Magic.fallback_preds;
  Alcotest.(check int) "one fallback stratum" 1 info.Magic.fallback_strata;
  Alcotest.(check bool) "the goal itself stays goal-directed" false
    info.Magic.full_fallback;
  Alcotest.(check int) "land rule copied unguarded" 1 info.Magic.copied_rules;
  Alcotest.(check int) "shore and water guarded" 2 info.Magic.guarded_rules;
  Alcotest.(check int) "one magic rule (shore passes to water)" 1
    info.Magic.magic_rules;
  Alcotest.(check int) "nothing dropped" 0 info.Magic.dropped_rules;
  Alcotest.(check (list string))
    "seed" [ "'magic$shore$$b'(c2)" ]
    (List.map Term.to_string info.Magic.seeds);
  Alcotest.(check (list (list string)))
    "magic rule binds water's cell through land and adj"
    [ [ "magic$shore$$b"; "land"; "adj" ] ]
    (rule_bodies rewritten (Magic.magic_name "water" ~sub:None ~adornment:"b"));
  Alcotest.(check (list (list string)))
    "guarded water still negates the fully-evaluated land (the magic
     guard grounds D, so the negation runs before the cell scan)"
    [ [ "magic$water$$b"; "\\+"; "cell" ] ]
    (rule_bodies rewritten "water");
  let fp = Bottom_up.run ~seed:info.Magic.seeds rewritten in
  Alcotest.(check bool) "shore(c2) derived" true
    (Bottom_up.holds fp (term "shore(c2)"));
  Alcotest.(check bool) "shore(c1) never asked, never derived" false
    (Bottom_up.holds fp (term "shore(c1)"));
  Alcotest.(check bool) "fallback derives all of land" true
    (Bottom_up.holds fp (term "land(c1)"));
  (* asking below the negation is still goal-directed: from land/1 the
     water and shore rules are unreachable and dropped, and nothing in
     the remaining cone is negated *)
  let _rw, info_below = Magic.rewrite ~goal:(term "land(c2)") db in
  Alcotest.(check (list (pair string string)))
    "goal below the negation adorned normally"
    [ ("land/1", "b") ]
    info_below.Magic.adorned;
  Alcotest.(check int) "water and shore rules dropped" 2
    info_below.Magic.dropped_rules;
  Alcotest.(check (list string)) "no fallback below the negation" []
    info_below.Magic.fallback_preds;
  let below_fp, _ = magic_run db (term "land(c2)") in
  Alcotest.(check bool) "land(c2) derived" true
    (Bottom_up.holds below_fp (term "land(c2)"));
  Alcotest.(check bool) "land(c1) never asked, never derived" false
    (Bottom_up.holds below_fp (term "land(c1)"));
  (* an unbound predicate position leaves nothing to be directed by:
     the rewrite degrades to full evaluation and says so *)
  let _rw, info_open = Magic.rewrite ~goal:(Term.var "G") db in
  Alcotest.(check bool) "variable goal: full fallback" true
    info_open.Magic.full_fallback;
  Alcotest.(check int) "variable goal copies every rule" 3
    info_open.Magic.copied_rules;
  Alcotest.(check (list string)) "variable goal plants no seed" []
    (List.map Term.to_string info_open.Magic.seeds)

(* Both modules classify through {!Datalog}: every clause outside the
   fragment is rejected by the rewrite with the evaluator's own reason.
   Each case is the clause (with a [q/1] base) and how the expected
   reason starts (printed variables carry run-dependent ids); [near/3]
   is a spatial builtin whose first two arguments are inputs. *)
let test_same_rejection_reasons () =
  let spatial =
    {
      Bottom_up.sp_ext = (function "near", 3 -> Some [ 0; 1 ] | _ -> None);
      sp_solve = (fun _ -> []);
      sp_region_box = (fun _ -> None);
      sp_point = (fun _ -> None);
      sp_boxable = false;
    }
  in
  List.iter
    (fun (clause, reason) ->
      let db = engine_db_of ("q(a).\n" ^ clause) in
      let from_classify =
        match Bottom_up.classify ~spatial db with
        | Error r -> r
        | Ok () -> Alcotest.failf "classify accepted %s" clause
      in
      let from_rewrite =
        match Magic.rewrite ~spatial ~goal:(term "p(a)") db with
        | exception Bottom_up.Unsupported r -> r
        | _ -> Alcotest.failf "rewrite accepted %s" clause
      in
      Alcotest.(check bool)
        (clause ^ " rejected as: " ^ from_classify)
        true
        (String.starts_with ~prefix:reason from_classify);
      Alcotest.(check string) clause from_classify from_rewrite)
    [
      ("p(X) :- q(X) ; q(X).", "p/1: control construct ;/2 in the body");
      ("p(X) :- q(X), \\+ (X > a).", "p/1: negation of non-atomic goal '>'(X");
      ("p(X) :- q(X), \\+ atom(X).", "p/1: builtin atom/1 under negation");
      ( "p(X) :- q(X), member(X, [a]).",
        "p/1: library predicate member/2 outside the Datalog fragment" );
      ( "p(X) :- X > 1, q(X).",
        "p/1: comparison guard uses variables not bound by a preceding \
         positive literal" );
      ("p(X, Y) :- q(X).", "p/2: head variable not bound by the body");
      ("p(X).", "p/1: non-ground fact p(X");
      ("p(D) :- q(X), near(X, Y, D).", "p/1: spatial builtin near(X");
    ]

(* The rewrite classifies clause by clause and never stratifies, so a
   negation cycle the goal cannot reach is dropped, not rejected — while
   the evaluator, which stratifies the whole base, refuses it. *)
let test_unreachable_negation_cycle () =
  let db =
    engine_db_of
      "link(n1, n2). link(n2, n3). link(n3, n4). node(n1).\n\
       reach(X, Y) :- link(X, Y).\n\
       reach(X, Y) :- link(X, Z), reach(Z, Y).\n\
       odd(X) :- node(X), not even(X).\n\
       even(X) :- node(X), not odd(X)."
  in
  (match Bottom_up.classify db with
  | Error r ->
      Alcotest.(check string) "rejected for the negation cycle"
        "even/1: negation of odd/1 inside a recursive stratum (stratified \
         negation needs the negated predicate in a strictly lower stratum)"
        r
  | Ok () -> Alcotest.fail "classify accepted a negation cycle");
  let goal = term "reach(n1, X)" in
  let fp, info = magic_run db goal in
  Alcotest.(check int) "odd and even dropped" 2 info.Magic.dropped_rules;
  Alcotest.(check (list string))
    "the goal is answered"
    [ "reach(n1, n2)"; "reach(n1, n3)"; "reach(n1, n4)" ]
    (List.map Term.to_string (answers fp goal))

(* ------------------------------------------------------------------ *)
(* Three-way differential property.                                    *)

(* A point goal is a predicate name plus constant/variable slots; the
   slots double as the recipe for enumerating its ground instances over
   the constant base (repeated variables share one binding). *)
type slot = C of string | V of string

let goal_term name slots =
  let tbl = Hashtbl.create 4 in
  let arg = function
    | C c -> Term.atom c
    | V v -> (
        match Hashtbl.find_opt tbl v with
        | Some t -> t
        | None ->
            let t = Term.var v in
            Hashtbl.add tbl v t;
            t)
  in
  Term.app name (List.map arg slots)

let ground_instances name slots constants =
  let rec go env acc = function
    | [] -> [ Term.app name (List.rev acc) ]
    | C c :: rest -> go env (Term.atom c :: acc) rest
    | V v :: rest -> (
        match List.assoc_opt v env with
        | Some c -> go env (Term.atom c :: acc) rest
        | None ->
            List.concat_map
              (fun c -> go ((v, c) :: env) (Term.atom c :: acc) rest)
              constants)
  in
  go [] [] slots

let goal_to_string (name, slots) =
  Printf.sprintf "%s(%s)" name
    (String.concat ", " (List.map (function C c -> c | V v -> v) slots))

(* Random stratified programs in the image of [suite_engine_props]'
   generator — edges, a right-recursive closure, negation one or two
   layers deep, arithmetic guards — paired with a random point goal:
   sometimes ground, sometimes half-bound, sometimes open; over derived
   predicates, base predicates (pure relevance projection) and absent
   ones (empty either way). *)
let gen_case =
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
        [ "big(X) :- val(X, N), N >= 3."; "small(X) :- node(X), \\+ big(X)." ];
      ]
  in
  let clauses =
    edges @ nodes @ vals @ reach @ [ hub; iso ] @ second_layer @ guards
  in
  let* slot = frequency [ (2, map (fun c -> C c) const); (1, return (V "X")) ] in
  let* slot2 =
    frequency
      [ (2, map (fun c -> C c) const); (2, return (V "Y")); (1, return (V "X")) ]
  in
  let* goal =
    oneofl
      [
        ("r", [ slot; slot2 ]);
        ("hub", [ slot ]);
        ("iso", [ slot ]);
        ("plain", [ slot ]);
        ("big", [ slot ]);
        ("small", [ slot ]);
        ("e", [ slot; slot2 ]) (* base predicate: pure projection *);
        ("node", [ slot ]);
        ("zz", [ slot ]) (* absent predicate: empty either way *);
      ]
  in
  return (clauses, goal)

let print_case (clauses, goal) =
  Printf.sprintf "%s\n?- %s." (String.concat "\n" clauses)
    (goal_to_string goal)

(* Shrink by dropping program clauses; the goal is already minimal. *)
let arb_case =
  QCheck.make gen_case ~print:print_case
    ~shrink:
      QCheck.(
        fun (clauses, goal) ->
          Iter.map (fun cs -> (cs, goal)) (Shrink.list clauses))

let constants = [ "a"; "b"; "c"; "d" ]

let three_way_agree ~indexing (clauses, (gname, slots)) =
  let db = engine_db_of (String.concat "\n" clauses) in
  let goal = goal_term gname slots in
  let full = Bottom_up.run ~indexing db in
  let magic_fp, _info = magic_run ~indexing db goal in
  let full_answers = answers full goal in
  List.equal Term.equal full_answers (answers magic_fp goal)
  &&
  let opts = { Solve.default_options with Solve.loop_check = true } in
  (* every bottom-up answer is provable top-down (Unknown probes pass) *)
  List.for_all
    (fun fact -> succeeds_opt opts db [ fact ] <> Some false)
    full_answers
  && (* over the constant base, a decided SLD verdict must coincide with
        answer-set membership — completeness and soundness in one sweep *)
  List.for_all
    (fun atom ->
      match succeeds_opt opts db [ atom ] with
      | None -> true
      | Some proved -> proved = List.exists (Term.equal atom) full_answers)
    (ground_instances gname slots constants)

let prop_three_way ~indexing name =
  QCheck.Test.make ~name ~count:310 arb_case (three_way_agree ~indexing)

let prop_three_way_indexed =
  prop_three_way ~indexing:true
    "magic, materialised and SLD agree on random stratified programs \
     (indexed joins)"

let prop_three_way_scan =
  prop_three_way ~indexing:false
    "magic, materialised and SLD agree on random stratified programs \
     (scan baseline)"

(* [Bottom_up.run ~seed] is how a magic rewrite plants its query seed;
   seeds are netted against the parsed base and each other. *)
let db_of = Suite_engine_props.db_of
let facts_of fp = List.map Term.to_string (Bottom_up.facts fp)
let chain = "e(a, b). e(b, c). r(X, Y) :- e(X, Y). r(X, Y) :- e(X, Z), r(Z, Y)."

let test_seed_empty () =
  let plain = Bottom_up.run (db_of chain) in
  let seeded = Bottom_up.run ~seed:[] (db_of chain) in
  Alcotest.(check (list string)) "empty seed is a no-op" (facts_of plain)
    (facts_of seeded)

let test_seed_duplicates_netted () =
  let s = term "e(c, d)" in
  let once = Bottom_up.run ~seed:[ s ] (db_of chain) in
  let thrice = Bottom_up.run ~seed:[ s; s; term "e(c, d)" ] (db_of chain) in
  Alcotest.(check (list string)) "repeated seed counts once" (facts_of once)
    (facts_of thrice);
  Alcotest.(check bool) "seed derived through" true
    (Bottom_up.holds once (term "r(a, d)"))

let test_seed_already_present_netted () =
  let plain = Bottom_up.run (db_of chain) in
  (* both seeds are already facts of the parsed base *)
  let seeded =
    Bottom_up.run ~seed:[ term "e(a, b)"; term "e(b, c)" ] (db_of chain)
  in
  Alcotest.(check (list string)) "present seeds are no-ops" (facts_of plain)
    (facts_of seeded);
  Alcotest.(check int) "fact count unchanged" (Bottom_up.count plain)
    (Bottom_up.count seeded)

let test_seed_rejects_non_ground () =
  match Bottom_up.run ~seed:[ term "e(a, X)" ] (db_of chain) with
  | exception Bottom_up.Unsupported _ -> ()
  | _ -> Alcotest.fail "non-ground seed accepted"

let tests =
  [
    Alcotest.test_case "island-thresholding rewrite pinned" `Quick
      test_island_thresholding_rewrite;
    Alcotest.test_case "shore-line rewrite pinned (negation fallback)" `Quick
      test_shoreline_rewrite;
    Alcotest.test_case "rewrite rejects with the evaluator's reasons" `Quick
      test_same_rejection_reasons;
    Alcotest.test_case "unreachable negation cycle: rewrite answers" `Quick
      test_unreachable_negation_cycle;
    QCheck_alcotest.to_alcotest prop_three_way_indexed;
    QCheck_alcotest.to_alcotest prop_three_way_scan;
    Alcotest.test_case "seed: empty is a no-op" `Quick test_seed_empty;
    Alcotest.test_case "seed: duplicates netted" `Quick
      test_seed_duplicates_netted;
    Alcotest.test_case "seed: already-present netted" `Quick
      test_seed_already_present_netted;
    Alcotest.test_case "seed: non-ground rejected" `Quick
      test_seed_rejects_non_ground;
  ]
