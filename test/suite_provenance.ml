(* Differential testing of fixpoint proofs. Every stored fact gets a
   rank, and [Bottom_up.proof] rebuilds a tree from ranks on demand. On
   every random stratified program each stored fact must (a) have a
   proof, a [Fact] leaf exactly for the asserted base facts, (b) whose
   every [Rule] node is {e valid} — its premises stored, those from its
   own stratum of lower rank, negated instances absent, guards
   satisfiable, and some database rule instantiated by (goal, premises)
   — and (c) agree in provability with the top-down {!Explain.prove}
   engine. The same invariants must survive update scripts (DRed
   rederivation, stratum recompute), two runs of one database must give
   identical ranks and proofs, and rebuilding proofs must move no
   engine counter. *)

open Gdp_logic

let db_of = Suite_engine_props.db_of
let engine_db_of = Suite_engine_props.engine_db_of

(* The asserted base of a source program: heads of its unit clauses.
   Their proofs are [Fact] leaves; every other stored fact is derived. *)
let base_facts src =
  List.filter_map
    (fun { Database.head; body } ->
      if body = [] then Some head else None)
    (Reader.program src)

let is_base base t = List.exists (Term.equal t) base

let apply_script_to_base base script =
  List.fold_left
    (fun acc u ->
      match u with
      | `Assert t ->
          if List.exists (Term.equal t) acc then acc else t :: acc
      | `Retract t -> List.filter (fun x -> not (Term.equal x t)) acc)
    base script

(* Guard operators the fragment evaluates; a proof holds the guard
   instance as a [Builtin] leaf [App (op, [l; r])] with the source
   operator. *)
let guard_ops = [ "<"; ">"; "=<"; ">="; "=:="; "=\\="; "is"; "=="; "\\==" ]
let is_guard_op op = List.mem op guard_ops

(* Does one clause-body literal account for one premise (extending the
   head substitution)? [true] literals consume nothing. *)
let lit_matches subst lit premise =
  match (lit, premise) with
  | Term.App (("\\+" | "not"), [ g ]), Explain.Naf u -> Unify.unify subst g u
  | Term.App (op, [ _; _ ]), Explain.Builtin u when is_guard_op op ->
      Unify.unify subst lit u
  | Term.App (("\\+" | "not"), _), _ -> None
  | Term.App (op, [ _; _ ]), _ when is_guard_op op -> None
  | g, (Explain.Fact _ | Explain.Rule _) ->
      Unify.unify subst g (Explain.goal_of premise)
  | _ -> None

let rec body_matches subst lits premises =
  match lits with
  | [] -> premises = []
  | Term.Atom "true" :: rest -> body_matches subst rest premises
  | lit :: rest -> (
      match premises with
      | [] -> false
      | p :: more -> (
          match lit_matches subst lit p with
          | Some subst' -> body_matches subst' rest more
          | None -> false))

(* "Some database rule instantiates the node": a non-unit clause of the
   database unifies its head with the goal and its body literals, in
   order, with the premises. Goal and premises are ground, so clause
   variables cannot capture. *)
let rule_matches db goal premises =
  Seq.exists
    (fun { Database.head; body } ->
      body <> []
      &&
      match Unify.unify Subst.empty head goal with
      | None -> false
      | Some subst -> body_matches subst body premises)
    (Database.clauses db goal)

let guard_holds db u = Solve.succeeds db [ u ]

(* A premise of a [Rule] node on [goal]: stored, and of lower rank when
   it comes from the goal's own stratum. *)
let premise_ok fp goal p =
  match (Bottom_up.rank fp goal, Bottom_up.rank fp (Explain.goal_of p)) with
  | Some (s, k), Some (s', k') -> s' < s || (s' = s && k' < k)
  | _ -> false

(* A rebuilt tree is valid when every [Rule] node sits on a stored fact,
   its premises pass [premise_ok], some database rule instantiates it,
   [Fact] leaves are stored, [Naf] leaves absent and [Builtin] leaves
   hold. Proofs from the fixpoint never contain [Branch]. *)
let rec proof_ok db fp p =
  match p with
  | Explain.Fact g -> Bottom_up.holds fp g
  | Explain.Naf g -> not (Bottom_up.holds fp g)
  | Explain.Builtin g -> guard_holds db g
  | Explain.Branch _ -> false
  | Explain.Rule { goal; premises } ->
      Bottom_up.holds fp goal
      && rule_matches db goal premises
      && List.for_all
           (function
             | (Explain.Fact _ | Explain.Rule _) as q -> premise_ok fp goal q
             | _ -> true)
           premises
      && List.for_all (proof_ok db fp) premises

(* Every stored fact's tree: rooted at it, valid, and a [Fact] leaf
   exactly when the fact is asserted. *)
let proofs_ok db base fp =
  List.for_all
    (fun t ->
      match Bottom_up.proof fp t with
      | None -> false
      | Some p ->
          Term.equal (Explain.goal_of p) t
          && proof_ok db fp p
          && is_base base t
             = match p with Explain.Fact _ -> true | _ -> false)
    (Bottom_up.facts fp)

(* The full per-program invariant: every proof valid and every stored
   fact provable top-down. [prove_opt] runs the top-down proof engine
   with the ancestor check; a blown budget is a verdict on neither side
   (same convention as [Suite_engine_props.agree]). *)
let lineage_ok db base fp =
  let opts = { Solve.default_options with loop_check = true } in
  let prove_opt t =
    match Explain.first ~options:opts db [ t ] with
    | r -> Some (r <> None)
    | exception Solve.Depth_exhausted _ -> None
  in
  proofs_ok db base fp
  && List.for_all (fun t -> prove_opt t <> Some false) (Bottom_up.facts fp)

let prop_lineage =
  QCheck.Test.make
    ~name:"lineage witnesses valid and proofs agree with SLD (positive)"
    ~count:60
    (QCheck.make ~print:(fun s -> s) Suite_engine_props.gen_program)
    (fun src ->
      let db = db_of src in
      lineage_ok db (base_facts src) (Bottom_up.run db))

let prop_lineage_stratified =
  QCheck.Test.make
    ~name:
      "lineage witnesses valid and proofs agree with SLD (stratified \
       negation and guards)"
    ~count:250
    (QCheck.make ~print:(fun s -> s) Suite_engine_props.gen_stratified_program)
    (fun src ->
      let db = engine_db_of src in
      lineage_ok db (base_facts src) (Bottom_up.run db))

(* Proofs through incremental maintenance: retract base facts (forcing
   DRed over-deletion and rederivation, and stratum recompute under
   negation), assert fresh edges, and re-validate every proof against
   the repaired store and the updated database. *)
let prop_lineage_updates =
  QCheck.Test.make
    ~name:"lineage stays coherent through update scripts (DRed refresh)"
    ~count:100
    (QCheck.make ~print:(fun s -> s) Suite_engine_props.gen_stratified_program)
    (fun src ->
      let db = engine_db_of src in
      let base = base_facts src in
      let fp = Bottom_up.run db in
      let scripts =
        [
          [
            `Retract (List.nth base 0);
            `Assert (Term.app "e" [ Term.atom "a"; Term.atom "d" ]);
          ];
          [
            `Retract (List.nth base (List.length base - 1));
            `Assert (Term.app "e" [ Term.atom "d"; Term.atom "b" ]);
          ];
        ]
      in
      let base =
        List.fold_left
          (fun acc script ->
            Bottom_up.apply fp script;
            (* keep the clause store in step so the top-down side of the
               differential sees the same asserted base *)
            List.iter
              (function
                | `Assert t -> if not (Database.has_fact db t) then Database.fact db t
                | `Retract t ->
                    (* generated programs may repeat a unit clause; the
                       fixpoint's asserted base is a set, so drain every
                       copy to keep the top-down side in agreement *)
                    while Database.retract_fact db t do
                      ()
                    done)
              script;
            apply_script_to_base acc script)
          base scripts
      in
      lineage_ok db base fp)

(* The proof invariant after every step of [Suite_incremental]'s random
   update scripts, under the same mirrored clause store its
   differential harness keeps. *)
let prop_proofs_after_every_update =
  QCheck.Test.make
    ~name:"every stored fact has a valid rank-bounded proof after each update"
    ~count:150 Suite_incremental.arb_case
    (fun (src, script) ->
      let db = engine_db_of src in
      let fp = Bottom_up.run db in
      let base = ref (base_facts src) in
      List.for_all
        (fun (asserted, fact_src) ->
          let t = Reader.term fact_src in
          (if asserted then begin
             if Bottom_up.assert_fact fp t then Database.fact db t
           end
           else if Bottom_up.retract_fact fp t then
             ignore (Database.retract_fact db t));
          base :=
            apply_script_to_base !base
              [ (if asserted then `Assert t else `Retract t) ];
          proofs_ok db !base fp)
        script)

let proof_text p = Format.asprintf "%a" (Explain.pp ?pp_goal:None) p

(* Evaluation is deterministic, so two fresh runs of one database must
   give identical ranks and proofs — and valid ones. *)
let prop_lineage_deterministic =
  QCheck.Test.make
    ~name:"two runs of one database record identical, valid lineage"
    ~count:60
    (QCheck.make ~print:(fun s -> s) Suite_engine_props.gen_stratified_program)
    (fun src ->
      let db = engine_db_of src in
      let fp1 = Bottom_up.run db in
      let fp2 = Bottom_up.run db in
      List.equal Term.equal (Bottom_up.facts fp1) (Bottom_up.facts fp2)
      && List.for_all
           (fun t ->
             Bottom_up.rank fp1 t = Bottom_up.rank fp2 t
             && Option.map proof_text (Bottom_up.proof fp1 t)
                = Option.map proof_text (Bottom_up.proof fp2 t))
           (Bottom_up.facts fp1)
      && lineage_ok db (base_facts src) fp1)

let chain =
  "e(a, b). e(b, c). e(a, c).\n\
   r(X, Y) :- e(X, Y). r(X, Y) :- e(X, Z), r(Z, Y)."

let test_witness_basics () =
  let db = db_of chain in
  let fp = Bottom_up.run db in
  let rank t = Option.map snd (Bottom_up.rank fp (Reader.term t)) in
  (match Bottom_up.proof fp (Reader.term "e(a, b)") with
  | Some (Explain.Fact _) -> ()
  | _ -> Alcotest.fail "expected a Fact leaf for the base fact e(a, b)");
  (match Bottom_up.proof fp (Reader.term "r(a, b)") with
  | Some (Explain.Rule { premises = [ Explain.Fact u ]; _ }) ->
      Alcotest.(check bool) "one-step proof" true
        (Term.equal u (Reader.term "e(a, b)"))
  | _ -> Alcotest.fail "expected a single Fact premise for r(a, b)");
  Alcotest.(check bool) "a premise ranks below its conclusion" true
    (rank "e(a, b)" < rank "r(a, b)");
  Alcotest.(check bool) "absent tuple has no rank" true
    (Bottom_up.rank fp (Reader.term "r(c, a)") = None);
  Alcotest.(check bool)
    "absent tuple has no proof" true
    (Bottom_up.proof fp (Reader.term "r(c, a)") = None)

let test_proof_reconstruction () =
  let db = db_of chain in
  let fp = Bottom_up.run db in
  (match Bottom_up.proof fp (Reader.term "r(a, c)") with
  | Some (Explain.Rule { goal; _ } as p) ->
      Alcotest.(check bool) "root goal" true
        (Term.equal goal (Reader.term "r(a, c)"));
      Alcotest.(check bool) "valid tree" true (proof_ok db fp p)
  | _ -> Alcotest.fail "expected a Rule proof for r(a, c)");
  let s = (Bottom_up.stats fp).Bottom_up.bu_prov in
  Alcotest.(check int) "one reconstruct counted" 1 s.Bottom_up.prov_reconstructs;
  Alcotest.(check bool) "depth measured" true (s.Bottom_up.prov_max_depth >= 1)

let test_naf_and_guard_leaves () =
  let db =
    engine_db_of
      "v(a, 1). v(b, 4). node(a). node(b).\n\
       big(X) :- v(X, N), N >= 3.\n\
       small(X) :- node(X), \\+ big(X)."
  in
  let fp = Bottom_up.run db in
  let rec leaves acc = function
    | Explain.Rule { premises; _ } -> List.fold_left leaves acc premises
    | Explain.Branch { taken; _ } -> leaves acc taken
    | (Explain.Fact _ | Explain.Builtin _ | Explain.Naf _) as l -> l :: acc
  in
  (match Bottom_up.proof fp (Reader.term "small(a)") with
  | Some p ->
      Alcotest.(check bool) "valid tree" true (proof_ok db fp p);
      Alcotest.(check bool) "has a Naf leaf" true
        (List.exists
           (function Explain.Naf _ -> true | _ -> false)
           (leaves [] p))
  | None -> Alcotest.fail "no proof for small(a)");
  match Bottom_up.proof fp (Reader.term "big(b)") with
  | Some p ->
      Alcotest.(check bool) "valid guard tree" true (proof_ok db fp p);
      Alcotest.(check bool) "has a Builtin leaf" true
        (List.exists
           (function Explain.Builtin _ -> true | _ -> false)
           (leaves [] p))
  | None -> Alcotest.fail "no proof for big(b)"

let test_witness_refresh_on_retract () =
  (* r(a, b) is derivable two ways; retracting the edge its first
     derivation used makes DRed over-delete and rederive it, with a
     fresh rank, from the surviving derivation. *)
  let db =
    db_of
      "e(a, b). e(a, c). e(c, b).\n\
       r(X, Y) :- e(X, Y). r(X, Y) :- e(X, Z), r(Z, Y)."
  in
  let fp = Bottom_up.run db in
  let rank t = Option.map snd (Bottom_up.rank fp (Reader.term t)) in
  let before = rank "r(a, b)" and highest = Bottom_up.count fp - 1 in
  Bottom_up.apply fp [ `Retract (Reader.term "e(a, b)") ];
  ignore (Database.retract_fact db (Reader.term "e(a, b)"));
  Alcotest.(check bool) "r(a, b) survives" true
    (Bottom_up.holds fp (Reader.term "r(a, b)"));
  Alcotest.(check bool) "with a fresh rank" true
    (before <> None && rank "r(a, b)" > Some highest);
  (match Bottom_up.proof fp (Reader.term "r(a, b)") with
  | Some (Explain.Rule { premises = [ _; Explain.Rule _ ]; _ } as p) ->
      Alcotest.(check bool) "the surviving derivation re-checks" true
        (proof_ok db fp p)
  | _ -> Alcotest.fail "expected r(a, b) through e(a, c), r(c, b)");
  Alcotest.(check bool) "whole store still coherent" true
    (lineage_ok db (base_facts "e(a, c). e(c, b).") fp)

(* Rebuilding proofs reads the store only: every counter but the
   reconstruction block stays where it was, on a fresh fixpoint and on
   a maintained one. *)
let test_proofs_read_only () =
  let db =
    engine_db_of
      "e(a, b). e(b, c). e(c, a). e(c, d). v(a, 4). node(a). node(d).\n\
       r(X, Y) :- e(X, Y). r(X, Y) :- e(X, Z), r(Z, Y).\n\
       big(X) :- v(X, N), N >= 3.\n\
       iso(X) :- node(X), \\+ r(X, X)."
  in
  let fp = Bottom_up.run db in
  let check what =
    let unprov s =
      { s with Bottom_up.bu_prov = (Bottom_up.stats fp).bu_prov }
    in
    let before = Bottom_up.stats fp in
    List.iter
      (fun t -> ignore (Bottom_up.proof fp t : Explain.proof option))
      (Bottom_up.facts fp);
    let after = Bottom_up.stats fp in
    Alcotest.(check bool) (what ^ ": counters unmoved") true
      (unprov before = after);
    Alcotest.(check bool) (what ^ ": reconstructs counted") true
      (after.bu_prov.prov_reconstructs
      = before.bu_prov.prov_reconstructs + Bottom_up.count fp)
  in
  check "fresh";
  Bottom_up.apply fp
    [ `Retract (Reader.term "e(c, a)"); `Assert (Reader.term "e(d, a)") ];
  check "maintained"

(* A derived fact with no derivation from facts of lower rank — here a
   snapshot imported against a database whose rule cannot derive what
   the snapshot stored — is a typed [Corrupt] error, not a loop. *)
let test_underivable_is_corrupt () =
  let saved = Bottom_up.run (db_of "e(a, b). r(X, Y) :- e(X, Y).") in
  let fp =
    Bottom_up.import (db_of "e(a, b). r(X, Y) :- e(Y, X).")
      (Bottom_up.export saved)
  in
  match Bottom_up.proof fp (Reader.term "r(a, b)") with
  | exception Wire.Corrupt _ -> ()
  | _ -> Alcotest.fail "an underivable stored fact got a proof"

(* The trees the CLI prints — [Query.violation_proofs] for
   [--explain-violations] and [Query.explain_proof] for [explain
   --materialize] — revalidate against the compiled database, before
   and after an update batch. *)
let test_cli_proofs_revalidate () =
  let r =
    Gdp_lang.Elaborate.load_string
      "objects n1, n2, n3, n4.\n\
       fact link(n1, n2).\n\
       fact link(n2, n3).\n\
       fact link(n3, n4).\n\
       fact flagged(n3).\n\
       rule reach(X, Y) <- link(X, Y).\n\
       rule reach(X, Y) <- link(X, Z), reach(Z, Y).\n\
       rule clear(X) <- link(X, _), not flagged(X).\n\
       constraint flagged_reachable(X) <- reach(n1, X), flagged(X).\n"
  in
  let open Gdp_core in
  let q =
    Query.with_mode (Query.create r.Gdp_lang.Elaborate.spec) Query.Materialized
  in
  let fact pred objs = Gfact.make pred ~objects:(List.map Term.atom objs) in
  let check what =
    let fp = Query.materialization q and db = Query.db q in
    let proofs =
      List.map snd (Query.violation_proofs q)
      @ List.filter_map (Query.explain_proof q)
          [ fact "reach" [ "n1"; "n4" ]; fact "clear" [ "n1" ] ]
    in
    Alcotest.(check bool)
      (what ^ ": proofs found") true
      (List.length proofs >= 2);
    List.iter
      (fun p ->
        Alcotest.(check bool) (what ^ ": valid") true (proof_ok db fp p))
      proofs
  in
  check "fresh";
  ignore
    (Query.update q
       [
         `Retract (fact "flagged" [ "n3" ]);
         `Assert (fact "flagged" [ "n2" ]);
       ]);
  check "after an update"

let tests =
  [
    Alcotest.test_case "witness basics" `Quick test_witness_basics;
    Alcotest.test_case "proof reconstruction" `Quick test_proof_reconstruction;
    Alcotest.test_case "naf and guard leaves" `Quick test_naf_and_guard_leaves;
    Alcotest.test_case "witness refresh on retract" `Quick
      test_witness_refresh_on_retract;
    Alcotest.test_case "proof rebuilding moves no engine counter" `Quick
      test_proofs_read_only;
    Alcotest.test_case "an underivable stored fact is Corrupt" `Quick
      test_underivable_is_corrupt;
    Alcotest.test_case "proofs the CLI prints revalidate" `Quick
      test_cli_proofs_revalidate;
    QCheck_alcotest.to_alcotest prop_lineage;
    QCheck_alcotest.to_alcotest prop_lineage_stratified;
    QCheck_alcotest.to_alcotest prop_lineage_updates;
    QCheck_alcotest.to_alcotest prop_proofs_after_every_update;
    QCheck_alcotest.to_alcotest prop_lineage_deterministic;
  ]
