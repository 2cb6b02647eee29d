(* Differential testing of the why-provenance sidecar: on every random
   stratified program the lineage store must (a) cover exactly the
   derived tuples — asserted base facts carry no witness, everything
   else carries one — (b) record only {e valid} witnesses, i.e. every
   step re-checks against the fixpoint (supporting tuples stored,
   negated instances absent, guards satisfiable) and some database rule
   actually matches the (head, steps) instantiation, and (c) reconstruct
   proof trees whose provability agrees with the top-down
   {!Explain.prove} engine. The same invariants must survive update
   scripts (DRed witness refresh / stratum recapture) and hold
   identically under [jobs = 2] and [jobs = 4]. *)

open Gdp_logic

let db_of = Suite_engine_props.db_of
let engine_db_of = Suite_engine_props.engine_db_of

(* The asserted base of a source program: heads of its unit clauses.
   Witnesses exist exactly for the non-base (derived) stored facts. *)
let base_facts src =
  List.filter_map
    (fun { Database.head; body } ->
      if body = [] then Some (Term.hcons head) else None)
    (Reader.program src)

let is_base base t = List.exists (Term.equal t) base

let apply_script_to_base base script =
  List.fold_left
    (fun acc u ->
      match u with
      | `Assert t ->
          if List.exists (Term.equal t) acc then acc else Term.hcons t :: acc
      | `Retract t -> List.filter (fun x -> not (Term.equal x t)) acc)
    base script

(* Guard operators the fragment evaluates; a witness stores the guard
   instance as [App (op, [l; r])] with the source operator. *)
let guard_ops = [ "<"; ">"; "=<"; ">="; "=:="; "=\\="; "is"; "=="; "\\==" ]
let is_guard_op op = List.mem op guard_ops

(* Does one clause-body literal account for one witness step (extending
   the head substitution)? [true] literals consume nothing. *)
let lit_matches subst lit step =
  match (lit, step) with
  | Term.App (("\\+" | "not"), [ g ]), Bottom_up.Wnaf u ->
      Unify.unify subst g u
  | Term.App (op, [ _; _ ]), Bottom_up.Wguard u when is_guard_op op ->
      Unify.unify subst lit u
  | Term.App (("\\+" | "not"), _), _ -> None
  | Term.App (op, [ _; _ ]), Bottom_up.Wfact _ when is_guard_op op -> None
  | g, Bottom_up.Wfact u -> Unify.unify subst g u
  | _ -> None

let rec body_matches subst lits steps =
  match lits with
  | [] -> steps = []
  | Term.Atom "true" :: rest -> body_matches subst rest steps
  | lit :: rest -> (
      match steps with
      | [] -> false
      | step :: more -> (
          match lit_matches subst lit step with
          | Some subst' -> body_matches subst' rest more
          | None -> false))

(* "The rule actually matches": some non-unit clause of the database
   unifies its head with the derived tuple and its body literals, in
   order, with the recorded steps. The goal and all steps are ground, so
   clause variables cannot capture. *)
let rule_matches db goal steps =
  List.exists
    (fun { Database.head; body } ->
      body <> []
      &&
      match Unify.unify Subst.empty head goal with
      | None -> false
      | Some subst -> body_matches subst body steps)
    (Database.clauses db goal)

let guard_holds db u = Solve.succeeds db [ u ]

let step_ok db fp = function
  | Bottom_up.Wfact u -> Bottom_up.holds fp u
  | Bottom_up.Wnaf u -> not (Bottom_up.holds fp u)
  | Bottom_up.Wguard u -> guard_holds db u

(* A reconstructed tree is valid when every [Rule] node sits on a stored
   tuple whose recorded witness matches a database rule, and every leaf
   re-checks against the fixpoint. Lineage trees never contain
   [Branch]. *)
let rec proof_ok db fp p =
  match p with
  | Explain.Fact g -> Bottom_up.holds fp g
  | Explain.Naf g -> not (Bottom_up.holds fp g)
  | Explain.Builtin g -> guard_holds db g
  | Explain.Branch _ -> false
  | Explain.Rule { goal; premises } ->
      Bottom_up.holds fp goal
      && (match Bottom_up.witness fp goal with
         | Some (_, steps) ->
             rule_matches db goal steps
             && List.for_all (step_ok db fp) steps
         | None -> false)
      && List.for_all (proof_ok db fp) premises

(* The full per-program invariant. [prove_opt] runs the top-down proof
   engine with the ancestor check; a blown budget is a verdict on
   neither side (same convention as [Suite_engine_props.agree]). *)
let lineage_ok db base fp =
  let opts = { Solve.default_options with loop_check = true } in
  let prove_opt t =
    match Explain.first ~options:opts db [ t ] with
    | r -> Some (r <> None)
    | exception Solve.Depth_exhausted _ -> None
  in
  List.for_all
    (fun t ->
      (match Bottom_up.witness fp t with
      | None -> is_base base t
      | Some (rid, steps) ->
          rid >= 0
          && rule_matches db t steps
          && List.for_all (step_ok db fp) steps)
      && (match Bottom_up.proof fp t with
         | None -> false
         | Some p -> Term.equal (Explain.goal_of p) t && proof_ok db fp p)
      && prove_opt t <> Some false)
    (Bottom_up.facts fp)

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

(* Witness coherence through incremental maintenance: retract base facts
   (forcing DRed over-deletion, rederivation-with-refresh and negation-
   stratum recapture), assert fresh edges, and re-validate every witness
   against the repaired store and the updated database. *)
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

let wstep_equal a b =
  match (a, b) with
  | Bottom_up.Wfact x, Bottom_up.Wfact y
  | Bottom_up.Wnaf x, Bottom_up.Wnaf y
  | Bottom_up.Wguard x, Bottom_up.Wguard y ->
      Term.equal x y
  | _ -> false

let witness_equal a b =
  match (a, b) with
  | None, None -> true
  | Some (r1, s1), Some (r2, s2) -> r1 = r2 && List.equal wstep_equal s1 s2
  | _ -> false

(* The parallel engine picks witnesses in the canonical merge order, so
   every [jobs > 1] run must record the identical lineage — and a valid
   one. *)
let prop_lineage_jobs =
  QCheck.Test.make
    ~name:"jobs=2 and jobs=4 record identical, valid lineage" ~count:60
    (QCheck.make ~print:(fun s -> s) Suite_engine_props.gen_stratified_program)
    (fun src ->
      let db = engine_db_of src in
      let fp2 = Bottom_up.run ~jobs:2 db in
      let fp4 = Bottom_up.run ~jobs:4 db in
      List.equal Term.equal (Bottom_up.facts fp2) (Bottom_up.facts fp4)
      && List.for_all
           (fun t ->
             witness_equal (Bottom_up.witness fp2 t) (Bottom_up.witness fp4 t))
           (Bottom_up.facts fp2)
      && lineage_ok db (base_facts src) fp2)

let chain =
  "e(a, b). e(b, c). e(a, c).\n\
   r(X, Y) :- e(X, Y). r(X, Y) :- e(X, Z), r(Z, Y)."

let test_witness_basics () =
  let db = db_of chain in
  let fp = Bottom_up.run db in
  Alcotest.(check bool)
    "base fact has no witness" true
    (Bottom_up.witness fp (Reader.term "e(a, b)") = None);
  (match Bottom_up.witness fp (Reader.term "r(a, b)") with
  | Some (_, [ Bottom_up.Wfact u ]) ->
      Alcotest.(check bool) "one-step witness" true
        (Term.equal u (Reader.term "e(a, b)"))
  | _ -> Alcotest.fail "expected a single Wfact witness for r(a, b)");
  Alcotest.(check bool)
    "absent tuple has no witness" true
    (Bottom_up.witness fp (Reader.term "r(c, a)") = None);
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
     witness used forces DRed to rederive it and refresh the witness
     from the surviving derivation. *)
  let db =
    db_of
      "e(a, b). e(a, c). e(c, b).\n\
       r(X, Y) :- e(X, Y). r(X, Y) :- e(X, Z), r(Z, Y)."
  in
  let fp = Bottom_up.run db in
  Bottom_up.apply fp [ `Retract (Reader.term "e(a, b)") ];
  ignore (Database.retract_fact db (Reader.term "e(a, b)"));
  Alcotest.(check bool) "r(a, b) survives" true
    (Bottom_up.holds fp (Reader.term "r(a, b)"));
  (match Bottom_up.witness fp (Reader.term "r(a, b)") with
  | Some (_, steps) ->
      Alcotest.(check bool) "refreshed witness re-checks" true
        (rule_matches db (Reader.term "r(a, b)") steps
        && List.for_all (step_ok db fp) steps)
  | None -> Alcotest.fail "surviving tuple lost its witness");
  Alcotest.(check bool) "refresh counted" true
    ((Bottom_up.stats fp).Bottom_up.bu_prov.Bottom_up.prov_refreshed > 0);
  Alcotest.(check bool) "whole store still coherent" true
    (lineage_ok db (base_facts "e(a, c). e(c, b).") fp)

let tests =
  [
    Alcotest.test_case "witness basics" `Quick test_witness_basics;
    Alcotest.test_case "proof reconstruction" `Quick test_proof_reconstruction;
    Alcotest.test_case "naf and guard leaves" `Quick test_naf_and_guard_leaves;
    Alcotest.test_case "witness refresh on retract" `Quick
      test_witness_refresh_on_retract;
    QCheck_alcotest.to_alcotest prop_lineage;
    QCheck_alcotest.to_alcotest prop_lineage_stratified;
    QCheck_alcotest.to_alcotest prop_lineage_updates;
    QCheck_alcotest.to_alcotest prop_lineage_jobs;
  ]
