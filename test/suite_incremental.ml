(* Incremental view maintenance, tested differentially: after every step
   of a random assert/retract script the incrementally maintained
   fixpoint ([Bottom_up.apply] — semi-naive insertion deltas and DRed
   deletions, a changed negated input being a delta on its negated
   literal) must hold
   exactly the facts a from-scratch [Bottom_up.run] computes on the
   identically mutated database. Checked for the default evaluation
   (semi-naive with indexed joins) and the [Naive] and [Scan] baselines.
   Plus directed unit tests for the
   DRed edge cases and the maintenance counters. *)

open Gdp_logic

let engine_db_of src =
  let db = Engine.create () in
  Engine.consult db src;
  db

let term = Reader.term
let facts_of fp = List.map Term.to_string (Bottom_up.facts fp)

(* ------------------------------------------------------------------ *)
(* the differential update-script harness                              *)

(* One script step: [(true, f)] asserts the fact [f], [(false, f)]
   retracts it. Targets cover base relations (edges, nodes, values),
   facts that collide with rule-derived relations (so relations become
   mixed extensional/intensional and retraction meets alternate
   derivations), and negation-derived relations (so firings flip under
   negation), plus the occasional brand-new predicate. *)
type op = bool * string

let op_to_string (asserted, f) =
  (if asserted then "assert " else "retract ") ^ f

(* Random stratified program in the harness fragment: an edge relation
   with transitive closure, a negation layer (sometimes two deep, always
   with one rule that negates two relations) and
   optional arithmetic guards — the same shape the engine-props suite
   uses, with the fact lines deduplicated so one retraction empties the
   corresponding base fact entirely (the fixpoint's base set has set
   semantics; a duplicated unit clause would break the mirror).

   With [~holds:true] the edge, node and reach atoms are reified the way
   the GDP compiler reifies user predicates, [h(w, e, [X, Y], s)] (run
   under {!refine}), and values sit under a compound, [h(w, val, [X],
   pt(N))]: join variables are then bound inside list and compound
   arguments, where only probes keyed on subterms narrow the bucket.
   Scripts also assert and retract odd-shaped [h] facts that share the
   edge relation and never join. *)
let refine = function "h", 4 -> Some 1 | _ -> None

let gen_case ~holds =
  let open QCheck.Gen in
  let const = oneofl [ "a"; "b"; "c"; "d" ] in
  let atom pred args =
    match (holds, pred, args) with
    | true, "val", [ x; n ] -> Printf.sprintf "h(w, val, [%s], pt(%s))" x n
    | true, ("e" | "node" | "r"), _ ->
        Printf.sprintf "h(w, %s, [%s], s)" pred (String.concat ", " args)
    | _ -> Printf.sprintf "%s(%s)" pred (String.concat ", " args)
  in
  let rule head body = head ^ " :- " ^ String.concat ", " body ^ "." in
  let gen_program =
    let* n_edges = int_range 3 6 in
    let* edges =
      list_size (return n_edges)
        (map2 (fun x y -> atom "e" [ x; y ] ^ ".") const const)
    in
    let nodes = List.map (fun c -> atom "node" [ c ] ^ ".") [ "a"; "b"; "c" ] in
    let* vals =
      list_size (return 3)
        (map2
           (fun c n -> atom "val" [ c; string_of_int n ] ^ ".")
           const (int_range 0 5))
    in
    let reach =
      [
        rule (atom "r" [ "X"; "Y" ]) [ atom "e" [ "X"; "Y" ] ];
        rule (atom "r" [ "X"; "Y" ]) [ atom "e" [ "X"; "Z" ]; atom "r" [ "Z"; "Y" ] ];
      ]
    in
    let* hub =
      oneofl
        [
          rule "hub(X)" [ atom "e" [ "X"; "Y" ] ];
          rule "hub(X)" [ atom "r" [ "X"; "X" ] ];
          rule "hub(X)" [ atom "r" [ "X"; "Y" ]; atom "r" [ "Y"; "X" ] ];
        ]
    in
    let iso = rule "iso(X)" [ atom "node" [ "X" ]; "\\+ hub(X)" ] in
    (* two negated inputs of one firing, both of which a batch can flip:
       hub through edges or directly, fresh only directly *)
    let quiet =
      rule "quiet(X)" [ atom "node" [ "X" ]; "\\+ hub(X)"; "\\+ fresh(X)" ]
    in
    let* second_layer =
      oneofl [ []; [ rule "plain(X)" [ atom "node" [ "X" ]; "\\+ iso(X)" ] ] ]
    in
    let big = rule "big(X)" [ atom "val" [ "X"; "N" ]; "N >= 3" ] in
    let* guards =
      oneofl
        [ []; [ big ]; [ big; rule "small(X)" [ atom "node" [ "X" ]; "\\+ big(X)" ] ] ]
    in
    return
      (String.concat "\n"
         (List.sort_uniq compare (edges @ nodes @ vals)
         @ reach @ [ hub; iso; quiet ] @ second_layer @ guards))
  in
  let odd =
    oneofl [ "h(w, e, [a], s)"; "h(w, e, [a, b, c], s)"; "h(w, e, f(a, b), s)" ]
  in
  let gen_op =
    let* asserted = bool in
    let* fact =
      frequency
        [
          (4, map2 (fun x y -> atom "e" [ x; y ]) const const);
          (1, map (fun c -> atom "node" [ c ]) const);
          (2, map2 (fun c n -> atom "val" [ c; string_of_int n ]) const
                (int_range 0 5));
          (2, map2 (fun x y -> atom "r" [ x; y ]) const const);
          (1, map (Printf.sprintf "hub(%s)") const);
          (1, map (Printf.sprintf "iso(%s)") const);
          (1, map (Printf.sprintf "fresh(%s)") const);
          ((if holds then 1 else 0), odd);
        ]
    in
    return (asserted, fact)
  in
  let* src = gen_program in
  let* n_steps = int_range 1 30 in
  let* script = list_size (return n_steps) gen_op in
  return (src, script)

let print_case (src, script) =
  src ^ "\n-- script --\n" ^ String.concat "\n" (List.map op_to_string script)

(* Shrink the script only (dropping steps keeps the case well-formed);
   a failure then minimises to the shortest breaking update sequence. *)
let arb ~holds =
  QCheck.make (gen_case ~holds) ~print:print_case ~shrink:(fun (src, script) ->
      QCheck.Iter.map (fun s -> (src, s)) (QCheck.Shrink.list script))

let arb_case = arb ~holds:false

(* After every step: the maintained fixpoint must equal a from-scratch
   run over the mutated database. The database mirror is gated on what
   the fixpoint reports — [assert_fact]/[retract_fact] return whether
   the asserted base actually changed, and the clause store must stay
   in lockstep (no duplicate unit clauses, no phantom retractions). *)
let agree_after_script ?baseline (src, script) =
  let db = engine_db_of src in
  let fp = Bottom_up.run ?baseline ~refine db in
  List.for_all
    (fun (asserted, fact_src) ->
      let t = term fact_src in
      (if asserted then begin
         if Bottom_up.assert_fact fp t then Database.fact db t
       end
       else if Bottom_up.retract_fact fp t then
         Stdlib.ignore (Database.retract_fact db t));
      let fresh = Bottom_up.run ?baseline ~refine db in
      List.equal Term.equal (Bottom_up.facts fp) (Bottom_up.facts fresh))
    script

let prop_config ?(holds = false) ?(count = 310) ?baseline name =
  QCheck.Test.make
    ~name:
      (Printf.sprintf
         "incremental maintenance tracks from-scratch runs (%s)" name)
    ~count (arb ~holds)
    (agree_after_script ?baseline)

let prop_semi_naive = prop_config "semi-naive, indexed"
let prop_naive = prop_config ~baseline:Naive "naive"
let prop_scan = prop_config ~baseline:Scan "semi-naive, scans"

let prop_holds =
  prop_config ~holds:true ~count:200 "holds-shaped, semi-naive, indexed"

(* Goal-directed evaluation over a changing base: after every script
   step, rewriting the mutated database for a point goal and evaluating
   the seeded fixpoint must yield exactly the answers a from-scratch
   full materialisation gives for that goal. The rewrite keeps no state
   across steps — a fresh rewrite per step is precisely what [Query]'s
   magic-cache invalidation on update falls back to. *)
let magic_goals = [ "r(a, X)"; "r(X, c)"; "hub(X)"; "iso(b)"; "e(a, X)" ]

(* [Bottom_up.probe] narrows by index bucket but does not unify — filter,
   then sort so answer sets compare as lists. *)
let answers fp goal =
  Bottom_up.probe fp goal
  |> List.filter (fun fact -> Unify.unify Subst.empty goal fact <> None)
  |> List.sort Term.compare

let magic_agrees_after_script (src, script) =
  let db = engine_db_of src in
  let fp = Bottom_up.run db in
  List.for_all
    (fun (asserted, fact_src) ->
      let t = term fact_src in
      (if asserted then begin
         if Bottom_up.assert_fact fp t then Database.fact db t
       end
       else if Bottom_up.retract_fact fp t then
         Stdlib.ignore (Database.retract_fact db t));
      let fresh = Bottom_up.run db in
      List.for_all
        (fun goal_src ->
          let goal = term goal_src in
          let rewritten, info = Magic.rewrite ~goal db in
          let magic_fp = Bottom_up.run ~seed:info.Magic.seeds rewritten in
          List.equal Term.equal (answers fresh goal) (answers magic_fp goal))
        magic_goals)
    script

let prop_magic =
  QCheck.Test.make
    ~name:"goal-directed rewrite tracks the mutated base at every step"
    ~count:120 arb_case magic_agrees_after_script

(* Batched scripts must agree with single-fact application: apply the
   whole script as one [Bottom_up.apply] batch and compare against the
   from-scratch run on the final database. *)
let prop_batched =
  QCheck.Test.make
    ~name:"one-batch apply agrees with from-scratch on the final base"
    ~count:150 arb_case
    (fun (src, script) ->
      let db = engine_db_of src in
      let fp = Bottom_up.run db in
      let updates =
        List.map
          (fun (asserted, f) ->
            let t = term f in
            if asserted then `Assert t else `Retract t)
          script
      in
      Bottom_up.apply fp updates;
      (* mirror the script's net effect on the clause store *)
      List.iter
        (fun (asserted, f) ->
          let t = term f in
          if asserted then begin
            if not (Database.has_fact db t) then Database.fact db t
          end
          else Stdlib.ignore (Database.retract_fact db t))
        script;
      let fresh = Bottom_up.run db in
      List.equal Term.equal (Bottom_up.facts fp) (Bottom_up.facts fresh))

(* ------------------------------------------------------------------ *)
(* DRed edge cases                                                     *)

(* p(1) keeps a derivation through b(1), a base fact ranked below it:
   the rank-bounded keep check decides it without deleting it *)
let test_alternate_derivation () =
  let db = engine_db_of "a(1). b(1). p(X) :- a(X). p(X) :- b(X)." in
  let fp = Bottom_up.run db in
  Alcotest.(check bool) "retract reports a base change" true
    (Bottom_up.retract_fact fp (term "a(1)"));
  Alcotest.(check bool) "a(1) gone" false (Bottom_up.holds fp (term "a(1)"));
  Alcotest.(check bool) "p(1) survives via b(1)" true
    (Bottom_up.holds fp (term "p(1)"));
  let i = Bottom_up.incr_stats fp in
  Alcotest.(check int) "p(1) was kept, not over-deleted" 0
    i.Bottom_up.upd_overdeleted;
  Alcotest.(check int) "nothing was rederived" 0 i.Bottom_up.upd_rederived

(* The derivation left to p(1) runs through q(1), derived two passes
   after p(1) and so ranked above it: the keep check may not use it, so
   p(1) is over-deleted, then rederived with a fresh rank above q(1),
   and its proof rebuilds through q(1). *)
let test_alternate_derivation_above () =
  let db =
    engine_db_of
      "a(1). b(1). p(X) :- a(X). p(X) :- q(X). q(X) :- r(X). r(X) :- b(X)."
  in
  let fp = Bottom_up.run db in
  let rank s = Option.get (Bottom_up.rank fp (term s)) in
  Alcotest.(check bool) "q(1) ranks above p(1)" true (rank "q(1)" > rank "p(1)");
  Stdlib.ignore (Bottom_up.retract_fact fp (term "a(1)"));
  Alcotest.(check bool) "p(1) survives via q(1)" true
    (Bottom_up.holds fp (term "p(1)"));
  let i = Bottom_up.incr_stats fp in
  Alcotest.(check int) "p(1) was over-deleted" 1 i.Bottom_up.upd_overdeleted;
  Alcotest.(check int) "p(1) was rederived" 1 i.Bottom_up.upd_rederived;
  Alcotest.(check bool) "p(1) now ranks above q(1)" true
    (rank "p(1)" > rank "q(1)");
  match Bottom_up.proof fp (term "p(1)") with
  | Some (Explain.Rule { premises = [ Explain.Rule { goal; _ } ]; _ }) ->
      Alcotest.(check string) "the proof runs through q(1)" "q(1)"
        (Term.to_string goal)
  | _ -> Alcotest.fail "p(1) has no proof through q(1)"

(* reach(c, a) and reach(c, b) support each other around the 2-cycle
   a -> b -> a; link(c, a) is their only external support. Ranks forbid
   either to keep the other: retracting the link deletes both. *)
let test_cycle_loses_support () =
  let db =
    engine_db_of
      "link(c, a). link(a, b). link(b, a). reach(X, Y) :- link(X, Y). \
       reach(X, Y) :- reach(X, Z), link(Z, Y)."
  in
  let fp = Bottom_up.run db in
  Alcotest.(check bool) "retract reports a base change" true
    (Bottom_up.retract_fact fp (term "link(c, a)"));
  Stdlib.ignore (Database.retract_fact db (term "link(c, a)"));
  Alcotest.(check bool) "reach(c, a) deleted" false
    (Bottom_up.holds fp (term "reach(c, a)"));
  Alcotest.(check bool) "reach(c, b) deleted" false
    (Bottom_up.holds fp (term "reach(c, b)"));
  Alcotest.(check (list string)) "equals a from-scratch run"
    (facts_of (Bottom_up.run db)) (facts_of fp)

(* One retraction under 10,001 derived facts: the marking loop decides
   each stored fact once and adds none, so it spends no pass budget per
   fact and stays inside the iteration bound. *)
let test_wide_retraction_within_bound () =
  let ns = List.init 10_001 (fun i -> Printf.sprintf "n(%d)." i) in
  let db = engine_db_of (String.concat " " ("root." :: "p(X) :- root, n(X)." :: ns)) in
  let fp = Bottom_up.run db in
  Alcotest.(check int) "every p derived" 10_001
    (List.length (Bottom_up.probe fp (term "p(X)")));
  Alcotest.(check bool) "retract reports a base change" true
    (Bottom_up.retract_fact fp (term "root"));
  Stdlib.ignore (Database.retract_fact db (term "root"));
  Alcotest.(check int) "every p deleted" 0
    (List.length (Bottom_up.probe fp (term "p(X)")));
  Alcotest.(check (list string)) "equals a from-scratch run"
    (facts_of (Bottom_up.run db)) (facts_of fp)

let test_negation_flip_on_emptied_relation () =
  let db = engine_db_of "b(1). b(2). g(1). bad(X) :- b(X), \\+ g(X)." in
  let fp = Bottom_up.run db in
  Alcotest.(check bool) "bad(2) initially" true
    (Bottom_up.holds fp (term "bad(2)"));
  Alcotest.(check bool) "not bad(1) initially" false
    (Bottom_up.holds fp (term "bad(1)"));
  (* retracting g(1) empties g entirely: bad(1), derived through the
     negation in the higher stratum, must appear *)
  Stdlib.ignore (Bottom_up.retract_fact fp (term "g(1)"));
  Alcotest.(check bool) "bad(1) flips on" true
    (Bottom_up.holds fp (term "bad(1)"));
  let i = Bottom_up.incr_stats fp in
  Alcotest.(check (list int)) "g(1) deleted, bad(1) inserted, nothing rederived"
    [ 1; 1; 0; 0 ]
    Bottom_up.
      [ i.upd_inserted; i.upd_deleted; i.upd_overdeleted; i.upd_rederived ];
  (* and the reverse: asserting g(2) kills bad(2) *)
  Stdlib.ignore (Bottom_up.assert_fact fp (term "g(2)"));
  Alcotest.(check bool) "bad(2) flips off" false
    (Bottom_up.holds fp (term "bad(2)"));
  Alcotest.(check bool) "bad(1) still on" true
    (Bottom_up.holds fp (term "bad(1)"))

(* Retracting g(1) unblocks bad(1) alone: the negated literal's delta
   plan finds that one firing, and every other fact of the stratum keeps
   the rank it was derived with. *)
let test_negation_flip_keeps_ranks () =
  let db =
    engine_db_of
      "b(1). b(2). b(3). g(1). h(3). bad(X) :- b(X), \\+ g(X). \
       tagged(X) :- b(X), \\+ h(X)."
  in
  let fp = Bottom_up.run db in
  let others = [ "bad(2)"; "bad(3)"; "tagged(1)"; "tagged(2)" ] in
  let ranks () = List.map (fun s -> Bottom_up.rank fp (term s)) others in
  let before = ranks () and n = Bottom_up.count fp in
  Stdlib.ignore (Bottom_up.retract_fact fp (term "g(1)"));
  Alcotest.(check bool) "bad(1) flips on" true
    (Bottom_up.holds fp (term "bad(1)"));
  Alcotest.(check int) "g(1) out, bad(1) in" n (Bottom_up.count fp);
  Alcotest.(check int) "one head added" 1
    (Bottom_up.incr_stats fp).Bottom_up.upd_inserted;
  Alcotest.(check bool) "untouched facts keep their ranks" true
    (ranks () = before)

(* The iso/plain chain two negations deep: asserting hub(c) blocks iso(c),
   which unblocks plain(c); retracting it undoes both. After each step
   the maintained store equals a from-scratch run and every stored fact
   has a proof. *)
let test_negation_chain_two_deep () =
  let db =
    engine_db_of
      "node(a). node(b). node(c). e(a, b). hub(X) :- e(X, Y). \
       iso(X) :- node(X), \\+ hub(X). plain(X) :- node(X), \\+ iso(X)."
  in
  let fp = Bottom_up.run db in
  let step name asserted =
    let t = term "hub(c)" in
    if asserted then begin
      Stdlib.ignore (Bottom_up.assert_fact fp t);
      Database.fact db t
    end
    else begin
      Stdlib.ignore (Bottom_up.retract_fact fp t);
      Stdlib.ignore (Database.retract_fact db t)
    end;
    Alcotest.(check (list string)) (name ^ ": equals a from-scratch run")
      (facts_of (Bottom_up.run db)) (facts_of fp);
    List.iter
      (fun t ->
        if Bottom_up.proof fp t = None then
          Alcotest.failf "%s: %s has no proof" name (Term.to_string t))
      (Bottom_up.facts fp)
  in
  step "assert hub(c)" true;
  Alcotest.(check bool) "plain(c) derived" true
    (Bottom_up.holds fp (term "plain(c)"));
  step "retract hub(c)" false;
  Alcotest.(check bool) "iso(c) back" true (Bottom_up.holds fp (term "iso(c)"))

(* Both negated inputs of p(1)'s one firing change in one batch: neither
   negated literal's delta plan may read the other against the changed
   store, or the blocked firing goes unnoticed (and the unblocked one is
   missed on the way back). *)
let test_two_negations_flip_in_one_batch () =
  let db = engine_db_of "a(1). p(X) :- a(X), \\+ b(X), \\+ c(X)." in
  let fp = Bottom_up.run db in
  Bottom_up.apply fp [ `Assert (term "b(1)"); `Assert (term "c(1)") ];
  Alcotest.(check bool) "p(1) blocked" false (Bottom_up.holds fp (term "p(1)"));
  Bottom_up.apply fp [ `Retract (term "b(1)"); `Retract (term "c(1)") ];
  Alcotest.(check bool) "p(1) unblocked" true (Bottom_up.holds fp (term "p(1)"))

let test_noop_updates () =
  let db = engine_db_of "a(1). p(X) :- a(X)." in
  let fp = Bottom_up.run db in
  let before = facts_of fp in
  (* retracting a fact that was never asserted is a no-op *)
  Alcotest.(check bool) "retract of absent fact reports false" false
    (Bottom_up.retract_fact fp (term "a(9)"));
  Alcotest.(check (list string)) "store unchanged" before (facts_of fp);
  (* retracting a derived-only fact is a no-op: p(1) has no base entry *)
  Alcotest.(check bool) "retract of derived-only fact reports false" false
    (Bottom_up.retract_fact fp (term "p(1)"));
  Alcotest.(check (list string)) "derived fact stays" before (facts_of fp);
  (* re-asserting a derived fact grows the base but not the store *)
  Alcotest.(check bool) "assert of derived fact reports a base change" true
    (Bottom_up.assert_fact fp (term "p(1)"));
  Alcotest.(check (list string)) "store still unchanged" before (facts_of fp);
  (* ... and makes it survive losing its rule derivation *)
  Stdlib.ignore (Bottom_up.retract_fact fp (term "a(1)"));
  Alcotest.(check bool) "asserted p(1) survives losing a(1)" true
    (Bottom_up.holds fp (term "p(1)"));
  Alcotest.(check bool) "a(1) gone" false (Bottom_up.holds fp (term "a(1)"))

let test_assert_retract_roundtrip () =
  let db =
    engine_db_of
      "e(a, b). e(b, c). r(X, Y) :- e(X, Y). r(X, Y) :- e(X, Z), r(Z, Y)."
  in
  let fp = Bottom_up.run db in
  let before = facts_of fp in
  Stdlib.ignore (Bottom_up.assert_fact fp (term "e(c, a)"));
  Alcotest.(check bool) "closure extended" true
    (Bottom_up.holds fp (term "r(a, a)"));
  Stdlib.ignore (Bottom_up.retract_fact fp (term "e(c, a)"));
  Alcotest.(check (list string)) "round-trips to the original fixpoint"
    before (facts_of fp);
  let i = Bottom_up.incr_stats fp in
  Alcotest.(check int) "two batches" 2 i.Bottom_up.upd_batches;
  Alcotest.(check int) "one assert" 1 i.Bottom_up.upd_asserts;
  Alcotest.(check int) "one retract" 1 i.Bottom_up.upd_retracts;
  Alcotest.(check bool) "insertions counted" true (i.Bottom_up.upd_inserted >= 1);
  Alcotest.(check bool) "deletions counted" true (i.Bottom_up.upd_deleted >= 1);
  (* assert-then-retract inside ONE batch nets out before propagation *)
  let ins0 = i.Bottom_up.upd_inserted in
  Bottom_up.apply fp [ `Assert (term "e(c, d)"); `Retract (term "e(c, d)") ];
  let i = Bottom_up.incr_stats fp in
  Alcotest.(check int) "netted batch propagates nothing" ins0
    i.Bottom_up.upd_inserted;
  Alcotest.(check bool) "netted batch counts a no-op" true
    (i.Bottom_up.upd_noops >= 1);
  Alcotest.(check (list string)) "store untouched" before (facts_of fp)

let test_update_rejects_non_ground () =
  let db = engine_db_of "a(1)." in
  let fp = Bottom_up.run db in
  (match Bottom_up.apply fp [ `Assert (term "a(X)") ] with
  | exception Bottom_up.Unsupported _ -> ()
  | () -> Alcotest.fail "non-ground assert accepted");
  match Bottom_up.apply fp [ `Retract (term "forall(x, y)") ] with
  | exception Bottom_up.Unsupported _ -> ()
  | () -> Alcotest.fail "library-predicate update accepted"

(* A batch with one bad entry is rejected whole: the valid entry before
   it is not applied, no counter moves, and a later batch still sees the
   fact as new. *)
let test_rejected_batch_is_atomic () =
  let db = engine_db_of "e(a, b). r(X, Y) :- e(X, Y)." in
  let fp = Bottom_up.run db in
  let facts0 = facts_of fp and stats0 = Bottom_up.stats fp in
  (match
     Bottom_up.apply fp [ `Assert (term "e(b, c)"); `Assert (term "e(X, c)") ]
   with
  | exception Bottom_up.Unsupported _ -> ()
  | () -> Alcotest.fail "non-ground assert accepted");
  Alcotest.(check (list string)) "facts unchanged" facts0 (facts_of fp);
  Alcotest.(check bool) "stats unchanged" true (Bottom_up.stats fp = stats0);
  Bottom_up.apply fp [ `Assert (term "e(b, c)") ];
  Alcotest.(check bool) "a later batch applies the fact" true
    (Bottom_up.holds fp (term "r(b, c)"))

let test_stats_cumulative () =
  let db = engine_db_of "e(a, b). r(X, Y) :- e(X, Y)." in
  let fp = Bottom_up.run db in
  let s0 = Bottom_up.stats fp in
  Alcotest.(check int) "no update counters before updates" 0
    s0.Bottom_up.bu_incr.Bottom_up.upd_batches;
  Stdlib.ignore (Bottom_up.assert_fact fp (term "e(b, c)"));
  let s1 = Bottom_up.stats fp in
  Alcotest.(check bool) "passes grow with maintenance" true
    (s1.Bottom_up.bu_passes > s0.Bottom_up.bu_passes);
  Alcotest.(check int) "facts track the store" (Bottom_up.count fp)
    s1.Bottom_up.bu_facts;
  Alcotest.(check int) "one batch recorded" 1
    s1.Bottom_up.bu_incr.Bottom_up.upd_batches

let tests =
  [
    Alcotest.test_case "alternate derivation survives retraction" `Quick
      test_alternate_derivation;
    Alcotest.test_case "alternate derivation ranked above is rederived" `Quick
      test_alternate_derivation_above;
    Alcotest.test_case "mutually supporting facts lose their support" `Quick
      test_cycle_loses_support;
    Alcotest.test_case "wide retraction stays within the pass bound" `Quick
      test_wide_retraction_within_bound;
    Alcotest.test_case "emptied relation flips negation above" `Quick
      test_negation_flip_on_emptied_relation;
    Alcotest.test_case "a negation flip keeps the ranks of untouched facts"
      `Quick test_negation_flip_keeps_ranks;
    Alcotest.test_case "negation chain two deep, assert then retract" `Quick
      test_negation_chain_two_deep;
    Alcotest.test_case "two negated inputs flip in one batch" `Quick
      test_two_negations_flip_in_one_batch;
    Alcotest.test_case "no-op updates" `Quick test_noop_updates;
    Alcotest.test_case "assert/retract round-trip" `Quick
      test_assert_retract_roundtrip;
    Alcotest.test_case "invalid updates rejected" `Quick
      test_update_rejects_non_ground;
    Alcotest.test_case "rejected batch leaves the fixpoint untouched" `Quick
      test_rejected_batch_is_atomic;
    Alcotest.test_case "stats stay cumulative and consistent" `Quick
      test_stats_cumulative;
    QCheck_alcotest.to_alcotest prop_semi_naive;
    QCheck_alcotest.to_alcotest prop_naive;
    QCheck_alcotest.to_alcotest prop_scan;
    QCheck_alcotest.to_alcotest prop_holds;
    QCheck_alcotest.to_alcotest prop_magic;
    QCheck_alcotest.to_alcotest prop_batched;
  ]
