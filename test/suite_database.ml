open Gdp_logic

let clause src = Reader.clause src

let test_assertz_order () =
  let db = Database.create () in
  Database.assertz db (clause "p(1).");
  Database.assertz db (clause "p(2).");
  Database.assertz db (clause "p(3).");
  let heads =
    Database.all_clauses db ("p", 1)
    |> List.map (fun c -> Term.to_string c.Database.head)
  in
  Alcotest.(check (list string)) "assertion order" [ "p(1)"; "p(2)"; "p(3)" ] heads

let test_asserta_prepends () =
  let db = Database.create () in
  Database.assertz db (clause "p(1).");
  Database.asserta db (clause "p(0).");
  let heads =
    Database.all_clauses db ("p", 1)
    |> List.map (fun c -> Term.to_string c.Database.head)
  in
  Alcotest.(check (list string)) "asserta first" [ "p(0)"; "p(1)" ] heads

let test_first_arg_indexing () =
  let db = Database.create () in
  Database.assertz db (clause "p(a, 1).");
  Database.assertz db (clause "p(b, 2).");
  Database.assertz db (clause "p(X, 3).");
  let candidates goal = Seq.length (Database.clauses db (Reader.term goal)) in
  Alcotest.(check int) "keyed lookup filters" 2 (candidates "p(a, Z)");
  Alcotest.(check int) "unbound first arg keeps all" 3 (candidates "p(W, Z)");
  Alcotest.(check int) "no match only var clause" 1 (candidates "p(zz, Z)")

let test_index_compound_key () =
  let db = Database.create () in
  Database.assertz db (clause "q(f(1), one).");
  Database.assertz db (clause "q(g(1), gee).");
  let candidates goal = Seq.length (Database.clauses db (Reader.term goal)) in
  Alcotest.(check int) "a ground compound keys on the whole subterm" 0
    (candidates "q(f(9), R)");
  Alcotest.(check int) "the matching compound finds its clause" 1
    (candidates "q(f(1), R)");
  Alcotest.(check int) "a ground argument inside a compound keys too" 1
    (candidates "q(g(X), gee)");
  Alcotest.(check int) "no ground subterm keeps all" 2 (candidates "q(f(X), R)")

let test_retract () =
  let db = Database.create () in
  Database.assertz db (clause "p(X) :- q(X).");
  Database.assertz db (clause "p(1).");
  Alcotest.(check bool) "retract rule variant" true
    (Database.retract db (clause "p(Y) :- q(Y)."));
  Alcotest.(check int) "one clause left" 1 (List.length (Database.all_clauses db ("p", 1)));
  Alcotest.(check bool) "absent clause" false (Database.retract db (clause "p(2)."));
  Alcotest.(check bool) "fact retract" true (Database.retract db (clause "p(1)."));
  Alcotest.(check int) "empty now" 0 (List.length (Database.all_clauses db ("p", 1)))

let test_retract_first_in_order () =
  let db = Database.create () in
  Database.assertz db (clause "r(1).");
  Database.assertz db (clause "r(X).");
  Alcotest.(check bool) "retract variant of r(X)... picks matching clause" true
    (Database.retract db (clause "r(Y)."));
  let remaining = Database.all_clauses db ("r", 1) in
  Alcotest.(check int) "one left" 1 (List.length remaining);
  Alcotest.(check string) "ground one remains" "r(1)"
    (Term.to_string (List.hd remaining).Database.head)

let test_retract_all () =
  let db = Database.create () in
  Database.assertz db (clause "p(1).");
  Database.assertz db (clause "p(2).");
  Database.retract_all db ("p", 1);
  Alcotest.(check int) "gone" 0 (List.length (Database.all_clauses db ("p", 1)))

let test_copy_independent () =
  let db = Database.create () in
  Database.assertz db (clause "p(1).");
  let db2 = Database.copy db in
  Database.assertz db2 (clause "p(2).");
  Alcotest.(check int) "original untouched" 1
    (List.length (Database.all_clauses db ("p", 1)));
  Alcotest.(check int) "copy extended" 2
    (List.length (Database.all_clauses db2 ("p", 1)))

let test_builtin_conflicts () =
  let db = Database.create () in
  Database.register_builtin db ("blt", 1) (fun _ s _ -> Seq.return s);
  Alcotest.(check bool) "assert on builtin rejected" true
    (try
       Database.assertz db (clause "blt(1).");
       false
     with Invalid_argument _ -> true);
  Database.assertz db (clause "notblt(1).");
  Alcotest.(check bool) "builtin over clauses rejected" true
    (try
       Database.register_builtin db ("notblt", 1) (fun _ s _ -> Seq.return s);
       false
     with Invalid_argument _ -> true)

let test_bad_head_rejected () =
  let db = Database.create () in
  Alcotest.(check bool) "integer head" true
    (try
       Database.fact db (Term.int 3);
       false
     with Invalid_argument _ -> true)

let test_rename_clause () =
  let c = clause "p(X, Y) :- q(X), r(Y, X)." in
  let c' = Database.rename_clause c in
  let vars_of cl =
    List.concat_map Term.vars (cl.Database.head :: cl.Database.body)
    |> List.map (fun (v : Term.var) -> v.Term.id)
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "same var count" 2 (List.length (vars_of c'));
  Alcotest.(check bool) "disjoint from original" true
    (List.for_all (fun id -> not (List.mem id (vars_of c))) (vars_of c'))

let test_size_predicates () =
  let db = Database.create () in
  Database.assertz db (clause "p(1).");
  Database.assertz db (clause "q(1, 2).");
  Database.assertz db (clause "q(3, 4).");
  Alcotest.(check int) "size" 3 (Database.size db);
  Alcotest.(check (list (pair string int)))
    "predicates sorted" [ ("p", 1); ("q", 2) ] (Database.predicates db)

(* Logical update view: a lookup's candidates are fixed when it is made,
   whatever is asserted or retracted while they are consumed. *)
let test_logical_update_view () =
  let db = Database.create () in
  List.iter
    (fun c -> Database.assertz db (clause c))
    [ "r(a, 1)."; "r(a, 2)."; "r(b, 3)." ];
  let head c = Term.to_string c.Database.head in
  let heads seq = List.map head (List.of_seq seq) in
  let lookup () = Database.clauses db (Reader.term "r(a, X)") in
  match lookup () () with
  | Seq.Nil -> Alcotest.fail "r(a, X) has candidates"
  | Seq.Cons (first, rest) ->
      Alcotest.(check string) "first candidate" "r(a, 1)" (head first);
      Database.assertz db (clause "r(a, 4).");
      Database.asserta db (clause "r(a, 0).");
      Stdlib.ignore (Database.retract db (clause "r(a, 2)."));
      Alcotest.(check (list string)) "the rest as at the call" [ "r(a, 2)" ] (heads rest);
      Alcotest.(check (list string)) "a new lookup sees the updates"
        [ "r(a, 0)"; "r(a, 1)"; "r(a, 4)" ] (heads (lookup ()))

(* ---- the summary of arguments every clause shares ---- *)

let heads db goal =
  List.of_seq (Database.clauses db (Reader.term goal))
  |> List.map (fun c -> Term.to_string c.Database.head)

let skips db = (Database.index_counts db).Database.shared_skips
let builds db = (Database.index_counts db).Database.branch_builds

let test_shared_constant () =
  let db = Database.create () in
  List.iter (fun c -> Database.assertz db (clause c)) [ "s(k, 1)."; "s(k, f(2))." ];
  Alcotest.(check (list string)) "another constant: no candidates" [] (heads db "s(j, X)");
  Alcotest.(check (list string)) "a compound there: no candidates" [] (heads db "s(f(k), X)");
  Alcotest.(check (list string)) "the shared constant: every clause"
    [ "s(k, 1)"; "s(k, f(2))" ] (heads db "s(k, X)");
  Alcotest.(check int) "three lookups skipped the shared argument" 3 (skips db);
  Alcotest.(check int) "and built no branch on it" 0 (builds db);
  Alcotest.(check (list string)) "the other argument is still walked" [ "s(k, 1)" ]
    (heads db "s(k, 1)");
  Alcotest.(check int) "one branch, on the second argument" 1 (builds db)

let test_shared_turned_off () =
  let check_off name assert_ c =
    let db = Database.create () in
    List.iter (fun c -> Database.assertz db (clause c)) [ "s(k, 1)."; "s(k, 2)." ];
    let c = clause c in
    assert_ db c;
    Alcotest.(check (list string)) name [ Term.to_string c.Database.head ]
      (heads db "s(j, X)");
    Alcotest.(check int) (name ^ ": no skip") 0 (skips db)
  in
  check_off "assertz of another constant" Database.assertz "s(j, 3).";
  check_off "asserta of another constant" Database.asserta "s(j, 3).";
  check_off "assertz of a variable" Database.assertz "s(Y, 3).";
  check_off "asserta of a variable" Database.asserta "s(Y, 3)."

let test_shared_after_retract () =
  let db = Database.create () in
  List.iter (fun c -> Database.assertz db (clause c)) [ "s(k, 1)."; "s(j, 2)."; "s(k, 3)." ];
  Alcotest.(check bool) "retract the odd clause" true (Database.retract db (clause "s(j, 2)."));
  Alcotest.(check (list string)) "its constant finds nothing" [] (heads db "s(j, X)");
  Alcotest.(check (list string)) "the rest is found" [ "s(k, 1)"; "s(k, 3)" ]
    (heads db "s(k, X)");
  Alcotest.(check bool) "retract a shared clause" true (Database.retract db (clause "s(k, 1)."));
  Alcotest.(check (list string)) "still exact" [ "s(k, 3)" ] (heads db "s(k, X)");
  Alcotest.(check (list string)) "still exact for a bound second argument" []
    (heads db "s(k, 1)");
  Alcotest.(check bool) "retract the last clause" true (Database.retract db (clause "s(k, 3)."));
  Database.assertz db (clause "s(j, 4).");
  Alcotest.(check (list string)) "a clause into the emptied predicate is found" [ "s(j, 4)" ]
    (heads db "s(j, X)");
  Alcotest.(check (list string)) "and the old constant is not" [] (heads db "s(k, X)")

let test_shared_copy () =
  let db = Database.create () in
  Database.assertz db (clause "s(k, 1).");
  let db2 = Database.copy db in
  Database.assertz db2 (clause "s(j, 2).");
  Alcotest.(check (list string)) "the original still skips" [] (heads db "s(j, X)");
  Alcotest.(check int) "one skip in the original" 1 (skips db);
  Alcotest.(check (list string)) "the copy finds its clause" [ "s(j, 2)" ] (heads db2 "s(j, X)");
  Alcotest.(check int) "the copy counts its own lookups" 0 (skips db2);
  Database.assertz db (clause "s(k, 3).");
  Alcotest.(check (list string)) "the copy misses the original's clause" [ "s(k, 1)" ]
    (heads db2 "s(k, X)")

(* ---- differential property: indexed lookup vs the unfiltered store ---- *)

(* A random argument: atoms, integers, clause-local variables, compounds,
   and lists of mixed length with a ground ([]) or open (variable)
   tail. *)
let gen_arg vars =
  let open QCheck.Gen in
  fix
    (fun self d ->
      let leaf = oneof [ oneofl [ "a"; "b"; "1"; "2" ]; oneofl vars ] in
      if d = 0 then leaf
      else
        frequency
          [
            (3, leaf);
            (1, map (Printf.sprintf "f(%s)") (self (d - 1)));
            ( 3,
              let* elems = list_size (int_range 0 3) (self (d - 1)) in
              let* tail =
                if elems = [] then return ""
                else oneof [ return ""; map (( ^ ) " | ") (oneofl vars) ]
              in
              return (Printf.sprintf "[%s%s]" (String.concat ", " elems) tail) );
          ])
    2

(* [s/2]'s first argument is the constant [k] in most clauses, so
   lookups skip it; goals also put another constant, a list or a
   compound there *)
let gen_shared vars =
  let open QCheck.Gen in
  frequency
    [
      (6, return "k");
      (1, return "[k, a]");
      (1, map (Printf.sprintf "[k | %s]") (oneofl vars));
      (1, return "f(k)");
      (2, gen_arg vars);
    ]

let gen_atom vars =
  let open QCheck.Gen in
  let arg = gen_arg vars in
  oneof
    [
      map2 (Printf.sprintf "p(%s, %s)") arg arg;
      map (Printf.sprintf "q(%s)") arg;
      map2 (Printf.sprintf "s(%s, %s)") (gen_shared vars) arg;
    ]

let gen_clause =
  let open QCheck.Gen in
  let* head = gen_atom [ "X"; "Y"; "Z" ] in
  map (fun body -> head ^ body) (oneofl [ "."; " :- q(X)."; " :- p(Y, X), q(Z)." ])

type op =
  | Assertz of string
  | Asserta of string
  | Retract of string
  | Copy
  | Goal of string

let gen_ops =
  let open QCheck.Gen in
  let* pool = list_size (int_range 1 8) gen_clause in
  let from_pool = oneofl pool in
  list_size (int_range 1 40)
    (pair (int_range 0 1)
       (frequency
          [
            (4, map (fun c -> Assertz c) from_pool);
            (2, map (fun c -> Asserta c) from_pool);
            (2, map (fun c -> Retract c) from_pool);
            (1, return Copy);
            (4, map (fun g -> Goal g) (gen_atom [ "U"; "V"; "W" ]));
          ]))

let print_op (db, op) =
  Printf.sprintf "db%d: %s" db
    (match op with
    | Assertz c -> "assertz " ^ c
    | Asserta c -> "asserta " ^ c
    | Retract c -> "retract " ^ c
    | Copy -> "copy"
    | Goal g -> "?- " ^ g)

(* Of the candidates [clauses] returns, those whose head unifies with the
   goal are exactly the unifying clauses of the whole predicate, in
   assertion order. The oracle unifies with the occurs check: without it
   a goal and head that share a variable pattern can bind a variable to
   a term containing it, and unification then walks the cycle forever. *)
let lookup_agrees db goal =
  let unifies c =
    Option.is_some
      (Unify.unify ~occurs_check:true Subst.empty goal
         (Database.rename_clause c).Database.head)
  in
  let fa = Option.get (Term.functor_of goal) in
  List.equal ( == )
    (List.filter unifies (List.of_seq (Database.clauses db goal)))
    (List.filter unifies (Database.all_clauses db fa))

(* The case QCHECK_SEED=414115354 shrank to: unifying this goal with
   the head binds a variable to a term that contains it. The index never
   unifies, but an oracle without the occurs check walked that cyclic
   binding until the stack overflowed. *)
let test_cyclic_binding_oracle () =
  let db = Database.create () in
  Database.assertz db (clause "p([Y, Y], [Y, Y | X]) :- q(X).");
  Alcotest.(check bool) "the oracle terminates and agrees" true
    (lookup_agrees db (Reader.term "p([[a, W, V | V], V], [V, 1, f(W) | W])"))

(* [c] rendered with its variables renamed [_0], [_1], ... in order of
   first occurrence: two clauses are variants when the renderings agree *)
let canonical (c : Database.clause) =
  let names = Hashtbl.create 8 in
  let rec go (t : Term.t) =
    match t with
    | Term.Var v -> (
        match Hashtbl.find_opt names v.Term.id with
        | Some n -> n
        | None ->
            let n = Term.atom (Printf.sprintf "_%d" (Hashtbl.length names)) in
            Hashtbl.add names v.Term.id n;
            n)
    | Term.App (f, args) -> Term.App (f, List.map go args)
    | t -> t
  in
  List.map (fun t -> Term.to_string (go t)) (c.Database.head :: c.Database.body)

let has_fact_agrees db h =
  let key = canonical { Database.head = h; body = [] } in
  Database.has_fact db h
  = List.exists
      (fun c -> canonical c = key)
      (Database.all_clauses db (Option.get (Term.functor_of h)))

(* [retract] removes the first variant in clause order, and only it *)
let retract_agrees db (c : Database.clause) =
  let fa = Option.get (Term.functor_of c.head) in
  let before = Database.all_clauses db fa in
  let key = canonical c in
  let rec drop_first = function
    | [] -> None
    | x :: xs ->
        if canonical x = key then Some xs
        else Option.map (List.cons x) (drop_first xs)
  in
  let expected = drop_first before in
  Database.retract db c = Option.is_some expected
  && List.equal ( == )
       (Database.all_clauses db fa)
       (Option.value ~default:before expected)

(* [clauses], [has_fact] and [retract] all go through the index *)
let prop_indexed_lookup =
  QCheck.Test.make ~name:"indexed lookup agrees with the unfiltered store" ~count:400
    (QCheck.make ~print:QCheck.Print.(list print_op) gen_ops)
    (fun ops ->
      (* the original, and its copy once one is made; updates diverge *)
      let dbs = [| Database.create (); Database.create () |] in
      let copied = ref false in
      let agrees db goal = lookup_agrees db goal && has_fact_agrees db goal in
      List.for_all
        (fun (i, op) ->
          let db = if !copied then dbs.(i) else dbs.(0) in
          match op with
          | Assertz c -> Database.assertz db (clause c); true
          | Asserta c -> Database.asserta db (clause c); true
          | Retract c ->
              let c = clause c in
              has_fact_agrees db c.head && retract_agrees db c
          | Copy ->
              dbs.(1) <- Database.copy dbs.(0);
              copied := true;
              true
          | Goal g ->
              let goal = Reader.term g in
              agrees dbs.(0) goal && ((not !copied) || agrees dbs.(1) goal))
        ops)

let tests =
  [
    Alcotest.test_case "assertz order" `Quick test_assertz_order;
    Alcotest.test_case "asserta prepends" `Quick test_asserta_prepends;
    Alcotest.test_case "first-argument indexing" `Quick test_first_arg_indexing;
    Alcotest.test_case "compound index keys" `Quick test_index_compound_key;
    Alcotest.test_case "retract" `Quick test_retract;
    Alcotest.test_case "retract picks first in order" `Quick test_retract_first_in_order;
    Alcotest.test_case "retract_all" `Quick test_retract_all;
    Alcotest.test_case "copy independence" `Quick test_copy_independent;
    Alcotest.test_case "builtin conflicts" `Quick test_builtin_conflicts;
    Alcotest.test_case "bad head rejected" `Quick test_bad_head_rejected;
    Alcotest.test_case "rename_clause" `Quick test_rename_clause;
    Alcotest.test_case "size and predicates" `Quick test_size_predicates;
    Alcotest.test_case "logical update view" `Quick test_logical_update_view;
    QCheck_alcotest.to_alcotest prop_indexed_lookup;
    Alcotest.test_case "lookup oracle survives a cyclic binding" `Quick
      test_cyclic_binding_oracle;
    Alcotest.test_case "a shared argument is skipped" `Quick test_shared_constant;
    Alcotest.test_case "a differing assert turns the skip off" `Quick
      test_shared_turned_off;
    Alcotest.test_case "lookups stay exact after a retract" `Quick
      test_shared_after_retract;
    Alcotest.test_case "a copy keeps its own summary" `Quick test_shared_copy;
  ]
