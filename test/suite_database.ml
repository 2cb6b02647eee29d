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

let gen_atom vars =
  let open QCheck.Gen in
  let arg = gen_arg vars in
  oneof
    [
      map2 (Printf.sprintf "p(%s, %s)") arg arg;
      map (Printf.sprintf "q(%s)") arg;
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
   assertion order. *)
let lookup_agrees db goal =
  let unifies c =
    Option.is_some
      (Unify.unify Subst.empty goal (Database.rename_clause c).Database.head)
  in
  let fa = Option.get (Term.functor_of goal) in
  List.equal ( == )
    (List.filter unifies (List.of_seq (Database.clauses db goal)))
    (List.filter unifies (Database.all_clauses db fa))

let prop_indexed_lookup =
  QCheck.Test.make ~name:"indexed lookup agrees with the unfiltered store" ~count:400
    (QCheck.make ~print:QCheck.Print.(list print_op) gen_ops)
    (fun ops ->
      (* the original, and its copy once one is made; updates diverge *)
      let dbs = [| Database.create (); Database.create () |] in
      let copied = ref false in
      List.for_all
        (fun (i, op) ->
          let db = if !copied then dbs.(i) else dbs.(0) in
          match op with
          | Assertz c -> Database.assertz db (clause c); true
          | Asserta c -> Database.asserta db (clause c); true
          | Retract c -> Stdlib.ignore (Database.retract db (clause c)); true
          | Copy ->
              dbs.(1) <- Database.copy dbs.(0);
              copied := true;
              true
          | Goal g ->
              let goal = Reader.term g in
              lookup_agrees dbs.(0) goal && ((not !copied) || lookup_agrees dbs.(1) goal))
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
  ]
