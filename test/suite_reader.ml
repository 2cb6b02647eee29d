open Gdp_logic

let roundtrip msg src expected =
  Alcotest.(check string) msg expected (Term.to_string (Reader.term src))

let test_atoms_numbers () =
  roundtrip "atom" "foo" "foo";
  roundtrip "quoted atom" "'Hello World'" "'Hello World'";
  roundtrip "int" "42" "42";
  roundtrip "negative int" "-42" "-42";
  roundtrip "float" "3.5" "3.5";
  roundtrip "string" "\"hi\"" "\"hi\"";
  roundtrip "scientific float" "1.5e2" "150.0"

let test_compound_shape () =
  match Reader.term "f(g(1), X)" with
  | Term.App ("f", [ Term.App ("g", [ Term.Int 1 ]); Term.Var _ ]) -> ()
  | t -> Alcotest.failf "unexpected: %s" (Term.to_string t)

let test_var_sharing () =
  match Reader.term "f(X, X, Y)" with
  | Term.App ("f", [ Term.Var a; Term.Var b; Term.Var c ]) ->
      Alcotest.(check bool) "X shared" true (a.Term.id = b.Term.id);
      Alcotest.(check bool) "Y distinct" true (a.Term.id <> c.Term.id)
  | t -> Alcotest.failf "unexpected: %s" (Term.to_string t)

let test_underscore_fresh () =
  match Reader.term "f(_, _)" with
  | Term.App ("f", [ Term.Var a; Term.Var b ]) ->
      Alcotest.(check bool) "_ always fresh" true (a.Term.id <> b.Term.id)
  | t -> Alcotest.failf "unexpected: %s" (Term.to_string t)

let test_lists () =
  roundtrip "list" "[1, 2, 3]" "[1, 2, 3]";
  roundtrip "empty list" "[]" "nil";
  (match Reader.term "[H | T]" with
  | Term.App ("cons", [ Term.Var _; Term.Var _ ]) -> ()
  | t -> Alcotest.failf "unexpected: %s" (Term.to_string t));
  match Reader.term "[1, 2 | T]" with
  | Term.App ("cons", [ Term.Int 1; Term.App ("cons", [ Term.Int 2; Term.Var _ ]) ]) ->
      ()
  | t -> Alcotest.failf "unexpected: %s" (Term.to_string t)

let shape src = Term.to_string (Reader.term src)

let test_operator_precedence () =
  Alcotest.(check string) "arith" "'+'(1, '*'(2, 3))" (shape "1 + 2 * 3");
  Alcotest.(check string) "left assoc" "'-'('-'(1, 2), 3)" (shape "1 - 2 - 3");
  (match Reader.term "a , b ; c" with
  | Term.App (";", [ Term.App (",", _); Term.Atom "c" ]) -> ()
  | t -> Alcotest.failf "comma binds tighter than semicolon: %s" (Term.to_string t));
  match Reader.term "a :- b, c" with
  | Term.App (":-", [ Term.Atom "a"; Term.App (",", _) ]) -> ()
  | t -> Alcotest.failf "clause operator loosest: %s" (Term.to_string t)

let test_right_assoc_comma () =
  match Reader.term "a, b, c" with
  | Term.App (",", [ Term.Atom "a"; Term.App (",", [ Term.Atom "b"; Term.Atom "c" ]) ])
    -> ()
  | t -> Alcotest.failf "comma is xfy: %s" (Term.to_string t)

let test_prefix_operators () =
  (match Reader.term "\\+ p(X)" with
  | Term.App ("\\+", [ Term.App ("p", _) ]) -> ()
  | t -> Alcotest.failf "naf prefix: %s" (Term.to_string t));
  (match Reader.term "not p(X)" with
  | Term.App ("not", [ Term.App ("p", _) ]) -> ()
  | t -> Alcotest.failf "not prefix: %s" (Term.to_string t));
  match Reader.term "- (3 + 4)" with
  | Term.App ("-", [ Term.App ("+", _) ]) -> ()
  | t -> Alcotest.failf "unary minus: %s" (Term.to_string t)

let test_spaced_lparen () =
  (* adjacency decides compound vs prefix application *)
  (match Reader.term "\\+ (a, b)" with
  | Term.App ("\\+", [ Term.App (",", _) ]) -> ()
  | t -> Alcotest.failf "spaced paren is argument: %s" (Term.to_string t));
  match Reader.term "f(a)" with
  | Term.App ("f", [ Term.Atom "a" ]) -> ()
  | t -> Alcotest.failf "adjacent paren is compound: %s" (Term.to_string t)

let test_clause_parsing () =
  let c = Reader.clause "p(X) :- q(X), r(X)." in
  Alcotest.(check int) "two body goals" 2 (List.length c.Database.body);
  let f = Reader.clause "p(1)." in
  Alcotest.(check int) "fact has empty body" 0 (List.length f.Database.body)

let test_goals () =
  Alcotest.(check int) "conjunction flattened" 3
    (List.length (Reader.goals "a, b, c"));
  Alcotest.(check int) "single goal" 1 (List.length (Reader.goals "a"))

let test_program_and_comments () =
  let prog =
    Reader.program
      {|
      % a line comment
      p(1).
      /* block /* nested */ comment */
      p(2).
      q(X) :- p(X).
      |}
  in
  Alcotest.(check int) "three clauses" 3 (List.length prog)

let test_program_var_scoping () =
  let prog = Reader.program "p(X). q(X)." in
  match
    ( (List.nth prog 0).Database.head,
      (List.nth prog 1).Database.head )
  with
  | Term.App ("p", [ Term.Var a ]), Term.App ("q", [ Term.Var b ]) ->
      Alcotest.(check bool) "clause-local scope" true (a.Term.id <> b.Term.id)
  | _ -> Alcotest.fail "unexpected program shape"

let test_errors () =
  let fails src =
    match Reader.term src with
    | exception Reader.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "unbalanced paren" true (fails "f(a");
  Alcotest.(check bool) "trailing garbage" true (fails "a b");
  Alcotest.(check bool) "empty input" true (fails "");
  Alcotest.(check bool) "unterminated string" true (fails "\"abc");
  Alcotest.(check bool) "unterminated comment" true (fails "/* abc")

let test_error_position () =
  match Reader.term "f(a," with
  | exception Reader.Parse_error msg ->
      Alcotest.(check bool) "position in message" true
        (String.length msg > 0 && msg.[0] = '1')
  | _ -> Alcotest.fail "expected parse error"

let test_dot_disambiguation () =
  (* '.' ends a clause only before layout/EOF *)
  let prog = Reader.program "p(3.5). q(a)." in
  Alcotest.(check int) "float dot not clause end" 2 (List.length prog)

let tests =
  [
    Alcotest.test_case "atoms and numbers" `Quick test_atoms_numbers;
    Alcotest.test_case "compound shape" `Quick test_compound_shape;
    Alcotest.test_case "variable sharing" `Quick test_var_sharing;
    Alcotest.test_case "underscore fresh" `Quick test_underscore_fresh;
    Alcotest.test_case "lists" `Quick test_lists;
    Alcotest.test_case "operator precedence" `Quick test_operator_precedence;
    Alcotest.test_case "comma right assoc" `Quick test_right_assoc_comma;
    Alcotest.test_case "prefix operators" `Quick test_prefix_operators;
    Alcotest.test_case "space before paren" `Quick test_spaced_lparen;
    Alcotest.test_case "clauses" `Quick test_clause_parsing;
    Alcotest.test_case "goals" `Quick test_goals;
    Alcotest.test_case "programs and comments" `Quick test_program_and_comments;
    Alcotest.test_case "clause-local variables" `Quick test_program_var_scoping;
    Alcotest.test_case "parse errors" `Quick test_errors;
    Alcotest.test_case "error position" `Quick test_error_position;
    Alcotest.test_case "dot disambiguation" `Quick test_dot_disambiguation;
  ]
