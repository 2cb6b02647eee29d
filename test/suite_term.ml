open Gdp_logic

let check_bool msg expected actual = Alcotest.(check bool) msg expected actual
let check_int msg expected actual = Alcotest.(check int) msg expected actual
let check_string msg expected actual = Alcotest.(check string) msg expected actual

let test_app_identifies_atoms () =
  check_bool "app with no args is an atom" true
    (Term.equal (Term.app "foo" []) (Term.atom "foo"))

let test_fresh_vars_distinct () =
  let a = Term.var "X" and b = Term.var "X" in
  check_bool "same-named fresh vars are distinct" false (Term.equal a b)

let test_equal_structural () =
  let t1 = Term.app "f" [ Term.int 1; Term.app "g" [ Term.atom "a" ] ] in
  let t2 = Term.app "f" [ Term.int 1; Term.app "g" [ Term.atom "a" ] ] in
  check_bool "structural equality" true (Term.equal t1 t2);
  check_bool "different arity" false
    (Term.equal (Term.app "f" [ Term.int 1 ]) (Term.app "f" [ Term.int 1; Term.int 2 ]));
  check_bool "NaN equals itself" true
    (Term.equal (Term.float Float.nan) (Term.float (Float.sqrt (-1.0))));
  check_bool "0.0 equals -0.0" true (Term.equal (Term.float 0.0) (Term.float (-0.0)))

let test_int_float_not_equal () =
  check_bool "1 is not 1.0" false (Term.equal (Term.int 1) (Term.float 1.0))

let test_is_ground () =
  check_bool "atom ground" true (Term.is_ground (Term.atom "a"));
  check_bool "var not ground" false (Term.is_ground (Term.var "X"));
  check_bool "nested var not ground" false
    (Term.is_ground (Term.app "f" [ Term.atom "a"; Term.app "g" [ Term.var "X" ] ]))

let test_vars_order_dedup () =
  let x = Term.var "X" and y = Term.var "Y" in
  let t = Term.app "f" [ x; y; x; Term.app "g" [ y; x ] ] in
  check_int "two distinct vars" 2 (List.length (Term.vars t));
  match (Term.vars t, x, y) with
  | [ v1; v2 ], Term.Var vx, Term.Var vy ->
      check_int "first occurrence first" vx.Term.id v1.Term.id;
      check_int "second next" vy.Term.id v2.Term.id
  | _ -> Alcotest.fail "unexpected shape"

let test_functor_of () =
  Alcotest.(check (option (pair string int)))
    "compound" (Some ("f", 2))
    (Term.functor_of (Term.app "f" [ Term.int 1; Term.int 2 ]));
  Alcotest.(check (option (pair string int)))
    "atom" (Some ("a", 0))
    (Term.functor_of (Term.atom "a"));
  Alcotest.(check (option (pair string int))) "int" None (Term.functor_of (Term.int 3))

let test_list_roundtrip () =
  let l = [ Term.int 1; Term.atom "b"; Term.str "c" ] in
  match Term.as_list (Term.list l) with
  | Some l' -> check_bool "roundtrip" true (List.for_all2 Term.equal l l')
  | None -> Alcotest.fail "as_list failed"

let test_as_list_improper () =
  let improper = Term.app "cons" [ Term.int 1; Term.var "T" ] in
  check_bool "improper list rejected" true (Term.as_list improper = None)

let test_standard_order () =
  (* Var < Float < Int < Atom < Str < App *)
  let ordered =
    [ Term.var "X"; Term.float 9.9; Term.int 0; Term.atom "a"; Term.str "s";
      Term.app "f" [ Term.int 1 ] ]
  in
  let rec pairs = function
    | a :: (b :: _ as rest) -> (a, b) :: pairs rest
    | _ -> []
  in
  List.iter
    (fun (a, b) ->
      check_bool
        (Printf.sprintf "%s < %s" (Term.to_string a) (Term.to_string b))
        true
        (Term.compare a b < 0))
    (pairs ordered)

let test_compare_compound () =
  (* arity dominates, then name, then args *)
  check_bool "smaller arity first" true
    (Term.compare (Term.app "z" [ Term.int 1 ]) (Term.app "a" [ Term.int 1; Term.int 2 ])
     < 0);
  check_bool "name order" true
    (Term.compare (Term.app "a" [ Term.int 1 ]) (Term.app "b" [ Term.int 1 ]) < 0);
  check_bool "arg order" true
    (Term.compare (Term.app "f" [ Term.int 1 ]) (Term.app "f" [ Term.int 2 ]) < 0)

let test_rename_consistent () =
  let x = Term.var "X" in
  let t = Term.app "f" [ x; x ] in
  let tbl = Hashtbl.create 4 in
  let renamed =
    Term.rename
      (fun id -> Hashtbl.find_opt tbl id)
      (fun v ->
        let w = Term.var_with_id v.Term.name (Term.fresh_id ()) in
        Hashtbl.add tbl v.Term.id w;
        Term.Var w)
      t
  in
  (match renamed with
  | Term.App ("f", [ Term.Var a; Term.Var b ]) ->
      check_int "same renamed var" a.Term.id b.Term.id;
      (match x with
      | Term.Var vx -> check_bool "fresh id" true (a.Term.id <> vx.Term.id)
      | _ -> assert false)
  | _ -> Alcotest.fail "unexpected rename result")

let test_pp () =
  check_string "compound" "f(a, 1)"
    (Term.to_string (Term.app "f" [ Term.atom "a"; Term.int 1 ]));
  check_string "list" "[1, 2]" (Term.to_string (Term.list [ Term.int 1; Term.int 2 ]));
  check_string "quoted atom" "'Hello world'" (Term.to_string (Term.atom "Hello world"));
  check_string "empty list" "nil" (Term.to_string (Term.list []));
  check_string "partial list" "[1 | T_1000000]"
    (Term.to_string
       (Term.app "cons" [ Term.int 1; Term.Var (Term.var_with_id "T" 1000000) ]))

let test_pp_string_escapes () =
  check_string "string" "\"a b\"" (Term.to_string (Term.str "a b"))

(* qcheck: generator for ground terms *)
let rec gen_term depth =
  let open QCheck.Gen in
  if depth = 0 then
    oneof
      [
        map Term.int small_signed_int;
        map Term.atom (oneofl [ "a"; "b"; "c" ]);
        map (fun f -> Term.float f) (float_bound_inclusive 100.0);
      ]
  else
    frequency
      [
        (2, gen_term 0);
        ( 1,
          map2
            (fun name args -> Term.app name args)
            (oneofl [ "f"; "g" ])
            (list_size (int_range 1 3) (gen_term (depth - 1))) );
      ]

let arb_term = QCheck.make ~print:Term.to_string (gen_term 3)

let prop_compare_total =
  QCheck.Test.make ~name:"compare is a total order (antisymmetry)" ~count:200
    (QCheck.pair arb_term arb_term)
    (fun (a, b) ->
      let c1 = Term.compare a b and c2 = Term.compare b a in
      (c1 = 0) = (c2 = 0) && (c1 > 0) = (c2 < 0))

let prop_compare_equal_consistent =
  QCheck.Test.make ~name:"equal terms compare 0" ~count:200 arb_term (fun t ->
      Term.compare t t = 0 && Term.equal t t)

let prop_list_roundtrip =
  QCheck.Test.make ~name:"list/as_list roundtrip" ~count:200
    (QCheck.list_of_size (QCheck.Gen.int_range 0 8) arb_term)
    (fun l ->
      match Term.as_list (Term.list l) with
      | Some l' -> List.length l = List.length l' && List.for_all2 Term.equal l l'
      | None -> false)

(* A structurally equal deep copy sharing no nodes with the original —
   the adversarial input for hash consistency and hash-consing, since
   the physical-equality fast paths can never fire on it. *)
let rec clone (t : Term.t) =
  match t with
  | Term.Var _ | Term.Atom _ | Term.Int _ | Term.Float _ -> t
  | Term.Str s -> Term.Str (String.init (String.length s) (String.get s))
  | Term.App (f, args) ->
      Term.App (String.init (String.length f) (String.get f), List.map clone args)

let prop_hash_consistent =
  QCheck.Test.make ~name:"compare a b = 0 implies hash a = hash b" ~count:500
    (QCheck.pair arb_term arb_term)
    (fun (a, b) ->
      (Term.compare a b <> 0 || Term.hash a = Term.hash b)
      && Term.hash a = Term.hash (clone a))

let tests =
  [
    Alcotest.test_case "app identifies atoms" `Quick test_app_identifies_atoms;
    Alcotest.test_case "fresh vars distinct" `Quick test_fresh_vars_distinct;
    Alcotest.test_case "structural equality" `Quick test_equal_structural;
    Alcotest.test_case "int/float distinct" `Quick test_int_float_not_equal;
    Alcotest.test_case "is_ground" `Quick test_is_ground;
    Alcotest.test_case "vars order and dedup" `Quick test_vars_order_dedup;
    Alcotest.test_case "functor_of" `Quick test_functor_of;
    Alcotest.test_case "list roundtrip" `Quick test_list_roundtrip;
    Alcotest.test_case "improper list" `Quick test_as_list_improper;
    Alcotest.test_case "standard order of terms" `Quick test_standard_order;
    Alcotest.test_case "compound comparison" `Quick test_compare_compound;
    Alcotest.test_case "rename is consistent" `Quick test_rename_consistent;
    Alcotest.test_case "pretty printing" `Quick test_pp;
    Alcotest.test_case "string printing" `Quick test_pp_string_escapes;
    QCheck_alcotest.to_alcotest prop_compare_total;
    QCheck_alcotest.to_alcotest prop_compare_equal_consistent;
    QCheck_alcotest.to_alcotest prop_list_roundtrip;
    QCheck_alcotest.to_alcotest prop_hash_consistent;
  ]
