open Gdp_logic
open Gdp_core

let a = Term.atom
let pt = Gdp_space.Point.make

let test_make_defaults () =
  let f = Gfact.make "road" ~objects:[ a "s1" ] in
  Alcotest.(check bool) "no model" true (f.Gfact.model = None);
  Alcotest.(check bool) "space independent" true (f.Gfact.space = Gfact.S_everywhere);
  Alcotest.(check bool) "time independent" true (f.Gfact.time = Gfact.T_always);
  Alcotest.(check bool) "ground" true (Gfact.is_ground f);
  Alcotest.(check bool) "pattern with var not ground" false
    (Gfact.is_ground (Gfact.make "road" ~objects:[ Term.var "X" ]))

let test_pos_roundtrip () =
  let p = pt 3.5 (-2.0) in
  Alcotest.(check bool) "2d roundtrip" true
    (Gfact.pos_of_term (Gfact.pos_term p) = Some p);
  let p3 = Gdp_space.Point.make ~z:7.0 1.0 2.0 in
  Alcotest.(check bool) "3d roundtrip" true
    (Gfact.pos_of_term (Gfact.pos_term p3) = Some p3);
  Alcotest.(check bool) "ints accepted" true
    (Gfact.pos_of_term (Term.app "pos" [ Term.int 1; Term.int 2 ]) = Some (pt 1.0 2.0));
  Alcotest.(check bool) "malformed rejected" true
    (Gfact.pos_of_term (Term.app "pos" [ Term.atom "x"; Term.int 2 ]) = None);
  Alcotest.(check bool) "non-pos rejected" true
    (Gfact.pos_of_term (Term.atom "here") = None)

let test_interval_roundtrip () =
  let iv = Gdp_temporal.Interval.closed 1970.0 1980.0 in
  Alcotest.(check bool) "closed roundtrip" true
    (Gfact.interval_of_term (Gfact.interval_term iv) = Some iv);
  let half = Gdp_temporal.Interval.right_open 0.0 10.0 in
  Alcotest.(check bool) "half-open roundtrip" true
    (Gfact.interval_of_term (Gfact.interval_term half) = Some half);
  let unbounded = Gdp_temporal.Interval.from 5.0 in
  Alcotest.(check bool) "unbounded roundtrip" true
    (Gfact.interval_of_term (Gfact.interval_term unbounded) = Some unbounded)

let test_interval_now () =
  let clock = Gdp_temporal.Clock.create ~now:100.0 () in
  let t =
    Term.app "iv"
      [
        Term.app "incl" [ Term.app "-" [ a "now"; Term.float 5.0 ] ];
        Term.app "incl" [ Term.app "+" [ a "now"; Term.float 5.0 ] ];
      ]
  in
  (match Gfact.interval_of_term ~clock t with
  | Some iv ->
      Alcotest.(check bool) "now-5 member" true (Gdp_temporal.Interval.mem 95.0 iv);
      Alcotest.(check bool) "now+6 not member" false
        (Gdp_temporal.Interval.mem 106.0 iv)
  | None -> Alcotest.fail "now interval should resolve");
  Alcotest.(check bool) "now without clock fails" true
    (Gfact.interval_of_term t = None);
  let plain_now = Term.app "iv" [ Term.app "incl" [ a "now" ]; a "inf" ] in
  match Gfact.interval_of_term ~clock plain_now with
  | Some iv -> Alcotest.(check bool) "bare now" true (Gdp_temporal.Interval.mem 100.0 iv)
  | None -> Alcotest.fail "bare now should resolve"

let test_holds_roundtrip () =
  let f =
    {
      Gfact.model = Some (a "celsius");
      pred = a "freezing_point";
      values = [ Term.int 0 ];
      objects = [ a "x" ];
      space = Gfact.S_at (Gfact.pos_term (pt 1.0 2.0));
      time = Gfact.T_at (Term.float 1990.0);
    }
  in
  let h = Gfact.to_holds ~default_model:"w" f in
  (match Gfact.of_holds h with
  | Some f' ->
      Alcotest.(check bool) "model" true (f'.Gfact.model = Some (a "celsius"));
      Alcotest.(check bool) "pred" true (Term.equal f'.Gfact.pred (a "freezing_point"));
      Alcotest.(check bool) "space" true
        (match f'.Gfact.space with Gfact.S_at _ -> true | _ -> false);
      Alcotest.(check bool) "time" true
        (match f'.Gfact.time with Gfact.T_at _ -> true | _ -> false)
  | None -> Alcotest.fail "of_holds failed");
  Alcotest.(check bool) "non-holds rejected" true (Gfact.of_holds (a "x") = None)

let test_default_model_applied () =
  let f = Gfact.make "road" ~objects:[ a "s1" ] in
  match Gfact.to_holds ~default_model:"w" f with
  | Term.App ("holds", [ Term.Atom "w"; _; _; _; _; _ ]) -> ()
  | t -> Alcotest.failf "unexpected: %s" (Term.to_string t)

let test_qualifier_encoding () =
  let u = Gfact.S_uniform (a "r1", Gfact.pos_term (pt 1.0 1.0)) in
  Alcotest.(check string) "uniform encodes as u/2" "u(r1, pos(1.0, 1.0))"
    (Term.to_string (Gfact.spatial_term u));
  Alcotest.(check bool) "decode roundtrip" true
    (match Gfact.spatial_of_term (Gfact.spatial_term u) with
    | Gfact.S_uniform _ -> true
    | _ -> false);
  let ts = Gfact.T_sampled (Gfact.interval_term (Gdp_temporal.Interval.closed 0.0 1.0)) in
  Alcotest.(check bool) "temporal sampled roundtrip" true
    (match Gfact.temporal_of_term (Gfact.temporal_term ts) with
    | Gfact.T_sampled _ -> true
    | _ -> false);
  (* variables decode as qualifier variables *)
  Alcotest.(check bool) "var decodes S_var" true
    (match Gfact.spatial_of_term (Term.var "S") with Gfact.S_var _ -> true | _ -> false)

let test_acc_terms () =
  let f = Gfact.make "clear" ~objects:[ a "img" ] in
  (match Gfact.to_acc ~default_model:"w" f (Term.float 0.9) with
  | Term.App ("acc", [ _; _; _; _; _; _; Term.Float 0.9 ]) -> ()
  | t -> Alcotest.failf "unexpected acc: %s" (Term.to_string t));
  match Gfact.to_acc_max ~default_model:"w" f (Term.var "A") with
  | Term.App ("acc_max", [ _; _; _; _; _; _; Term.Var _ ]) -> ()
  | t -> Alcotest.failf "unexpected acc_max: %s" (Term.to_string t)

let test_vars () =
  let f =
    Gfact.make "p" ~values:[ Term.var "V" ] ~objects:[ Term.var "X"; a "o" ]
      ~space:(Gfact.S_at (Term.var "P"))
  in
  Alcotest.(check int) "three vars" 3 (List.length (Gfact.vars f))

let test_pp () =
  let f =
    Gfact.make "vegetation" ~values:[ a "pine" ] ~objects:[ a "hill" ]
      ~space:(Gfact.S_at (Gfact.pos_term (pt 3.0 4.0)))
  in
  let s = Format.asprintf "%a" Gfact.pp f in
  Alcotest.(check string) "paper-like rendering" "vegetation{pine}(hill) @pos(3.0, 4.0)" s

let tests =
  [
    Alcotest.test_case "make defaults" `Quick test_make_defaults;
    Alcotest.test_case "position roundtrip" `Quick test_pos_roundtrip;
    Alcotest.test_case "interval roundtrip" `Quick test_interval_roundtrip;
    Alcotest.test_case "now resolution" `Quick test_interval_now;
    Alcotest.test_case "holds roundtrip" `Quick test_holds_roundtrip;
    Alcotest.test_case "default model" `Quick test_default_model_applied;
    Alcotest.test_case "qualifier encoding" `Quick test_qualifier_encoding;
    Alcotest.test_case "accuracy terms" `Quick test_acc_terms;
    Alcotest.test_case "pattern variables" `Quick test_vars;
    Alcotest.test_case "pretty printing" `Quick test_pp;
  ]
