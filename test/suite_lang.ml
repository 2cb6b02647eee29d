open Gdp_core
module Lexer = Gdp_lang.Lexer
module Parser = Gdp_lang.Parser
module Elaborate = Gdp_lang.Elaborate
module Ast = Gdp_lang.Ast

let pat s = Elaborate.fact_to_pattern (Parser.fact s)

(* ---------- lexer ---------- *)

let test_lexer_tokens () =
  let toks = Lexer.tokens "road(s1) @ 3.5 // comment\n & %" in
  let kinds =
    List.map
      (fun t ->
        match t.Lexer.token with
        | Lexer.Ident s -> "i:" ^ s
        | Lexer.Var s -> "v:" ^ s
        | Lexer.Int n -> "n:" ^ string_of_int n
        | Lexer.Float f -> Printf.sprintf "f:%g" f
        | Lexer.Str s -> "s:" ^ s
        | Lexer.Punct p -> "p:" ^ p
        | Lexer.Raw _ -> "raw"
        | Lexer.Eof -> "eof")
      toks
  in
  Alcotest.(check (list string)) "token stream"
    [ "i:road"; "p:("; "i:s1"; "p:)"; "p:@"; "f:3.5"; "p:&"; "p:%"; "eof" ]
    kinds

let test_lexer_operators () =
  let toks = Lexer.tokens "<- => \\== =< X" in
  let ops =
    List.filter_map
      (fun t -> match t.Lexer.token with Lexer.Punct p -> Some p | _ -> None)
      toks
  in
  Alcotest.(check (list string)) "multi-char ops" [ "<-"; "=>"; "\\=="; "=<" ] ops

let test_lexer_comments_nested () =
  let toks = Lexer.tokens "a /* x /* y */ z */ b" in
  Alcotest.(check int) "two idents + eof" 3 (List.length toks)

let test_lexer_raw_block () =
  let toks =
    Lexer.tokens ~raw_after:[ "metamodel" ] "metamodel foo { p(X) :- q(X). } fact r(a)."
  in
  Alcotest.(check bool) "raw captured" true
    (List.exists
       (fun t ->
         match t.Lexer.token with
         | Lexer.Raw s -> String.trim s = "p(X) :- q(X)."
         | _ -> false)
       toks)

let test_lexer_positions () =
  match Lexer.tokens "a\n  b" with
  | [ _; b; _ ] ->
      Alcotest.(check int) "line" 2 b.Lexer.line;
      Alcotest.(check int) "col" 3 b.Lexer.col
  | _ -> Alcotest.fail "expected three tokens"

(* ---------- parser ---------- *)

let test_parse_fact_forms () =
  let f = Parser.fact "road(s1)" in
  Alcotest.(check string) "pred" "road" f.Ast.fa_pred;
  Alcotest.(check int) "objects only" 1 (List.length f.Ast.fa_objects);
  Alcotest.(check int) "no values" 0 (List.length f.Ast.fa_values);
  let f2 = Parser.fact "average_temperature(45)(saint_louis)" in
  Alcotest.(check int) "values group" 1 (List.length f2.Ast.fa_values);
  Alcotest.(check int) "objects group" 1 (List.length f2.Ast.fa_objects);
  let f3 = Parser.fact "celsius'freezing_point(0)(x)" in
  Alcotest.(check (option string)) "model prefix" (Some "celsius") f3.Ast.fa_model

let test_parse_spatial_qualifiers () =
  (match (Parser.fact "@(3.5, 0.5) vegetation(pine)(hill)").Ast.fa_space with
  | Ast.Sq_at [ Ast.E_float 3.5; Ast.E_float 0.5 ] -> ()
  | _ -> Alcotest.fail "at qualifier");
  (match (Parser.fact "@u[r1](1, 2) veg(pine)(land)").Ast.fa_space with
  | Ast.Sq_uniform ("r1", [ Ast.E_int 1; Ast.E_int 2 ]) -> ()
  | _ -> Alcotest.fail "uniform qualifier");
  (match (Parser.fact "@s[r2]P road(x)").Ast.fa_space with
  | Ast.Sq_sampled ("r2", [ Ast.E_var "P" ]) -> ()
  | _ -> Alcotest.fail "sampled with variable");
  match (Parser.fact "@P q(x)").Ast.fa_space with
  | Ast.Sq_at [ Ast.E_var "P" ] -> ()
  | _ -> Alcotest.fail "bare variable position"

let test_parse_temporal_qualifiers () =
  (match (Parser.fact "&1975 open(b)").Ast.fa_time with
  | Ast.Tq_at (Ast.E_float 1975.0) -> ()
  | _ -> Alcotest.fail "instant");
  (match (Parser.fact "&now open(b)").Ast.fa_time with
  | Ast.Tq_at (Ast.E_atom "now") -> ()
  | _ -> Alcotest.fail "now");
  (match (Parser.fact "&u[1970, 1980] open(b)").Ast.fa_time with
  | Ast.Tq_uniform { lower = Ast.B_num 1970.0; lower_closed = true;
                     upper = Ast.B_num 1980.0; upper_closed = true } -> ()
  | _ -> Alcotest.fail "closed interval");
  (match (Parser.fact "&u(1970, 1980] open(b)").Ast.fa_time with
  | Ast.Tq_uniform { lower_closed = false; upper_closed = true; _ } -> ()
  | _ -> Alcotest.fail "left-open interval");
  (match (Parser.fact "&u[now - 5, now + 5] open(b)").Ast.fa_time with
  | Ast.Tq_uniform { lower = Ast.B_now (-5.0); upper = Ast.B_now 5.0; _ } -> ()
  | _ -> Alcotest.fail "now offsets");
  match (Parser.fact "&s[inf, 0] old(b)").Ast.fa_time with
  | Ast.Tq_sampled { lower = Ast.B_inf; _ } -> ()
  | _ -> Alcotest.fail "inf bound"

let test_parse_rule_body () =
  match Parser.body "road(X), forall(bridge(Y, X) => open(Y))" with
  | Ast.B_and (Ast.B_atom _, Ast.B_forall (_, _)) -> ()
  | _ -> Alcotest.fail "body shape"

let test_parse_body_operators () =
  (match Parser.body "open(X) ; closed(X)" with
  | Ast.B_or _ -> ()
  | _ -> Alcotest.fail "or");
  (match Parser.body "not open(X)" with
  | Ast.B_not (Ast.B_atom _) -> ()
  | _ -> Alcotest.fail "not");
  (match Parser.body "X > 5" with
  | Ast.B_test (Ast.E_app (">", _)) -> ()
  | _ -> Alcotest.fail "comparison test");
  (match Parser.body "A is 1 - N / N0" with
  | Ast.B_test (Ast.E_app ("is", [ Ast.E_var "A"; Ast.E_app ("-", _) ])) -> ()
  | _ -> Alcotest.fail "is with arithmetic");
  (match Parser.body "test region_reps(r1, world, P)" with
  | Ast.B_test (Ast.E_app ("region_reps", _)) -> ()
  | _ -> Alcotest.fail "test keyword");
  match Parser.body "%[A] clear(img), A > 0.8" with
  | Ast.B_and (Ast.B_acc (_, Ast.E_var "A"), Ast.B_test _) -> ()
  | _ -> Alcotest.fail "accuracy atom"

let test_parse_errors_with_position () =
  let fails src =
    match Parser.program src with
    | exception Parser.Error msg -> Some msg
    | _ -> None
  in
  (match fails "fact road(s1)" (* missing dot *) with
  | Some msg -> Alcotest.(check bool) "mentions expectation" true
      (String.length msg > 3)
  | None -> Alcotest.fail "missing dot accepted");
  Alcotest.(check bool) "unknown keyword" true (fails "frobnicate x." <> None);
  Alcotest.(check bool) "bad domain" true (fails "domain d = foo." <> None)

(* ---------- elaboration ---------- *)

let test_elaborate_declarations () =
  let result =
    Elaborate.load_string
      {|
      coordinate geographic.
      clock 1990.
      fuzzy product.
      domain veg = { pine, oak }.
      objects a, b.
      predicate cover{veg}(1).
      space r1 = grid(4.0).
      space r2 = grid(1.0, 2.0) origin (0.5, 0.5).
      timespace years = line(1.0).
      region world = rect(0, 0, 10, 10).
      region lake = circle(5, 5, 2).
      region tri = polygon((0, 0), (4, 0), (0, 4)).
      model extra.
      |}
  in
  let spec = result.Elaborate.spec in
  Alcotest.(check bool) "coordinate" true (spec.Spec.coord = Gdp_space.Coord.Geographic);
  Alcotest.(check (float 1e-9)) "clock" 1990.0 (Gdp_temporal.Clock.now spec.Spec.clock);
  Alcotest.(check bool) "fuzzy family" true
    (spec.Spec.fuzzy_family = Gdp_fuzzy.Algebra.Product);
  Alcotest.(check bool) "domain declared" true
    (Gdp_domain.Semantic_domain.Registry.find spec.Spec.domains "veg" <> None);
  Alcotest.(check int) "objects" 2 (List.length spec.Spec.objects);
  Alcotest.(check bool) "anisotropic space" true
    (match Spec.find_space spec "r2" with
    | Some r -> r.Gdp_space.Resolution.dx = 1.0 && r.Gdp_space.Resolution.dy = 2.0
    | None -> false);
  Alcotest.(check bool) "tspace" true (Spec.find_tspace spec "years" <> None);
  Alcotest.(check int) "regions" 3 (List.length spec.Spec.regions);
  Alcotest.(check (list string)) "models" [ "w"; "extra" ] (Spec.model_names spec)

let test_elaborate_full_example () =
  let result =
    Elaborate.load_string
      {|
      objects s1, b1, b2.
      fact road(s1).
      fact bridge(b1, s1).
      fact bridge(b2, s1).
      fact open(b1).
      rule open_road(X) <- road(X), forall(bridge(Y, X) => open(Y)).
      rule closed(X) <- bridge(X, _), not open(X).
      constraint clash(X) <- open(X), closed(X).
      |}
  in
  let q = Elaborate.query result () in
  Alcotest.(check bool) "closed derived" true (Query.holds q (pat "closed(b2)"));
  Alcotest.(check bool) "road not open" false (Query.holds q (pat "open_road(s1)"));
  Alcotest.(check bool) "consistent" true (Query.consistent q)

let test_elaborate_model_blocks () =
  let result =
    Elaborate.load_string
      {|
      objects x.
      model celsius.
      in celsius {
        fact freezing_point(0)(x).
      }
      fact freezing_point(32)(x).
      |}
  in
  let q = Elaborate.query result () in
  Alcotest.(check bool) "celsius fact" true
    (Query.holds q (pat "celsius'freezing_point(0)(x)"));
  Alcotest.(check bool) "default model fact" true
    (Query.holds q (pat "freezing_point(32)(x)"));
  Alcotest.(check bool) "no cross-talk" false
    (Query.holds q (pat "celsius'freezing_point(32)(x)"))

let test_elaborate_acc_and_views () =
  let result =
    Elaborate.load_string
      {|
      objects img.
      acc 0.9 clear(img).
      model trusted.
      use fuzzy_unified_max.
      view strict = models { w } meta { fuzzy_unified_max }.
      |}
  in
  Alcotest.(check (list string)) "uses" [ "fuzzy_unified_max" ] result.Elaborate.uses;
  let q = Elaborate.query result ~view:"strict" () in
  Alcotest.(check (option (float 1e-9))) "accuracy via view" (Some 0.9)
    (Query.accuracy q (pat "clear(img)"));
  Alcotest.(check bool) "unknown view" true
    (try
       ignore (Elaborate.query result ~view:"nope" ());
       false
     with Elaborate.Error _ -> true)

let test_elaborate_metamodel_block () =
  let result =
    Elaborate.load_string
      {|
      objects x.
      fact repaired(x).
      metamodel optimism {
        holds(M, open, [], [X], S, T) :- holds(M, repaired, [], [X], S, T).
      }
      |}
  in
  let q = Elaborate.query result ~metas:[ "optimism" ] () in
  Alcotest.(check bool) "user meta-model applies" true (Query.holds q (pat "open(x)"));
  let q0 = Elaborate.query result ~metas:[] () in
  Alcotest.(check bool) "inactive without activation" false
    (Query.holds q0 (pat "open(x)"))

let test_elaborate_spatial_temporal_facts () =
  let result =
    Elaborate.load_string
      {|
      objects land, b.
      space r1 = grid(4.0).
      fact @u[r1](1, 1) wet(land).
      fact &u[1970, 1980] open(b).
      use spatial_uniform, temporal_uniform.
      |}
  in
  let q = Elaborate.query result () in
  Alcotest.(check bool) "spatial DSL fact" true
    (Query.holds q (pat "@(3.0, 3.0) wet(land)"));
  Alcotest.(check bool) "temporal DSL fact" true (Query.holds q (pat "&1975 open(b)"));
  Alcotest.(check bool) "outside patch" false
    (Query.holds q (pat "@(5.0, 3.0) wet(land)"))

let test_resolution_temporal_form () =
  (* &u[years] 1975 qualifies the fact over the whole logical-time cell *)
  let result =
    Elaborate.load_string
      {|
      objects b.
      timespace years = line(1.0).
      timespace decades = line(10.0).
      fact &u[decades] 1975 open(b).
      use temporal_uniform.
      |}
  in
  let q = Elaborate.query result () in
  Alcotest.(check bool) "same decade" true (Query.holds q (pat "&1972 open(b)"));
  Alcotest.(check bool) "next decade" false (Query.holds q (pat "&1981 open(b)"));
  (* subinterval inheritance across the forms *)
  Alcotest.(check bool) "explicit subinterval of the cell" true
    (Query.holds q (pat "&u[1972, 1978] open(b)"));
  (* resolution-form QUERY against an interval fact *)
  let result2 =
    Elaborate.load_string
      {|
      objects b.
      timespace years = line(1.0).
      fact &u[1970, 1980] open(b).
      use temporal_uniform.
      |}
  in
  let q2 = Elaborate.query result2 () in
  Alcotest.(check bool) "resolution-form query" true
    (Query.holds q2 (pat "&u[years] 1975.5 open(b)"))

let test_elaborate_accuracy_rule () =
  let result =
    Elaborate.load_string
      {|
      objects sensor.
      fact reading(10)(sensor).
      rule %A trusted_reading(V)(S) <- reading(V)(S), A is 1 / V.
      use fuzzy_unified_max.
      |}
  in
  let q = Elaborate.query result () in
  Alcotest.(check (option (float 1e-9))) "accuracy rule through DSL" (Some 0.1)
    (Query.accuracy q (pat "trusted_reading(V)(sensor)"))

let test_elaborate_error_reporting () =
  let fails src =
    match Elaborate.load_string src with
    | exception Elaborate.Error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "non-ground fact" true (fails "fact road(X).");
  Alcotest.(check bool) "unknown model" true (fails "fact nowhere'road(s).");
  Alcotest.(check bool) "unsafe rule" true (fails "objects s. rule p(X) <- q(Y).");
  Alcotest.(check bool) "duplicate object" true (fails "objects a, a.");
  Alcotest.(check bool) "utm without zone" true (fails "coordinate utm.");
  Alcotest.(check bool) "bad acc range" true (fails "objects i. acc 1.5 clear(i).")

let test_body_to_formula_shared_scope () =
  (* variables with equal names must unify across the whole rule *)
  let result =
    Elaborate.load_string
      {|
      objects a1, a2.
      fact p(a1).
      fact q(a1).
      fact q(a2).
      rule both(X) <- p(X), q(X).
      |}
  in
  let q = Elaborate.query result () in
  Alcotest.(check bool) "a1 satisfies both" true (Query.holds q (pat "both(a1)"));
  Alcotest.(check bool) "a2 lacks p" false (Query.holds q (pat "both(a2)"))

(* ---------- lexer oracle ---------- *)

(* Random token sequences, rendered with random layout. The oracle knows
   where each token starts, so [Lexer.tokens] must give back exactly the
   tokens at those positions. Adjacent tokens are glued (no layout
   between them) whenever that cannot change how they lex: this pins
   longest-match on the operators next to punctuation ([=<-], [(-],
   [\==], [=\=]), negative numbers ([-5]) and [2e] as Int then Ident. *)

let single_puncts =
  [ "("; ")"; "["; "]"; "{"; "}"; ","; "."; ";"; ":"; "'"; "@"; "&"; "%"; "+"; "-";
    "*"; "/"; "|" ]

let gen_word first =
  let open QCheck.Gen in
  let rest = oneofl (String.to_seq "abcxyzABEXZ019_" |> List.of_seq) in
  map2
    (fun c cs -> String.make 1 c ^ String.of_seq (List.to_seq cs))
    first (list_size (int_bound 5) rest)

(* a token and its spelling *)
let gen_token =
  let open QCheck.Gen in
  let digits n = map (fun ds -> String.concat "" (List.map string_of_int ds))
      (list_size (int_range 1 n) (int_bound 9)) in
  let float_spelling =
    let exponent =
      map3 (fun e sign d -> e ^ sign ^ d) (oneofl [ "e"; "E" ]) (oneofl [ ""; "+"; "-" ]) (digits 2)
    in
    oneof
      [
        map3 (fun i f e -> i ^ "." ^ f ^ e) (digits 3) (digits 3) (oneof [ return ""; exponent ]);
        map2 (fun i e -> i ^ e) (digits 3) exponent;
      ]
  in
  let str_content = list_size (int_bound 6) (oneofl [ 'a'; 'b'; ' '; '"'; '\\'; '\n'; '{' ]) in
  let render_str cs =
    map
      (fun escape_nl ->
        let b = Buffer.create 16 in
        Buffer.add_char b '"';
        List.iter
          (function
            | '"' -> Buffer.add_string b "\\\""
            | '\\' -> Buffer.add_string b "\\\\"
            | '\n' when escape_nl -> Buffer.add_string b "\\n"
            | c -> Buffer.add_char b c)
          cs;
        Buffer.add_char b '"';
        (Lexer.Str (String.of_seq (List.to_seq cs)), Buffer.contents b))
      bool
  in
  frequency
    [
      (3, map (fun w -> (Lexer.Ident w, w)) (gen_word (char_range 'a' 'z')));
      (2, map (fun w -> (Lexer.Var w, w)) (gen_word (oneofl [ 'A'; 'E'; 'Z'; '_' ])));
      ( 2,
        map (fun n -> (Lexer.Int n, string_of_int n))
          (oneof [ int_bound 1000; map abs int; return max_int ]) );
      (2, map (fun f -> (Lexer.Float (float_of_string f), f)) float_spelling);
      (1, str_content >>= render_str);
      (3, map (fun p -> (Lexer.Punct p, p)) (oneofl single_puncts));
      (3, map (fun p -> (Lexer.Punct p, p)) (oneofl Lexer.operators));
    ]

let is_word_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

let is_number = function Lexer.Int _ | Lexer.Float _ -> true | _ -> false

(* Could gluing [next] onto [prev] change how they lex? [glued_number]:
   [prev] itself is glued onto a number, so an exponent may be forming. *)
let needs_layout ~glued_number (prev, ps) (_, ns) =
  let n0 = ns.[0] in
  let n1 = if String.length ns > 1 then Some ns.[1] else None in
  let starts_exponent =
    (n0 = 'e' || n0 = 'E')
    && match n1 with Some ('0' .. '9') -> true | _ -> false
  in
  match prev with
  | Lexer.Ident _ | Lexer.Var _ ->
      is_word_char n0
      || (glued_number && (ps = "e" || ps = "E") && (n0 = '+' || n0 = '-'))
  | Lexer.Int _ | Lexer.Float _ ->
      (n0 >= '0' && n0 <= '9') || starts_exponent || n0 = '.'
  | Lexer.Punct "/" -> n0 = '/' || n0 = '*'
  | Lexer.Punct p ->
      List.exists
        (fun op ->
          String.length op > String.length p
          && String.starts_with ~prefix:p op
          && op.[String.length p] = n0)
        Lexer.operators
  | _ -> false

let gen_layout =
  let open QCheck.Gen in
  let text = map (fun cs -> String.of_seq (List.to_seq cs))
      (list_size (int_bound 5) (oneofl [ 'a'; ' '; '*'; '/' ; '-' ])) in
  let rec block depth =
    if depth = 0 then map (fun t -> "/*" ^ t ^ "*/") (oneofl [ ""; "x"; " y\nz " ])
    else
      map3 (fun a inner b -> "/*" ^ a ^ inner ^ b ^ "*/")
        (oneofl [ ""; "p"; "\n" ]) (block (depth - 1)) (oneofl [ ""; " q"; "\n\n" ])
  in
  let piece =
    frequency
      [
        (4, oneofl [ " "; "\t"; "\n"; "\r\n"; "  " ]);
        (1, map (fun t -> "//" ^ String.map (fun c -> if c = '/' then ' ' else c) t ^ "\n") text);
        (1, int_bound 2 >>= block);
      ]
  in
  map (String.concat "") (list_size (int_bound 3) piece)

(* the source, and the expected tokens (Eof included) with positions *)
let gen_lexed =
  let open QCheck.Gen in
  list_size (int_bound 25) (pair gen_token gen_layout) >>= fun items ->
  list_repeat (List.length items) bool >>= fun glue ->
  gen_layout >|= fun lead ->
  let buf = Buffer.create 256 in
  let line = ref 1 and col = ref 1 in
  let emit s =
    String.iter
      (fun c ->
        if c = '\n' then begin
          incr line;
          col := 1
        end
        else incr col)
      s;
    Buffer.add_string buf s
  in
  emit lead;
  let expected = ref [] in
  let rec go prev glued_number = function
    | [] -> ()
    | (((tok, spelling) as cur), layout) :: rest ->
        let want_glue = List.nth glue (List.length !expected) in
        let glue =
          match prev with
          | None -> true
          | Some p -> want_glue && not (needs_layout ~glued_number p cur)
        in
        (match prev with
        | Some (Lexer.Punct "/", _) when not glue -> emit " "
        | _ -> ());
        if not glue then emit (if layout = "" then " " else layout);
        expected := { Lexer.token = tok; line = !line; col = !col } :: !expected;
        emit spelling;
        let glued_number =
          glue && match prev with Some (p, _) -> is_number p | None -> false
        in
        go (Some cur) glued_number rest
  in
  go None false items;
  (match items with
  | [] -> ()
  | _ -> emit (if List.length items mod 2 = 0 then "" else "\n"));
  let eof = { Lexer.token = Lexer.Eof; line = !line; col = !col } in
  (Buffer.contents buf, List.rev (eof :: !expected))

let pp_lexed t =
  Printf.sprintf "%d:%d %s" t.Lexer.line t.Lexer.col
    (match t.Lexer.token with
    | Lexer.Ident s -> "Ident " ^ s
    | Lexer.Var s -> "Var " ^ s
    | Lexer.Int n -> "Int " ^ string_of_int n
    | Lexer.Float f -> Printf.sprintf "Float %h" f
    | Lexer.Str s -> Printf.sprintf "Str %S" s
    | Lexer.Punct p -> "Punct " ^ p
    | Lexer.Raw s -> Printf.sprintf "Raw %S" s
    | Lexer.Eof -> "Eof")

let prop_lexer_oracle =
  QCheck.Test.make ~name:"lexer returns the rendered tokens at their positions"
    ~count:1000
    (QCheck.make gen_lexed ~print:(fun (src, _) -> Printf.sprintf "%S" src))
    (fun (src, expected) ->
      let got = Lexer.tokens src in
      got = expected
      || QCheck.Test.fail_reportf "expected:\n%s\ngot:\n%s"
           (String.concat "\n" (List.map pp_lexed expected))
           (String.concat "\n" (List.map pp_lexed got)))

(* ---------- front-end mutation fuzz ---------- *)

(* Byte mutations of real specifications: every mutant either loads or
   is rejected with [Parser.Error] / [Elaborate.Error]; any other
   exception (Failure, Not_found, Invalid_argument, Stack_overflow)
   escaping the front end fails the property. *)

type mutation =
  | Flip of int * int  (** position, xor mask *)
  | Insert of int * char
  | Delete of int * int  (** position, length *)
  | Duplicate of int * int * int  (** position, length, extra copies *)

let pp_mutation = function
  | Flip (i, x) -> Printf.sprintf "flip %d ^ %d" i x
  | Insert (i, c) -> Printf.sprintf "insert %d %C" i c
  | Delete (i, n) -> Printf.sprintf "delete %d (%d)" i n
  | Duplicate (i, n, k) -> Printf.sprintf "duplicate %d (%d) x%d" i n k

let mutate src muts =
  List.fold_left
    (fun s m ->
      let len = String.length s in
      if len = 0 then s
      else
        let at k = k mod len in
        match m with
        | Flip (i, x) ->
            let b = Bytes.of_string s and i = at i in
            Bytes.set b i (Char.chr (Char.code s.[i] lxor (1 + (x mod 255))));
            Bytes.to_string b
        | Insert (i, c) ->
            let i = at i in
            String.sub s 0 i ^ String.make 1 c ^ String.sub s i (len - i)
        | Delete (i, n) ->
            let i = at i in
            let n = min (1 + (n mod 16)) (len - i) in
            String.sub s 0 i ^ String.sub s (i + n) (len - i - n)
        | Duplicate (i, n, k) ->
            (* the slice is repeated in place, so a digit run grows into
               a literal too large for an int and a bracket into deep
               nesting *)
            let i = at i in
            let n = min (1 + (n mod 16)) (len - i) in
            let slice = String.sub s i n in
            String.sub s 0 i
            ^ String.concat "" (List.init (2 + (k mod 12)) (fun _ -> slice))
            ^ String.sub s (i + n) (len - i - n))
    src muts

let gen_mutations =
  let open QCheck.Gen in
  let n = int_bound 1_000_000 in
  list_size (int_range 1 4)
    (frequency
       [
         (1, map2 (fun i x -> Flip (i, x)) n n);
         ( 1,
           map2
             (fun i c -> Insert (i, c))
             n
             (oneof
                [ oneofl (String.to_seq "(){}[].,;:'\"@&%-+*/=<>\\_9eE\n" |> List.of_seq); char ])
         );
         (1, map2 (fun i k -> Delete (i, k)) n n);
         (3, map3 (fun i k j -> Duplicate (i, k, j)) n n n);
       ])

let fuzz_sources =
  lazy
    (let read path =
       (* [dune test] runs in [_build/default/test]; a direct run of the
          executable from the repository root finds the same files *)
       let path = if Sys.file_exists path then path else Filename.concat "test" path in
       In_channel.with_open_bin path In_channel.input_all
     in
     let census =
       let rng = Gdp_workload.Rng.create 5L in
       let c =
         Gdp_workload.Census.generate rng ~n_states:5 ~cities_per_state:4
           ~capital_bug_probability:0.2 ()
       in
       let spec = Spec.create () in
       Meta.install_standard spec;
       Gdp_workload.Census.add_to_spec c spec ();
       Gdp_workload.Census.add_constraints spec ();
       Gdp_workload.Census.add_large_city_rule spec ~threshold:1_000_000 ();
       Gdp_lang.Pretty.spec_to_string spec
     in
     [|
       read "../examples/terrain_mapping.gdp";
       read "cli.t/demo.gdp";
       census;
       {|
      objects b1, s1.
      metamodel m loopcheck { p(X) :- q(X, 'a}b'). q(1, [2 | T]). }
      fact @u[r](1, 2) &c[24][8, 18] v(3.5e2)(b1).
      rule %0.5 w(X) <- %[A] v(X), A > 2, forall(u(Y) => (z(Y) ; not r(Y))).
      |};
     |])

let prop_front_end_fuzz =
  QCheck.Test.make ~name:"mutated specifications load or raise a front-end error"
    ~count:6000
    (QCheck.make
       QCheck.Gen.(pair (int_bound 3) gen_mutations)
       ~print:(fun (i, ms) ->
         Printf.sprintf "source %d: %s" i (String.concat "; " (List.map pp_mutation ms))))
    (fun (i, muts) ->
      let src = mutate (Lazy.force fuzz_sources).(i) muts in
      (match Elaborate.load_string ~base_dir:"." src with
      | exception (Parser.Error _ | Elaborate.Error _) -> ()
      | (_ : Elaborate.result) -> ());
      true)

let tests =
  [
    Alcotest.test_case "lexer: tokens" `Quick test_lexer_tokens;
    Alcotest.test_case "lexer: operators" `Quick test_lexer_operators;
    Alcotest.test_case "lexer: nested comments" `Quick test_lexer_comments_nested;
    Alcotest.test_case "lexer: raw blocks" `Quick test_lexer_raw_block;
    Alcotest.test_case "lexer: positions" `Quick test_lexer_positions;
    Alcotest.test_case "parser: fact forms" `Quick test_parse_fact_forms;
    Alcotest.test_case "parser: spatial qualifiers" `Quick test_parse_spatial_qualifiers;
    Alcotest.test_case "parser: temporal qualifiers" `Quick test_parse_temporal_qualifiers;
    Alcotest.test_case "parser: rule bodies" `Quick test_parse_rule_body;
    Alcotest.test_case "parser: body operators" `Quick test_parse_body_operators;
    Alcotest.test_case "parser: errors" `Quick test_parse_errors_with_position;
    Alcotest.test_case "elaborate: declarations" `Quick test_elaborate_declarations;
    Alcotest.test_case "elaborate: full example" `Quick test_elaborate_full_example;
    Alcotest.test_case "elaborate: model blocks" `Quick test_elaborate_model_blocks;
    Alcotest.test_case "elaborate: accuracy and views" `Quick test_elaborate_acc_and_views;
    Alcotest.test_case "elaborate: metamodel blocks" `Quick test_elaborate_metamodel_block;
    Alcotest.test_case "elaborate: qualifiers" `Quick test_elaborate_spatial_temporal_facts;
    Alcotest.test_case "elaborate: resolution temporal form" `Quick
      test_resolution_temporal_form;
    Alcotest.test_case "elaborate: accuracy rules" `Quick test_elaborate_accuracy_rule;
    Alcotest.test_case "elaborate: error reporting" `Quick test_elaborate_error_reporting;
    Alcotest.test_case "elaborate: variable scoping" `Quick test_body_to_formula_shared_scope;
    QCheck_alcotest.to_alcotest prop_lexer_oracle;
    QCheck_alcotest.to_alcotest prop_front_end_fuzz;
  ]
