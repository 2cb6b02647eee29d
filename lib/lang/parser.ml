open Ast

exception Error of string

(* Tokens are pulled from the lexer on demand into a window of the next
   [window] tokens (a power of two): [peek st k] is the token [k] places
   ahead of the current one. The deepest look is two ahead
   ([temporal_qualifier]). *)
let window = 4

type state = {
  lexer : Lexer.stream;
  ahead : Lexer.t array;  (* a ring: [first] holds the current token *)
  mutable first : int;
  mutable filled : int;
}

let peek st k =
  while st.filled <= k do
    st.ahead.((st.first + st.filled) land (window - 1)) <- Lexer.next st.lexer;
    st.filled <- st.filled + 1
  done;
  st.ahead.((st.first + k) land (window - 1))

let current st = peek st 0

let err st fmt =
  let t = current st in
  Format.kasprintf
    (fun msg -> raise (Error (Printf.sprintf "%d:%d: %s" t.Lexer.line t.Lexer.col msg)))
    fmt

let advance st =
  ignore (current st : Lexer.t);
  st.first <- (st.first + 1) land (window - 1);
  st.filled <- st.filled - 1

let token st = (current st).Lexer.token

let pos_of st =
  let t = current st in
  { line = t.Lexer.line; col = t.Lexer.col }

let at_punct st p =
  match token st with Lexer.Punct q -> String.equal p q | _ -> false

let expect_punct st p =
  match token st with
  | Lexer.Punct q when String.equal p q -> advance st
  | _ -> err st "expected '%s'" p

let expect_ident st =
  match token st with
  | Lexer.Ident name ->
      advance st;
      name
  | _ -> err st "expected an identifier"

let expect_keyword st kw =
  match token st with
  | Lexer.Ident name when String.equal name kw -> advance st
  | _ -> err st "expected '%s'" kw

let accept_punct st p =
  match token st with
  | Lexer.Punct q when String.equal p q ->
      advance st;
      true
  | _ -> false

let accept_keyword st kw =
  match token st with
  | Lexer.Ident name when String.equal name kw ->
      advance st;
      true
  | _ -> false

let number st =
  match token st with
  | Lexer.Int n ->
      advance st;
      float_of_int n
  | Lexer.Float f ->
      advance st;
      f
  | Lexer.Punct "-" -> (
      advance st;
      match token st with
      | Lexer.Int n ->
          advance st;
          -.float_of_int n
      | Lexer.Float f ->
          advance st;
          -.f
      | _ -> err st "expected a number after '-'")
  | _ -> err st "expected a number"

let integer st =
  let f = number st in
  if Float.is_integer f then int_of_float f else err st "expected an integer"

let located_ident_list st =
  let rec go acc =
    let pos = pos_of st in
    let name = expect_ident st in
    if accept_punct st "," then go ((name, pos) :: acc) else List.rev ((name, pos) :: acc)
  in
  go []

let ident_list st = List.map fst (located_ident_list st)

(* ---------- expressions ---------- *)

let rec simple_expr st =
  match token st with
  | Lexer.Int n ->
      advance st;
      E_int n
  | Lexer.Float f ->
      advance st;
      E_float f
  | Lexer.Str s ->
      advance st;
      E_str s
  | Lexer.Var v ->
      advance st;
      E_var v
  | Lexer.Punct "-" -> (
      advance st;
      match token st with
      | Lexer.Int n ->
          advance st;
          E_int (-n)
      | Lexer.Float f ->
          advance st;
          E_float (-.f)
      | _ -> err st "expected a number after '-'")
  | Lexer.Ident name ->
      advance st;
      if accept_punct st "(" then begin
        let args = expr_list st in
        expect_punct st ")";
        E_app (name, args)
      end
      else E_atom name
  | _ -> err st "expected a value"

and expr_list st = expr_list_onto st []

and expr_list_onto st acc =
  let e = arith st in
  if accept_punct st "," then expr_list_onto st (e :: acc) else List.rev (e :: acc)

(* arithmetic for tests: + - * / over simple expressions *)
and arith st = term_chain st (term st)

and term_chain st left =
  match token st with
  | Lexer.Punct (("+" | "-") as op) ->
      advance st;
      term_chain st (E_app (op, [ left; term st ]))
  | _ -> left

and term st = factor_chain st (factor st)

and factor_chain st left =
  match token st with
  | Lexer.Punct (("*" | "/") as op) ->
      advance st;
      factor_chain st (E_app (op, [ left; factor st ]))
  | _ -> left

and factor st =
  if accept_punct st "(" then begin
    let e = arith st in
    expect_punct st ")";
    e
  end
  else simple_expr st

let comparison_ops = [ ">"; "<"; ">="; "=<"; "=="; "\\=="; "="; "\\="; "=:="; "=\\=" ]

let test_expr st =
  let left = arith st in
  match token st with
  | Lexer.Punct op when List.mem op comparison_ops ->
      advance st;
      E_app (op, [ left; arith st ])
  | Lexer.Ident "is" ->
      advance st;
      E_app ("is", [ left; arith st ])
  | _ -> left

(* ---------- facts ---------- *)

let position_args st =
  (* '(' e ',' e [',' e] ')' or a variable *)
  match token st with
  | Lexer.Var v ->
      advance st;
      [ E_var v ]
  | Lexer.Punct "(" ->
      advance st;
      let args = expr_list st in
      expect_punct st ")";
      if List.length args < 2 || List.length args > 3 then
        err st "a position has two or three coordinates"
      else args
  | _ -> err st "expected a position '(x, y)' or a variable"

let spatial_qualifier st =
  (* '@' already consumed *)
  match token st with
  | Lexer.Ident (("u" | "s" | "a") as kind) when (peek st 1).Lexer.token = Lexer.Punct "[" ->
      advance st;
      expect_punct st "[";
      let space = expect_ident st in
      expect_punct st "]";
      let p = position_args st in
      (match kind with
      | "u" -> Sq_uniform (space, p)
      | "s" -> Sq_sampled (space, p)
      | _ -> Sq_averaged (space, p))
  | _ -> Sq_at (position_args st)

let interval_bound st =
  match token st with
  | Lexer.Ident "inf" ->
      advance st;
      B_inf
  | Lexer.Ident "now" ->
      advance st;
      (match token st with
      | Lexer.Punct "+" ->
          advance st;
          B_now (number st)
      | Lexer.Punct "-" ->
          advance st;
          B_now (-.number st)
      | _ -> B_now 0.0)
  | Lexer.Var v ->
      advance st;
      B_var v
  | _ -> B_num (number st)

let interval_expr st =
  let lower_closed =
    if accept_punct st "[" then true
    else if accept_punct st "(" then false
    else err st "expected '[' or '(' to open an interval"
  in
  let lower = interval_bound st in
  expect_punct st ",";
  let upper = interval_bound st in
  let upper_closed =
    if accept_punct st "]" then true
    else if accept_punct st ")" then false
    else err st "expected ']' or ')' to close an interval"
  in
  { lower; lower_closed; upper; upper_closed }

let temporal_qualifier st =
  (* '&' already consumed *)
  match token st with
  | Lexer.Ident "c" when (peek st 1).Lexer.token = Lexer.Punct "[" ->
      advance st;
      expect_punct st "[";
      let period = number st in
      expect_punct st "]";
      Tq_cyclic (period, interval_expr st)
  | Lexer.Ident (("u" | "s" | "a") as kind)
    when match (peek st 1).Lexer.token with
         | Lexer.Punct ("[" | "(") -> true
         | _ -> false -> (
      advance st;
      (* two forms: an explicit interval [t1, t2] / (t1, t2] ..., or a
         named temporal resolution [years] followed by an instant — "an
         interval definition in place of the resolution function" (§VI-B),
         in reverse *)
      match (token st, (peek st 1).Lexer.token, (peek st 2).Lexer.token) with
      | Lexer.Punct "[", Lexer.Ident _, Lexer.Punct "]" ->
          advance st;
          let tspace = expect_ident st in
          expect_punct st "]";
          let instant = number st in
          Tq_resolution (kind, tspace, instant)
      | _ -> (
          let iv = interval_expr st in
          match kind with
          | "u" -> Tq_uniform iv
          | "s" -> Tq_sampled iv
          | _ -> Tq_averaged iv))
  | Lexer.Ident "now" ->
      advance st;
      Tq_at (E_atom "now")
  | Lexer.Var v ->
      advance st;
      Tq_at (E_var v)
  | _ -> Tq_at (E_float (number st))

let rec qualifiers st space time =
  if accept_punct st "@" then begin
    if space <> Sq_none then err st "duplicate spatial qualifier";
    qualifiers st (spatial_qualifier st) time
  end
  else if accept_punct st "&" then begin
    if time <> Tq_none then err st "duplicate temporal qualifier";
    qualifiers st space (temporal_qualifier st)
  end
  else (space, time)

(* the arguments after an opening '(', through the closing ')' *)
let args_close st =
  let args = if at_punct st ")" then [] else expr_list st in
  expect_punct st ")";
  args

let rec fact_atom st =
  let fa_pos = pos_of st in
  let fa_space, fa_time = qualifiers st Sq_none Tq_none in
  let first = expect_ident st in
  let fa_model, fa_pred =
    if accept_punct st "'" then (Some first, expect_ident st) else (None, first)
  in
  if not (accept_punct st "(") then
    err st "expected '(' after predicate %s" fa_pred;
  let g1 = args_close st in
  if accept_punct st "(" then begin
    let g2 = args_close st in
    { fa_model; fa_pred; fa_values = g1; fa_objects = g2; fa_space; fa_time; fa_pos }
  end
  else
    { fa_model; fa_pred; fa_values = []; fa_objects = g1; fa_space; fa_time; fa_pos }

(* ---------- bodies ---------- *)

and body_expr st =
  let left = conj st in
  if accept_punct st ";" then B_or (left, body_expr st) else left

and conj st =
  let left = body_unit st in
  if accept_punct st "," then B_and (left, conj st) else left

and body_unit st =
  match token st with
  | Lexer.Ident "not" ->
      advance st;
      B_not (body_unit st)
  | Lexer.Ident "forall" ->
      advance st;
      expect_punct st "(";
      let guard = body_expr st in
      expect_punct st "=>";
      let concl = body_expr st in
      expect_punct st ")";
      B_forall (guard, concl)
  | Lexer.Ident "test" ->
      advance st;
      B_test (test_expr st)
  | Lexer.Punct "(" ->
      advance st;
      let b = body_expr st in
      expect_punct st ")";
      b
  | Lexer.Punct "%" ->
      advance st;
      expect_punct st "[";
      let v =
        match token st with
        | Lexer.Var v ->
            advance st;
            E_var v
        | _ -> err st "expected a variable in %%[...]"
      in
      expect_punct st "]";
      let atom = fact_atom st in
      B_acc (atom, v)
  | Lexer.Var _ -> B_test (test_expr st)
  | Lexer.Int _ | Lexer.Float _ -> B_test (test_expr st)
  | Lexer.Punct ("@" | "&") | Lexer.Ident _ -> B_atom (fact_atom st)
  | _ -> err st "expected a body element"

(* ---------- statements ---------- *)

let domain_def st =
  match token st with
  | Lexer.Punct "{" ->
      advance st;
      let names = ident_list st in
      expect_punct st "}";
      D_enum names
  | Lexer.Ident "real" ->
      advance st;
      if accept_punct st "(" then begin
        let lo = number st in
        expect_punct st ",";
        let hi = number st in
        expect_punct st ")";
        D_real_range (lo, hi)
      end
      else D_number
  | Lexer.Ident ("int" | "integer") ->
      advance st;
      if accept_punct st "(" then begin
        let lo = integer st in
        expect_punct st ",";
        let hi = integer st in
        expect_punct st ")";
        D_int_range (lo, hi)
      end
      else D_number
  | Lexer.Ident "number" ->
      advance st;
      D_number
  | Lexer.Ident "text" ->
      advance st;
      D_text
  | Lexer.Ident "any" ->
      advance st;
      D_any
  | _ -> err st "expected a domain definition"

let region_def st =
  match token st with
  | Lexer.Ident "rect" ->
      advance st;
      expect_punct st "(";
      let a = number st in
      expect_punct st ",";
      let b = number st in
      expect_punct st ",";
      let c = number st in
      expect_punct st ",";
      let d = number st in
      expect_punct st ")";
      R_rect (a, b, c, d)
  | Lexer.Ident "circle" ->
      advance st;
      expect_punct st "(";
      let x = number st in
      expect_punct st ",";
      let y = number st in
      expect_punct st ",";
      let r = number st in
      expect_punct st ")";
      R_circle (x, y, r)
  | Lexer.Ident "polygon" ->
      advance st;
      expect_punct st "(";
      let rec points acc =
        expect_punct st "(";
        let x = number st in
        expect_punct st ",";
        let y = number st in
        expect_punct st ")";
        if accept_punct st "," then points ((x, y) :: acc)
        else List.rev ((x, y) :: acc)
      in
      let pts = points [] in
      expect_punct st ")";
      R_poly pts
  | _ -> err st "expected rect(...), circle(...) or polygon(...)"

let rec statement st ~in_model =
  let kw = expect_ident st in
  let stmt =
    match kw with
    | "coordinate" ->
        let name = expect_ident st in
        let zone =
          if accept_punct st "(" then begin
            let z = integer st in
            expect_punct st ")";
            Some z
          end
          else None
        in
        S_coordinate (name, zone)
    | "clock" -> S_clock (number st)
    | "fuzzy" -> S_fuzzy (expect_ident st)
    | "domain" ->
        let name = expect_ident st in
        expect_punct st "=";
        S_domain (name, domain_def st)
    | "object" | "objects" -> S_objects (located_ident_list st)
    | "predicate" ->
        let name = expect_ident st in
        let domains =
          if accept_punct st "{" then begin
            let ds = ident_list st in
            expect_punct st "}";
            ds
          end
          else []
        in
        let arity =
          if accept_punct st "(" then begin
            let n = integer st in
            expect_punct st ")";
            n
          end
          else 1
        in
        S_predicate (name, domains, arity)
    | "space" ->
        let name = expect_ident st in
        expect_punct st "=";
        expect_keyword st "grid";
        expect_punct st "(";
        let dx = number st in
        let dy = if accept_punct st "," then number st else dx in
        expect_punct st ")";
        let ox, oy =
          if accept_keyword st "origin" then begin
            expect_punct st "(";
            let x = number st in
            expect_punct st ",";
            let y = number st in
            expect_punct st ")";
            (x, y)
          end
          else (0.0, 0.0)
        in
        S_space { name; dx; dy; ox; oy }
    | "timespace" ->
        let name = expect_ident st in
        expect_punct st "=";
        expect_keyword st "line";
        expect_punct st "(";
        let step = number st in
        expect_punct st ")";
        let origin = if accept_keyword st "origin" then number st else 0.0 in
        S_timespace { name; step; origin }
    | "region" ->
        let name = expect_ident st in
        expect_punct st "=";
        S_region (name, region_def st)
    | "model" -> S_model (expect_ident st)
    | "fact" ->
        let f = fact_atom st in
        let f =
          match (in_model, f.fa_model) with
          | Some m, None -> { f with fa_model = Some m }
          | _ -> f
        in
        S_fact f
    | "acc" ->
        let a = number st in
        let f = fact_atom st in
        let f =
          match (in_model, f.fa_model) with
          | Some m, None -> { f with fa_model = Some m }
          | _ -> f
        in
        S_acc_fact (f, a)
    | "rule" ->
        let r_pos = pos_of st in
        let r_accuracy =
          if accept_punct st "%" then
            Some
              (match token st with
              | Lexer.Var v ->
                  advance st;
                  E_var v
              | Lexer.Int n ->
                  advance st;
                  E_float (float_of_int n)
              | Lexer.Float f ->
                  advance st;
                  E_float f
              | _ -> err st "expected a variable or number after %%")
          else None
        in
        let head = fact_atom st in
        let head =
          match (in_model, head.fa_model) with
          | Some m, None -> { head with fa_model = Some m }
          | _ -> head
        in
        expect_punct st "<-";
        S_rule { r_accuracy; r_head = head; r_body = body_expr st; r_pos }
    | "constraint" ->
        let c_pos = pos_of st in
        let tag = expect_ident st in
        let args =
          if accept_punct st "(" then args_close st else []
        in
        expect_punct st "<-";
        S_constraint
          { c_tag = tag; c_args = args; c_body = body_expr st; c_model = in_model; c_pos }
    | "metamodel" ->
        let name = expect_ident st in
        let loopcheck = accept_keyword st "loopcheck" in
        (match token st with
        | Lexer.Raw text ->
            advance st;
            S_metamodel { mm_name = name; mm_loopcheck = loopcheck; mm_clauses = text }
        | _ -> err st "expected '{ ... }' after metamodel %s" name)
    | "include" -> (
        match token st with
        | Lexer.Str path ->
            advance st;
            S_include path
        | _ -> err st "expected a quoted path after include")
    | "use" -> S_use (ident_list st)
    | "view" ->
        let v_name = expect_ident st in
        expect_punct st "=";
        expect_keyword st "models";
        expect_punct st "{";
        let v_models = if at_punct st "}" then [] else ident_list st in
        expect_punct st "}";
        let v_metas =
          if accept_keyword st "meta" then begin
            expect_punct st "{";
            let ms = if at_punct st "}" then [] else ident_list st in
            expect_punct st "}";
            ms
          end
          else []
        in
        S_view { v_name; v_models; v_metas }
    | other -> err st "unknown statement keyword '%s'" other
  in
  (match stmt with
  | S_metamodel _ -> () (* raw block consumed its own closing brace *)
  | _ -> expect_punct st ".");
  stmt

and statements st ~in_model ~until_brace =
  let rec go acc =
    match token st with
    | Lexer.Eof when not until_brace -> List.rev acc
    | Lexer.Eof -> err st "unexpected end of input inside model block"
    | Lexer.Punct "}" when until_brace -> List.rev acc
    | Lexer.Ident "in" when in_model = None ->
        advance st;
        let m = expect_ident st in
        expect_punct st "{";
        let inner = statements st ~in_model:(Some m) ~until_brace:true in
        expect_punct st "}";
        go (List.rev_append inner acc)
    | _ -> go (statement st ~in_model :: acc)
  in
  go []

let make_state src =
  {
    lexer = Lexer.create ~raw_after:[ "metamodel" ] src;
    ahead = Array.make window { Lexer.token = Lexer.Eof; line = 0; col = 0 };
    first = 0;
    filled = 0;
  }

let program src =
  try statements (make_state src) ~in_model:None ~until_brace:false
  with Lexer.Error msg -> raise (Error msg)

let body src =
  try
    let st = make_state src in
    let b = body_expr st in
    (match token st with
    | Lexer.Eof -> ()
    | Lexer.Punct "." -> ()
    | _ -> err st "trailing input after body");
    b
  with Lexer.Error msg -> raise (Error msg)

let fact src =
  try
    let st = make_state src in
    let f = fact_atom st in
    (match token st with
    | Lexer.Eof -> ()
    | Lexer.Punct "." -> ()
    | _ -> err st "trailing input after fact");
    f
  with Lexer.Error msg -> raise (Error msg)
