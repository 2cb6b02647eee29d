exception Parse_error of string

(* ---------- tokens ---------- *)

type token =
  | Tatom of string
  | Tvar of string
  | Tint of int
  | Tfloat of float
  | Tstr of string
  | Tlparen
  | Trparen
  | Tlbracket
  | Trbracket
  | Tcomma
  | Tbar
  | Tdot
  | Teof

type lexer = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
  mutable tok : token;
  mutable tok_line : int;
  mutable tok_col : int;
  mutable prev_end : int;  (** position just after the previous token *)
  mutable tok_start : int;  (** position where the current token begins *)
}

let error lx fmt =
  Format.kasprintf
    (fun msg ->
      raise (Parse_error (Printf.sprintf "%d:%d: %s" lx.tok_line lx.tok_col msg)))
    fmt

let is_lower c = c >= 'a' && c <= 'z'
let is_upper c = (c >= 'A' && c <= 'Z') || c = '_'
let is_digit c = c >= '0' && c <= '9'
let is_ident c = is_lower c || is_upper c || is_digit c

let is_symbol_char = function
  | '+' | '-' | '*' | '/' | '\\' | '^' | '<' | '>' | '=' | '~' | ':' | '.' | '?'
  | '@' | '#' | '&' ->
      true
  | _ -> false

let peek lx = if lx.pos < String.length lx.src then Some lx.src.[lx.pos] else None

let advance lx =
  (match peek lx with
  | Some '\n' ->
      lx.line <- lx.line + 1;
      lx.col <- 1
  | Some _ -> lx.col <- lx.col + 1
  | None -> ());
  lx.pos <- lx.pos + 1

let rec skip_ws lx =
  match peek lx with
  | Some (' ' | '\t' | '\r' | '\n') ->
      advance lx;
      skip_ws lx
  | Some '%' ->
      let rec to_eol () =
        match peek lx with
        | Some '\n' | None -> ()
        | Some _ ->
            advance lx;
            to_eol ()
      in
      to_eol ();
      skip_ws lx
  | Some '/' when lx.pos + 1 < String.length lx.src && lx.src.[lx.pos + 1] = '*' ->
      advance lx;
      advance lx;
      let rec in_comment depth =
        match peek lx with
        | None -> error lx "unterminated comment"
        | Some '*' when lx.pos + 1 < String.length lx.src && lx.src.[lx.pos + 1] = '/'
          ->
            advance lx;
            advance lx;
            if depth > 1 then in_comment (depth - 1)
        | Some '/' when lx.pos + 1 < String.length lx.src && lx.src.[lx.pos + 1] = '*'
          ->
            advance lx;
            advance lx;
            in_comment (depth + 1)
        | Some _ ->
            advance lx;
            in_comment depth
      in
      in_comment 1;
      skip_ws lx
  | _ -> ()

let take_while lx pred =
  let start = lx.pos in
  let rec go () =
    match peek lx with
    | Some c when pred c ->
        advance lx;
        go ()
    | _ -> ()
  in
  go ();
  String.sub lx.src start (lx.pos - start)

let lex_exponent lx =
  (* consume an exponent only when 'e'/'E' is followed by [sign] digit, so
     "2e" lexes as the integer 2 followed by the atom e *)
  match peek lx with
  | Some ('e' | 'E') -> (
      let after_sign =
        match
          if lx.pos + 1 < String.length lx.src then Some lx.src.[lx.pos + 1]
          else None
        with
        | Some ('+' | '-') ->
            if lx.pos + 2 < String.length lx.src then Some lx.src.[lx.pos + 2]
            else None
        | other -> other
      in
      match after_sign with
      | Some c when is_digit c ->
          advance lx;
          let sign =
            match peek lx with
            | Some (('+' | '-') as c) ->
                advance lx;
                String.make 1 c
            | _ -> ""
          in
          Some ("e" ^ sign ^ take_while lx is_digit)
      | _ -> None)
  | _ -> None

let lex_number lx =
  let intpart = take_while lx is_digit in
  let is_frac =
    (match peek lx with Some '.' -> true | _ -> false)
    && lx.pos + 1 < String.length lx.src
    && is_digit lx.src.[lx.pos + 1]
  in
  if is_frac then begin
    advance lx;
    let frac = take_while lx is_digit in
    let expo = Option.value (lex_exponent lx) ~default:"" in
    Tfloat (float_of_string (intpart ^ "." ^ frac ^ expo))
  end
  else
    match lex_exponent lx with
    | Some expo -> Tfloat (float_of_string (intpart ^ ".0" ^ expo))
    | None -> (
        match int_of_string_opt intpart with
        | Some n -> Tint n
        | None -> error lx "integer literal %s is out of range" intpart)

let lex_quoted lx quote =
  advance lx;
  let buf = Buffer.create 16 in
  let rec go () =
    match peek lx with
    | None -> error lx "unterminated quoted token"
    | Some c when c = quote ->
        advance lx;
        (* doubled quote escapes itself *)
        if peek lx = Some quote then begin
          Buffer.add_char buf quote;
          advance lx;
          go ()
        end
    | Some '\\' ->
        advance lx;
        (match peek lx with
        | Some 'n' -> Buffer.add_char buf '\n'
        | Some 't' -> Buffer.add_char buf '\t'
        | Some '\\' -> Buffer.add_char buf '\\'
        | Some c -> Buffer.add_char buf c
        | None -> error lx "unterminated escape");
        advance lx;
        go ()
    | Some c ->
        Buffer.add_char buf c;
        advance lx;
        go ()
  in
  go ();
  Buffer.contents buf

let next_token lx =
  lx.prev_end <- lx.pos;
  skip_ws lx;
  lx.tok_start <- lx.pos;
  lx.tok_line <- lx.line;
  lx.tok_col <- lx.col;
  let tok =
    match peek lx with
    | None -> Teof
    | Some '(' ->
        advance lx;
        Tlparen
    | Some ')' ->
        advance lx;
        Trparen
    | Some '[' ->
        advance lx;
        Tlbracket
    | Some ']' ->
        advance lx;
        Trbracket
    | Some ',' ->
        advance lx;
        Tcomma
    | Some '|' ->
        advance lx;
        Tbar
    | Some ';' ->
        advance lx;
        Tatom ";"
    | Some '!' ->
        advance lx;
        Tatom "!"
    | Some '\'' -> Tatom (lex_quoted lx '\'')
    | Some '"' -> Tstr (lex_quoted lx '"')
    | Some c when is_digit c -> lex_number lx
    | Some c when is_lower c -> Tatom (take_while lx is_ident)
    | Some c when is_upper c -> Tvar (take_while lx is_ident)
    | Some '.' ->
        (* A '.' is end-of-clause when followed by layout or EOF, else it
           starts a symbolic atom. *)
        if
          lx.pos + 1 >= String.length lx.src
          ||
          match lx.src.[lx.pos + 1] with
          | ' ' | '\t' | '\r' | '\n' | '%' -> true
          | _ -> false
        then begin
          advance lx;
          Tdot
        end
        else Tatom (take_while lx is_symbol_char)
    | Some c when is_symbol_char c -> Tatom (take_while lx is_symbol_char)
    | Some c -> error lx "unexpected character %C" c
  in
  lx.tok <- tok

let make_lexer src =
  let lx =
    {
      src;
      pos = 0;
      line = 1;
      col = 1;
      tok = Teof;
      tok_line = 1;
      tok_col = 1;
      prev_end = 0;
      tok_start = 0;
    }
  in
  next_token lx;
  lx

(* ---------- operator table ---------- *)

type fixity = Xfx | Xfy | Yfx

let infix_table =
  [
    (":-", (1200, Xfx));
    (";", (1100, Xfy));
    ("->", (1050, Xfy));
    (",", (1000, Xfy));
    ("=", (700, Xfx));
    ("\\=", (700, Xfx));
    ("==", (700, Xfx));
    ("\\==", (700, Xfx));
    ("is", (700, Xfx));
    ("<", (700, Xfx));
    (">", (700, Xfx));
    ("=<", (700, Xfx));
    (">=", (700, Xfx));
    ("=:=", (700, Xfx));
    ("=\\=", (700, Xfx));
    ("=..", (700, Xfx));
    ("@<", (700, Xfx));
    ("@>", (700, Xfx));
    ("+", (500, Yfx));
    ("-", (500, Yfx));
    ("*", (400, Yfx));
    ("/", (400, Yfx));
    ("//", (400, Yfx));
    ("mod", (400, Yfx));
    ("**", (200, Xfx));
  ]

let prefix_table = [ ("\\+", 900); ("not", 900); ("-", 200) ]

(* ---------- parser ---------- *)

type parser_state = { lx : lexer; vars : (string, Term.var) Hashtbl.t }

let get_var st name =
  if String.equal name "_" then
    Term.Var (Term.var_with_id "_" (Term.fresh_id ()))
  else
    match Hashtbl.find_opt st.vars name with
    | Some v -> Term.Var v
    | None ->
        let v = Term.var_with_id name (Term.fresh_id ()) in
        Hashtbl.add st.vars name v;
        Term.Var v

let expect st tok msg =
  if st.lx.tok = tok then next_token st.lx else error st.lx "expected %s" msg

(* max_prec: the tightest binding level allowed here; arguments of compounds
   and list elements parse at 999 so that ',' stays a separator. *)
let rec parse_term st max_prec =
  let left = parse_primary st max_prec in
  parse_infix st left 0 max_prec

(* Precedence climbing. [min_done] excludes operators the current left
   operand may no longer attach to: after an xfx/xfy combination of
   precedence p, the result (itself of priority p) may only become the left
   argument of an operator of precedence > p; after yfx, of >= p. *)
and parse_infix st left min_done max_prec =
  let op_name =
    match st.lx.tok with
    | Tatom name when List.mem_assoc name infix_table -> Some name
    | Tcomma -> Some ","
    | _ -> None
  in
  match op_name with
  | None -> left
  | Some name -> (
      match List.assoc_opt name infix_table with
      | Some (prec, fix) when prec <= max_prec && prec >= min_done ->
          next_token st.lx;
          let right_prec = match fix with Xfy -> prec | Xfx | Yfx -> prec - 1 in
          let right = parse_term st right_prec in
          let combined = Term.App (name, [ left; right ]) in
          let min_done' = match fix with Yfx -> prec | Xfx | Xfy -> prec + 1 in
          parse_infix st combined min_done' max_prec
      | _ -> left)

and parse_primary st max_prec =
  match st.lx.tok with
  | Tint n ->
      next_token st.lx;
      Term.Int n
  | Tfloat f ->
      next_token st.lx;
      Term.Float f
  | Tstr s ->
      next_token st.lx;
      Term.Str s
  | Tvar name ->
      next_token st.lx;
      get_var st name
  | Tlparen ->
      next_token st.lx;
      let t = parse_term st 1200 in
      expect st Trparen ")";
      t
  | Tlbracket ->
      next_token st.lx;
      parse_list st
  | Tatom name -> parse_atom_or_compound st name max_prec
  | Tcomma -> error st.lx "unexpected ','"
  | Tbar -> error st.lx "unexpected '|'"
  | Trparen -> error st.lx "unexpected ')'"
  | Trbracket -> error st.lx "unexpected ']'"
  | Tdot -> error st.lx "unexpected '.'"
  | Teof -> error st.lx "unexpected end of input"

and parse_atom_or_compound st name max_prec =
  next_token st.lx;
  (* [f(...)] is a compound only when '(' is immediately adjacent; with
     intervening layout, [f (...)] is the atom f applied as a prefix
     operator (if it is one) or just the atom. *)
  if st.lx.tok = Tlparen && st.lx.tok_start = st.lx.prev_end then begin
    next_token st.lx;
    let args = parse_args st in
    expect st Trparen ")";
    Term.app name args
  end
  else
    match List.assoc_opt name prefix_table with
    | Some prec when prec <= max_prec && can_start_term st.lx.tok -> (
        match (name, st.lx.tok) with
        | "-", Tint n ->
            next_token st.lx;
            Term.Int (-n)
        | "-", Tfloat f ->
            next_token st.lx;
            Term.Float (-.f)
        | _ ->
            let arg = parse_term st prec in
            Term.App (name, [ arg ]))
    | _ -> Term.Atom name

and can_start_term = function
  | Tatom _ | Tvar _ | Tint _ | Tfloat _ | Tstr _ | Tlparen | Tlbracket -> true
  | Tcomma | Tbar | Tdot | Teof | Trparen | Trbracket -> false

and parse_args st =
  let arg = parse_term st 999 in
  if st.lx.tok = Tcomma then begin
    next_token st.lx;
    arg :: parse_args st
  end
  else [ arg ]

and parse_list st =
  if st.lx.tok = Trbracket then begin
    next_token st.lx;
    Term.Atom "nil"
  end
  else begin
    let elems = parse_args st in
    let tail =
      if st.lx.tok = Tbar then begin
        next_token st.lx;
        parse_term st 999
      end
      else Term.Atom "nil"
    in
    expect st Trbracket "]";
    List.fold_right (fun h t -> Term.App ("cons", [ h; t ])) elems tail
  end

(* ---------- entry points ---------- *)

let fresh_state src = { lx = make_lexer src; vars = Hashtbl.create 8 }

let term src =
  let st = fresh_state src in
  let t = parse_term st 1200 in
  if st.lx.tok = Tdot then next_token st.lx;
  if st.lx.tok <> Teof then error st.lx "trailing input after term";
  t

let clause_of_term t =
  match t with
  | Term.App (":-", [ head; body ]) ->
      { Database.head; body = Builtins.body_to_goals body }
  | head -> { Database.head; body = [] }

let clause src =
  let t = term src in
  clause_of_term t

let goals src =
  let st = fresh_state src in
  let t = parse_term st 1200 in
  if st.lx.tok = Tdot then next_token st.lx;
  if st.lx.tok <> Teof then error st.lx "trailing input after query";
  Builtins.body_to_goals t

let program src =
  let st = fresh_state src in
  let rec go acc =
    if st.lx.tok = Teof then List.rev acc
    else begin
      (* each clause gets its own variable scope *)
      Hashtbl.reset st.vars;
      let t = parse_term st 1200 in
      expect st Tdot "'.' at end of clause";
      go (clause_of_term t :: acc)
    end
  in
  go []

let consult db src = List.iter (Database.assertz db) (program src)
