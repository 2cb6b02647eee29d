type token =
  | Ident of string
  | Var of string
  | Int of int
  | Float of float
  | Str of string
  | Punct of string
  | Raw of string
  | Eof

type t = { token : token; line : int; col : int }

exception Error of string

(* One pass over the source: [pos] is the cursor and [line_start] the
   offset of the current line's first byte, so a column is computed only
   when a token starts instead of being maintained per byte. *)
type stream = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable line_start : int;
  raw_after : string list;
  mutable pending_raw : bool;
      (* a [raw_after] keyword was seen and no '.' since: the next '{'
         opens a raw block *)
}

let column st = st.pos - st.line_start + 1

let error_at line col fmt =
  Format.kasprintf (fun msg -> raise (Error (Printf.sprintf "%d:%d: %s" line col msg))) fmt

let error st fmt = error_at st.line (column st) fmt

(* the byte at [i], or '\000' past the end (NUL never starts a token, so
   it reads as "no such byte" wherever a lookahead tests for one) *)
let char_at st i = if i < String.length st.src then String.unsafe_get st.src i else '\000'

let at_end st = st.pos >= String.length st.src

(* step over the byte at the cursor, keeping the line count *)
let advance st =
  if String.unsafe_get st.src st.pos = '\n' then begin
    st.line <- st.line + 1;
    st.line_start <- st.pos + 1
  end;
  st.pos <- st.pos + 1

let skip_block_comment st =
  (* the cursor is on the opening "/*" *)
  let line = st.line and col = column st in
  st.pos <- st.pos + 2;
  let depth = ref 1 in
  while !depth > 0 do
    if at_end st then error_at line col "unterminated comment";
    match (String.unsafe_get st.src st.pos, char_at st (st.pos + 1)) with
    | '*', '/' ->
        st.pos <- st.pos + 2;
        decr depth
    | '/', '*' ->
        st.pos <- st.pos + 2;
        incr depth
    | _ -> advance st
  done

let rec skip_ws st =
  if not (at_end st) then
    match String.unsafe_get st.src st.pos with
    | ' ' | '\t' | '\r' | '\n' ->
        advance st;
        skip_ws st
    | '/' when char_at st (st.pos + 1) = '/' ->
        while (not (at_end st)) && String.unsafe_get st.src st.pos <> '\n' do
          st.pos <- st.pos + 1
        done;
        skip_ws st
    | '/' when char_at st (st.pos + 1) = '*' ->
        skip_block_comment st;
        skip_ws st
    | _ -> ()

let is_lower c = c >= 'a' && c <= 'z'
let is_upper c = (c >= 'A' && c <= 'Z') || c = '_'
let is_digit c = c >= '0' && c <= '9'
let is_ident c = is_lower c || is_upper c || is_digit c

let skip_digits st =
  while is_digit (char_at st st.pos) do
    st.pos <- st.pos + 1
  done

let take_ident st =
  let start = st.pos in
  while is_ident (char_at st st.pos) do
    st.pos <- st.pos + 1
  done;
  String.sub st.src start (st.pos - start)

(* An exponent is consumed only when a digit (after an optional sign)
   follows the 'e'/'E', so "2e" stays Int 2 + Ident e. *)
let skip_exponent st =
  match char_at st st.pos with
  | 'e' | 'E' ->
      let digit_at =
        match char_at st (st.pos + 1) with '+' | '-' -> st.pos + 2 | _ -> st.pos + 1
      in
      if is_digit (char_at st digit_at) then begin
        st.pos <- digit_at;
        skip_digits st;
        true
      end
      else false
  | _ -> false

let lex_number st ~line ~col =
  let start = st.pos in
  skip_digits st;
  let int_end = st.pos in
  let fraction = char_at st st.pos = '.' && is_digit (char_at st (st.pos + 1)) in
  if fraction then begin
    st.pos <- st.pos + 1;
    skip_digits st
  end;
  let exponent = skip_exponent st in
  if fraction || exponent then
    Float (float_of_string (String.sub st.src start (st.pos - start)))
  else
    let n = ref 0 in
    for i = start to int_end - 1 do
      let d = Char.code (String.unsafe_get st.src i) - Char.code '0' in
      if !n > (max_int - d) / 10 then
        error_at line col "integer literal %s is out of range"
          (String.sub st.src start (int_end - start));
      n := (!n * 10) + d
    done;
    Int !n

let lex_string st ~line ~col =
  (* the cursor is on the opening quote; a string without escapes is one
     slice of the source *)
  let start = st.pos + 1 in
  let rec plain i =
    match char_at st i with
    | '"' -> Some i
    | '\\' | '\n' -> None
    | '\000' when i >= String.length st.src -> None
    | _ -> plain (i + 1)
  in
  match plain start with
  | Some stop ->
      st.pos <- stop + 1;
      Str (String.sub st.src start (stop - start))
  | None ->
      advance st;
      let buf = Buffer.create 16 in
      let rec go () =
        if at_end st then error_at line col "unterminated string";
        match String.unsafe_get st.src st.pos with
        | '"' -> advance st
        | '\\' ->
            advance st;
            if at_end st then error st "unterminated escape";
            (match String.unsafe_get st.src st.pos with
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | c -> Buffer.add_char buf c);
            advance st;
            go ()
        | c ->
            Buffer.add_char buf c;
            advance st;
            go ()
      in
      go ();
      Str (Buffer.contents buf)

(* multi-character operators, longest first; only '\\', '=', '<' and '>'
   start one *)
let operators =
  [ "\\=="; "=:="; "=\\="; "=>"; "<-"; ">="; "=<"; "=="; "\\="; ">"; "<"; "=" ]

(* one shared token per single-character punctuation mark *)
let single_punct = Array.init 256 (fun c -> Punct (String.make 1 (Char.chr c)))

let lex_operator st ~line ~col =
  let c = String.unsafe_get st.src st.pos in
  let c1 = char_at st (st.pos + 1) and c2 = char_at st (st.pos + 2) in
  let op =
    match (c, c1, c2) with
    | '\\', '=', '=' -> "\\=="
    | '\\', '=', _ -> "\\="
    | '\\', _, _ -> error_at line col "unexpected character %C" c
    | '=', ':', '=' -> "=:="
    | '=', '\\', '=' -> "=\\="
    | '=', '>', _ -> "=>"
    | '=', '<', _ -> "=<"
    | '=', '=', _ -> "=="
    | '=', _, _ -> "="
    | '<', '-', _ -> "<-"
    | '<', _, _ -> "<"
    | '>', '=', _ -> ">="
    | _ -> ">"
  in
  st.pos <- st.pos + String.length op;
  Punct op

let capture_raw st ~line ~col =
  (* the cursor is just after the opening '{', which is at [line]:[col] *)
  let buf = Buffer.create 128 in
  let rec go depth =
    if at_end st then error_at line col "unterminated raw block";
    match String.unsafe_get st.src st.pos with
    | '{' ->
        Buffer.add_char buf '{';
        advance st;
        go (depth + 1)
    | '}' ->
        advance st;
        if depth > 1 then begin
          Buffer.add_char buf '}';
          go (depth - 1)
        end
    | '\'' ->
        (* quoted atom: copy verbatim so braces inside quotes are safe *)
        let line = st.line and col = column st in
        Buffer.add_char buf '\'';
        advance st;
        let rec copy_quoted () =
          if at_end st then error_at line col "unterminated quoted atom in raw block";
          let c = String.unsafe_get st.src st.pos in
          Buffer.add_char buf c;
          advance st;
          if c <> '\'' then copy_quoted ()
        in
        copy_quoted ();
        go depth
    | c ->
        Buffer.add_char buf c;
        advance st;
        go depth
  in
  go 1;
  Buffer.contents buf

let create ?(raw_after = []) src =
  { src; pos = 0; line = 1; line_start = 0; raw_after; pending_raw = false }

let next st =
  skip_ws st;
  let line = st.line and col = column st in
  let token =
    if at_end st then Eof
    else
      match String.unsafe_get st.src st.pos with
      | '0' .. '9' -> lex_number st ~line ~col
      | 'a' .. 'z' ->
          let name = take_ident st in
          if st.raw_after <> [] && List.mem name st.raw_after then st.pending_raw <- true;
          Ident name
      | 'A' .. 'Z' | '_' -> Var (take_ident st)
      | '"' -> lex_string st ~line ~col
      | '{' when st.pending_raw ->
          st.pos <- st.pos + 1;
          st.pending_raw <- false;
          Raw (capture_raw st ~line ~col)
      | ( '(' | ')' | '[' | ']' | '{' | '}' | ',' | '.' | ';' | ':' | '\'' | '@' | '&'
        | '%' | '+' | '-' | '*' | '/' | '|' ) as c ->
          st.pos <- st.pos + 1;
          if c = '.' then st.pending_raw <- false;
          single_punct.(Char.code c)
      | '\\' | '=' | '<' | '>' -> lex_operator st ~line ~col
      | c -> error_at line col "unexpected character %C" c
  in
  { token; line; col }

let to_list st =
  let rec go acc =
    let t = next st in
    match t.token with Eof -> List.rev (t :: acc) | _ -> go (t :: acc)
  in
  go []

let tokens ?raw_after src = to_list (create ?raw_after src)
