exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* LEB128 over the 63 bits of an OCaml int, read as unsigned: [lsr]
   shifts zeros in, so a negative value takes the full nine bytes *)
let add_nat b n =
  let n = ref n in
  while !n land lnot 0x7f <> 0 do
    Buffer.add_char b (Char.unsafe_chr (!n land 0x7f lor 0x80));
    n := !n lsr 7
  done;
  Buffer.add_char b (Char.unsafe_chr !n)

(* zigzag: small magnitudes of either sign take few bytes *)
let add_int b n = add_nat b ((n lsl 1) lxor (n asr 62))
let add_float b f = Buffer.add_int64_le b (Int64.bits_of_float f)

let add_string b s =
  add_nat b (String.length s);
  Buffer.add_string b s

type reader = { src : string; mutable pos : int; lim : int }

let reader src ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length src - len then
    corrupt "payload slice [%d, +%d) lies outside its %d-byte buffer" pos len
      (String.length src);
  { src; pos; lim = pos + len }

let remaining r = r.lim - r.pos
let at_end r = r.pos = r.lim

let byte r =
  if r.pos >= r.lim then corrupt "truncated payload at byte %d" r.pos;
  let c = Char.code (String.unsafe_get r.src r.pos) in
  r.pos <- r.pos + 1;
  c

(* nine 7-bit groups fill the 63 bits; a tenth group is an overlong
   varint, never written by [add_nat] *)
let long_nat r =
  let acc = ref 0 and shift = ref 0 and more = ref true in
  while !more do
    let c = byte r in
    acc := !acc lor ((c land 0x7f) lsl !shift);
    if c land 0x80 = 0 then more := false
    else if !shift = 56 then corrupt "overlong varint at byte %d" (r.pos - 1)
    else shift := !shift + 7
  done;
  !acc

(* Most ids, counts and gaps take one byte, nearly all the rest two or
   three. With three bytes left before [lim] (and [lim] never passes the
   string's end, see [reader]) such a varint is read without a bounds
   check per byte; a longer one, or one near the end of the slice, goes
   through [long_nat], which decodes the same values and raises the same
   errors. *)
let raw_nat r =
  let p = r.pos and s = r.src in
  if p + 3 <= r.lim then begin
    let c0 = Char.code (String.unsafe_get s p) in
    if c0 < 0x80 then begin
      r.pos <- p + 1;
      c0
    end
    else
      let c1 = Char.code (String.unsafe_get s (p + 1)) in
      if c1 < 0x80 then begin
        r.pos <- p + 2;
        (c0 land 0x7f) lor (c1 lsl 7)
      end
      else
        let c2 = Char.code (String.unsafe_get s (p + 2)) in
        if c2 < 0x80 then begin
          r.pos <- p + 3;
          (c0 land 0x7f) lor ((c1 land 0x7f) lsl 7) lor (c2 lsl 14)
        end
        else long_nat r
  end
  else
    let c = if p < r.lim then Char.code (String.unsafe_get s p) else 0x80 in
    if c < 0x80 then begin
      r.pos <- p + 1;
      c
    end
    else long_nat r

let nat r =
  let n = raw_nat r in
  if n < 0 then corrupt "varint out of range at byte %d" (r.pos - 1);
  n

let int r =
  let z = raw_nat r in
  (z lsr 1) lxor (-(z land 1))

let below r bound what =
  let at = r.pos in
  let n = raw_nat r in
  if n < 0 || n >= bound then
    corrupt "%s %d out of range [0, %d) at byte %d" what n bound at;
  n

let count r ~min_bytes what =
  let at = r.pos in
  let n = nat r in
  if n > remaining r / min_bytes then
    corrupt "%s count %d exceeds the %d bytes left at byte %d" what n
      (remaining r) at;
  n

let float r =
  if remaining r < 8 then corrupt "truncated float at byte %d" r.pos;
  let f = Int64.float_of_bits (String.get_int64_le r.src r.pos) in
  r.pos <- r.pos + 8;
  f

let string r =
  let n = count r ~min_bytes:1 "string byte" in
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let rec add_term b = function
  | Term.Atom s ->
      Buffer.add_uint8 b 0;
      add_string b s
  | Term.Int n ->
      Buffer.add_uint8 b 1;
      add_int b n
  | Term.Float f ->
      Buffer.add_uint8 b 2;
      add_float b f
  | Term.Str s ->
      Buffer.add_uint8 b 3;
      add_string b s
  | Term.App (f, args) ->
      Buffer.add_uint8 b 4;
      add_string b f;
      add_nat b (List.length args);
      List.iter (add_term b) args
  | Term.Var _ -> invalid_arg "Wire.add_term: a variable"

let rec term r =
  let at = r.pos in
  match byte r with
  | 0 -> Term.Atom (string r)
  | 1 -> Term.Int (int r)
  | 2 -> Term.Float (float r)
  | 3 -> Term.Str (string r)
  | 4 ->
      let f = string r in
      let rec args k acc =
        if k = 0 then List.rev acc else args (k - 1) (term r :: acc)
      in
      (* every term takes at least two bytes *)
      Term.App (f, args (count r ~min_bytes:2 "argument") [])
  | tag -> corrupt "unknown term tag %d at byte %d" tag at
