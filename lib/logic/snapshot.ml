exception Corrupt = Wire.Corrupt

type t = {
  key : string;
  meta : string;
  state : Bottom_up.snapshot_state;
}

(* The trailing digit versions the payload: bump it whenever the
   encoding of {!Bottom_up.snapshot_state} or of the key/meta frame
   changes, so a file written by another build is refused before its
   payload is decoded. Version 8 replaced the 16-byte MD5 of the
   payload with its 8-byte XXH64: every payload read is bounds-checked,
   so the digest only has to catch accidental damage, and XXH64 does
   that at a tenth of MD5's cost. *)
let magic = "GDPXSNAP8\n"

(* XXH64 with seed 0, written from the xxHash specification
   (https://github.com/Cyan4973/xxHash/blob/dev/doc/xxhash_spec.md). The
   helpers are inlined so that their [Int64] values stay unboxed. *)
let p1 = 0x9E3779B185EBCA87L
let p2 = 0xC2B2AE3D27D4EB4FL
let p3 = 0x165667B19E3779F9L
let p4 = 0x85EBCA77C2B2AE63L
let p5 = 0x27D4EB2F165667C5L

let[@inline] rotl x r =
  Int64.logor (Int64.shift_left x r) (Int64.shift_right_logical x (64 - r))

let[@inline] round acc lane =
  Int64.mul (rotl (Int64.add acc (Int64.mul lane p2)) 31) p1

let[@inline] merge acc v =
  Int64.add (Int64.mul (Int64.logxor acc (round 0L v)) p1) p4

let xxh64 s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Snapshot.digest";
  let stop = pos + len in
  let i = ref pos in
  let acc =
    if len < 32 then p5
    else begin
      let v1 = ref (Int64.add p1 p2)
      and v2 = ref p2
      and v3 = ref 0L
      and v4 = ref (Int64.neg p1) in
      while !i <= stop - 32 do
        let at = !i in
        v1 := round !v1 (String.get_int64_le s at);
        v2 := round !v2 (String.get_int64_le s (at + 8));
        v3 := round !v3 (String.get_int64_le s (at + 16));
        v4 := round !v4 (String.get_int64_le s (at + 24));
        i := at + 32
      done;
      let acc =
        Int64.add
          (Int64.add (rotl !v1 1) (rotl !v2 7))
          (Int64.add (rotl !v3 12) (rotl !v4 18))
      in
      merge (merge (merge (merge acc !v1) !v2) !v3) !v4
    end
  in
  let acc = ref (Int64.add acc (Int64.of_int len)) in
  while !i <= stop - 8 do
    let k = round 0L (String.get_int64_le s !i) in
    acc := Int64.add (Int64.mul (rotl (Int64.logxor !acc k) 27) p1) p4;
    i := !i + 8
  done;
  if !i <= stop - 4 then begin
    let lane =
      Int64.of_int (Int32.to_int (String.get_int32_le s !i) land 0xFFFF_FFFF)
    in
    let h = Int64.logxor !acc (Int64.mul lane p1) in
    acc := Int64.add (Int64.mul (rotl h 23) p2) p3;
    i := !i + 4
  end;
  while !i < stop do
    let h = Int64.logxor !acc (Int64.mul (Int64.of_int (Char.code s.[!i])) p5) in
    acc := Int64.mul (rotl h 11) p1;
    incr i
  done;
  let h = !acc in
  let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 33)) p2 in
  let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 29)) p3 in
  Int64.logxor h (Int64.shift_right_logical h 32)

let digest s ~pos ~len =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (xxh64 s ~pos ~len);
  Bytes.unsafe_to_string b

let header = String.length magic + 8

(* magic, XXH64 of the payload, payload = key, meta, state; the state is
   copied once, into the payload the digest is computed over. The file
   goes to a sibling temporary file renamed over [path], so a failed
   save leaves the previous snapshot in place. *)
let save ?(tracer = Gdp_obs.Tracer.disabled) ~path t =
  Gdp_obs.Tracer.with_span tracer ~cat:"snapshot"
    ~args:
      [ ("facts", Gdp_obs.Tracer.Int (Bottom_up.snapshot_facts t.state)) ]
    "snap.save"
  @@ fun () ->
  let frame = Buffer.create 64 in
  Wire.add_string frame t.key;
  Wire.add_string frame t.meta;
  let st = t.state in
  let payload = Bytes.create (Buffer.length frame + st.len) in
  Buffer.blit frame 0 payload 0 (Buffer.length frame);
  Bytes.blit_string st.data st.pos payload (Buffer.length frame) st.len;
  let payload = Bytes.unsafe_to_string payload in
  let sum = digest payload ~pos:0 ~len:(String.length payload) in
  let bytes = header + String.length payload in
  let tmp = path ^ ".tmp" in
  (try
     Out_channel.with_open_bin tmp (fun oc ->
         Out_channel.output_string oc magic;
         Out_channel.output_string oc sum;
         Out_channel.output_string oc payload);
     Sys.rename tmp path
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  if Gdp_obs.Tracer.enabled tracer then begin
    Gdp_obs.Tracer.add tracer "snap.saves" 1;
    Gdp_obs.Tracer.set tracer "snap.bytes" (float_of_int bytes)
  end;
  bytes

let load ?(tracer = Gdp_obs.Tracer.disabled) ~path () =
  Gdp_obs.Tracer.with_span tracer ~cat:"snapshot" "snap.load" @@ fun () ->
  let raw =
    match In_channel.with_open_bin path In_channel.input_all with
    | raw -> raw
    | exception Sys_error msg -> Wire.corrupt "cannot read snapshot: %s" msg
  in
  let size = String.length raw in
  if
    size < header
    || not (String.equal (String.sub raw 0 (String.length magic)) magic)
  then Wire.corrupt "%s is not a gdprs snapshot (bad magic)" path;
  if
    not
      (String.equal
         (digest raw ~pos:header ~len:(size - header))
         (String.sub raw (String.length magic) 8))
  then Wire.corrupt "%s: digest mismatch (truncated or corrupted snapshot)" path;
  let r = Wire.reader raw ~pos:header ~len:(size - header) in
  let key, meta =
    try
      let key = Wire.string r in
      (key, Wire.string r)
    with Corrupt msg -> Wire.corrupt "%s: %s" path msg
  in
  (* the state stays in the file's string: import decodes it in place *)
  let pos = size - Wire.remaining r in
  let t = { key; meta; state = { data = raw; pos; len = size - pos } } in
  if Gdp_obs.Tracer.enabled tracer then begin
    Gdp_obs.Tracer.add tracer "snap.loads" 1;
    Gdp_obs.Tracer.set tracer "snap.bytes" (float_of_int size)
  end;
  (t, size)
