exception Corrupt = Wire.Corrupt

type t = {
  key : string;
  meta : string;
  state : Bottom_up.snapshot_state;
}

(* The trailing digit versions the payload: bump it whenever the
   encoding of {!Bottom_up.snapshot_state} or of the key/meta frame
   changes, so a file written by another build is refused before its
   payload is decoded. *)
let magic = "GDPXSNAP7\n"

let header = String.length magic + 16

(* magic, MD5 of the payload, payload = key, meta, state; the state is
   copied once, into the file image the digest is computed over. The
   image goes to a sibling temporary file renamed over [path], so a
   failed save leaves the previous snapshot in place. *)
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
  let bytes = header + Buffer.length frame + st.len in
  let image = Bytes.create bytes in
  Bytes.blit_string magic 0 image 0 (String.length magic);
  Buffer.blit frame 0 image header (Buffer.length frame);
  Bytes.blit_string st.data st.pos image (header + Buffer.length frame) st.len;
  Bytes.blit_string
    (Digest.subbytes image header (bytes - header))
    0 image (String.length magic) 16;
  let tmp = path ^ ".tmp" in
  (try
     Out_channel.with_open_bin tmp (fun oc ->
         Out_channel.output_bytes oc image);
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
         (Digest.substring raw header (size - header))
         (String.sub raw (String.length magic) 16))
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
