exception Corrupt of string

type t = {
  key : string;
  meta : string;
  state : Bottom_up.snapshot_state;
}

(* The trailing digit versions the payload: bump it whenever
   {!Bottom_up.snapshot_state} changes shape, so a file written by an
   older build is refused before [Marshal] reads it. *)
let magic = "GDPXSNAP4\n"

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let save ?(tracer = Gdp_obs.Tracer.disabled) ~path t =
  Gdp_obs.Tracer.with_span tracer ~cat:"snapshot"
    ~args:
      [ ("facts", Gdp_obs.Tracer.Int (Bottom_up.snapshot_facts t.state)) ]
    "snap.save"
  @@ fun () ->
  let payload = Marshal.to_string t [] in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc magic;
      output_string oc (Digest.string payload);
      output_string oc payload);
  let bytes = String.length magic + 16 + String.length payload in
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
    | exception Sys_error msg -> corrupt "cannot read snapshot: %s" msg
  in
  let header = String.length magic + 16 in
  if
    String.length raw < header
    || not (String.equal (String.sub raw 0 (String.length magic)) magic)
  then corrupt "%s is not a gdprs snapshot (bad magic)" path;
  let digest = String.sub raw (String.length magic) 16 in
  let payload = String.sub raw header (String.length raw - header) in
  if not (String.equal (Digest.string payload) digest) then
    corrupt "%s: digest mismatch (truncated or corrupted snapshot)" path;
  let t =
    match (Marshal.from_string payload 0 : t) with
    | t -> t
    | exception _ -> corrupt "%s: unreadable snapshot payload" path
  in
  if Gdp_obs.Tracer.enabled tracer then begin
    Gdp_obs.Tracer.add tracer "snap.loads" 1;
    Gdp_obs.Tracer.set tracer "snap.bytes" (float_of_int (String.length raw))
  end;
  (t, String.length raw)
