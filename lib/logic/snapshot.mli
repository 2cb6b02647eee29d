(** On-disk container for persistent fixpoint snapshots.

    A snapshot file holds one encoded {!Bottom_up.snapshot_state} plus
    the caller's coherence data: a [key] identifying the program and
    engine configuration the state was materialised under, and an
    opaque [meta] payload higher layers thread through unchanged
    ([Gdp_core.Query] stores its persisted update log there, encoded
    with {!Wire} — this module never interprets it, which keeps the
    logic layer free of any dependency on the GDP fact language).

    File format: the magic string ["GDPXSNAP8\n"], the 8-byte
    {!digest} of the payload, then the payload: [key] and [meta] as
    length-prefixed strings ({!Wire.add_string}), then the state's
    bytes to the end of the file. The magic's digit is the payload
    version. No OCaml value layout is involved: {!load} verifies magic
    and digest, and the state is decoded — in place, from the file's
    string — by {!Bottom_up.import}, which bounds-checks every read.
    The two guard against different things. The digest catches
    accidental damage (a truncated copy, a flipped bit) before anything
    is decoded; it is no defence against a crafted file, which can carry
    a digest that matches. The bounds-checked decoder is that defence.
    A truncated, corrupted, crafted, non-snapshot or other-version file
    therefore raises {!Corrupt} with a clean message, from {!load} or
    from the import. Key checking is the {e caller's} job: {!load} returns
    whatever key the file carries, and a mismatch means the snapshot is
    {e stale} (rebuild it), not corrupt. *)

exception Corrupt of string
(** The file is unreadable, not a snapshot, truncated, fails its
    digest, or its payload does not decode — never raised for a stale
    (wrong-key) snapshot. The same exception as {!Wire.Corrupt}. *)

type t = {
  key : string;
      (** content hash of the compiled program + engine configuration
          the snapshot was materialised under
          ([Gdp_core.Compile.content_hash]) *)
  meta : string;
      (** opaque payload owned by the caller; round-trips byte-exact *)
  state : Bottom_up.snapshot_state;  (** the exported fixpoint *)
}

val digest : string -> pos:int -> len:int -> string
(** [digest s ~pos ~len] is the XXH64 hash (seed 0) of bytes
    [\[pos, pos + len)] of [s], as 8 bytes little-endian: the digest a
    snapshot file carries after its magic. Raises [Invalid_argument] when
    the range lies outside [s]. *)

val save : ?tracer:Gdp_obs.Tracer.t -> path:string -> t -> int
(** Write the snapshot to a temporary file beside [path], rename it
    over [path] and return the number of bytes written. When the write
    or the rename raises, the temporary file is removed and whatever
    [path] held before is left unchanged. With a live tracer, records one
    ["snap.save"] span (category ["snapshot"], with the fact count as
    an argument) and the [snap.saves] / [snap.bytes] counters. *)

val load : ?tracer:Gdp_obs.Tracer.t -> path:string -> unit -> t * int
(** Read and verify a snapshot, returning it with the file's size in
    bytes. The magic and the {!digest} of the whole payload are checked
    before anything is decoded. The returned [state] is a view into the
    file's string, left for {!Bottom_up.import} to decode. Raises
    {!Corrupt} on a bad magic, digest or key/meta frame. With a live
    tracer, records one ["snap.load"] span and the [snap.loads] /
    [snap.bytes] counters. *)
