(** On-disk container for persistent fixpoint snapshots.

    A snapshot file is the binary serialisation of one
    {!Bottom_up.snapshot_state} plus the caller's coherence data: a
    [key] identifying the program and engine configuration the state
    was materialised under, and an opaque [meta] payload higher layers
    thread through unchanged ([Gdp_core.Query] stores its persisted
    update log there — this module never interprets it, which keeps the
    logic layer free of any dependency on the GDP fact language).

    File format: the magic string ["GDPXSNAP4\n"], a 16-byte MD5 digest
    of the payload, then the payload ([Marshal] of {!t}). The magic's
    digit is the payload version. {!load} verifies magic and digest
    before unmarshalling, so a truncated, corrupted, non-snapshot or
    other-version file raises {!Corrupt} with a clean message instead
    of crashing inside [Marshal]. Key checking is the
    {e caller's} job: {!load} returns whatever key the file carries,
    and a mismatch means the snapshot is {e stale} (rebuild it), not
    corrupt. *)

exception Corrupt of string
(** The file is unreadable, not a snapshot, truncated, or fails its
    digest — never raised for a stale (wrong-key) snapshot. *)

type t = {
  key : string;
      (** content hash of the compiled program + engine configuration
          the snapshot was materialised under
          ([Gdp_core.Compile.content_hash]) *)
  meta : string;
      (** opaque payload owned by the caller; round-trips byte-exact *)
  state : Bottom_up.snapshot_state;  (** the exported fixpoint *)
}

val save : ?tracer:Gdp_obs.Tracer.t -> path:string -> t -> int
(** Write the snapshot to [path] (truncating any existing file) and
    return the number of bytes written. With a live tracer, records one
    ["snap.save"] span (category ["snapshot"], with the fact count as
    an argument) and the [snap.saves] / [snap.bytes] counters. *)

val load : ?tracer:Gdp_obs.Tracer.t -> path:string -> unit -> t * int
(** Read and verify a snapshot, returning it with the file's size in
    bytes. Raises {!Corrupt} on any integrity failure. With a live
    tracer, records one ["snap.load"] span and the [snap.loads] /
    [snap.bytes] counters. *)
