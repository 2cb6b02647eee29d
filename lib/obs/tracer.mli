(** Engine telemetry: monotonic-clock spans and named counters.

    A tracer is either {e disabled} — every operation is a constant-time
    no-op, so instrumented code can keep its tracer calls unconditionally —
    or {e enabled}, in which case completed spans, instants and counter
    samples are buffered in memory (and optionally forwarded to a custom
    {!sink}) for export by {!Export}.

    Spans nest: {!begin_span} records the currently-innermost open span as
    the parent, so exporters can rebuild the call tree. Closing is tolerant
    of non-LIFO order — a lazily-driven producer (the SLDNF engine
    abandons answer streams on committed choice) may close an outer span
    while an inner one is still open; {!finish} closes any stragglers so
    an export never sees a dangling span. *)

type arg = Int of int | Float of float | Str of string
(** Span/instant argument values, exported into the Chrome-trace [args]
    object. *)

type span = {
  id : int;
  parent : int;  (** id of the enclosing span, [-1] at the root *)
  name : string;
  cat : string;
  start_ns : int64;  (** relative to the tracer's creation *)
  dur_ns : int64;
  args : (string * arg) list;
}

type event =
  | Span of span  (** recorded when the span closes *)
  | Instant of {
      name : string;
      cat : string;
      ts_ns : int64;
      args : (string * arg) list;
    }
  | Sample of { name : string; ts_ns : int64; value : float }
      (** a counter's value at a point in time *)

type sink = event -> unit
(** Where completed events go. The in-memory buffer is always kept when
    the tracer is enabled; a custom sink additionally observes each event
    as it is recorded (streaming export, test probes). *)

type t
type frame
(** Handle of an open span, returned by {!begin_span}. *)

val disabled : t
(** The no-op tracer: spans cost a pointer test, counters nothing. *)

val create : ?sink:sink -> unit -> t
(** A fresh enabled tracer; its clock starts at 0 now. *)

val enabled : t -> bool

val begin_span :
  t -> ?cat:string -> ?args:(string * arg) list -> string -> frame
(** Open a span named [name] (category defaults to ["misc"]) under the
    innermost currently-open span. *)

val end_span : t -> ?args:(string * arg) list -> frame -> unit
(** Close the span, record its duration, and append the extra [args].
    Closing an already-closed frame (or any frame of a disabled tracer)
    is a no-op. *)

val with_span :
  t -> ?cat:string -> ?args:(string * arg) list -> string -> (unit -> 'a) -> 'a
(** [with_span t name f] runs [f] inside a span; the span is closed even
    if [f] raises. *)

val instant : t -> ?cat:string -> ?args:(string * arg) list -> string -> unit

val add : t -> string -> int -> unit
(** [add t name n] bumps the cumulative counter [name] by [n] and records
    a {!Sample} of the new total. *)

val set : t -> string -> float -> unit
(** Set a counter to an absolute value and record a {!Sample}. *)

val finish : t -> unit
(** Close every span still open (duration up to now). Call before
    exporting. *)

val events : t -> event list
(** Everything recorded so far, in recording order (spans appear at their
    close time). *)

val spans : t -> span list
(** Completed spans only, in close order. *)

val span_count : ?cat:string -> t -> int
(** Number of completed spans, optionally restricted to a category. *)

val counters : t -> (string * float) list
(** Final cumulative counter values, sorted by name. *)

val now_ns : unit -> int64
(** The raw monotonic clock the tracer timestamps with. *)
