(** Low-overhead structured telemetry for the recovery pipeline.

    Every layer of the pipeline (engine, lift, abstract interpretation,
    symbolic execution, rule matching, lint) emits timestamped events
    into a per-domain ring buffer. Tracing is globally off by default;
    the disabled path is a single atomic load and allocates nothing, so
    instrumentation can stay in the hot paths permanently.

    Hot call sites use the allocation-free explicit pattern:

    {[
      let t0 = if Trace.enabled () then Trace.now_ns () else 0 in
      ... work ...
      if Trace.enabled () then
        Trace.complete Trace.Symex "run" ~t0_ns:t0 [ ("paths", Trace.Int n) ]
    ]}

    where the argument list is only constructed when tracing is on.

    Buffers are domain-local ([Domain.DLS]); a buffer is registered in a
    global registry on first use, so events survive the worker domain
    that produced them and {!collect} sees every domain's stream. When a
    ring wraps, the oldest events are dropped and counted ({!dropped}).

    There is one clock, {!now_ns}: integer nanoseconds from the
    system's monotonic clock. Span timestamps, span durations, the
    metrics layer's latency observations and the engine's per-function
    [elapsed_ns] all read it; exporters convert units only when they
    render. *)

(** Pipeline phase taxonomy. One per architectural layer; rendered as
    the Chrome trace category. *)
type phase =
  | Engine  (** batch engine: per-input analysis, cache, dedup *)
  | Lift    (** disassembly + CFG construction *)
  | Absint  (** static abstract interpretation fixpoints *)
  | Symex   (** TASE symbolic execution *)
  | Rules   (** R1-R31 matching: attempted / fired / rejected *)
  | Lint    (** differential lint verdicts *)
  | Layout  (** storage-layout recovery passes *)
  | Bench   (** harness-level sections *)

val phase_name : phase -> string

type value = Int of int | Str of string | Bool of bool | Float of float
type arg = string * value

type kind =
  | Complete  (** a span: [ts_ns] start, [dur_ns] duration *)
  | Instant   (** a point event *)
  | Counter   (** a sampled counter value (single [Int] arg) *)

type event = {
  ts_ns : int;   (** {!now_ns} reading at the event (span start) *)
  dur_ns : int;  (** duration for [Complete]; [0] otherwise *)
  dom : int;       (** numeric id of the emitting domain *)
  phase : phase;
  name : string;
  kind : kind;
  args : arg list;
}

type config = {
  capacity : int;
      (** ring-buffer slots per domain (default 65536) *)
  sample_every : int;
      (** symbolic-execution step-sampling period; rounded up to a
          power of two (default 1024) *)
}

val default_config : config

val enable : ?config:config -> unit -> unit
(** Reset all buffers and start recording. *)

val disable : unit -> unit
(** Stop recording. Buffered events remain available to {!collect}. *)

val enabled : unit -> bool
(** One atomic load; the guard for every hot-path emission. True when
    ring recording is on {e or} a span observer is installed — either
    consumer needs the call sites to take their instrumented paths. *)

val set_observer : (phase -> string -> int -> unit) option -> unit
(** Install (or remove, with [None]) the span-close observer: called as
    [f phase name dur_ns] every time a span completes ({!complete}),
    whether or not ring recording is on. Installing one flips
    {!enabled} so guarded call sites reach the
    span close; instants and counters stay ring-only and still allocate
    nothing. One slot, last writer wins: this is the metrics layer's
    histogram feed, not a general subscription surface. *)

val sample_mask : unit -> int
(** [sample_every - 1] (a power-of-two mask); hot loops test
    [steps land sample_mask () = 0] before even reading {!enabled}. *)

val now_ns : unit -> int
(** Integer nanoseconds from the monotonic clock (arbitrary origin,
    never steps backwards) — immediate, allocation-free, always
    available, so latency fields that exist without tracing read the
    same clock as the spans. *)

val instant : phase -> string -> arg list -> unit
val counter : phase -> string -> int -> unit

val complete : phase -> string -> t0_ns:int -> ?t1_ns:int -> arg list -> unit
(** Record a span from [t0_ns] to [t1_ns] (default: a {!now_ns} read
    here). The one duration feeds both the ring and the observer; a
    caller that already read the end time for its own use passes it as
    [t1_ns], so the span and that caller agree to the nanosecond. *)

val collect : unit -> event list
(** Every buffered event from every domain that recorded any, in
    timestamp order. Safe to call with tracing on or off (workers must
    have been joined). *)

val dropped : unit -> int
(** Events lost to ring wrap-around since the last {!enable}. *)

val reset : unit -> unit
(** Drop all buffered events and the drop counts; keep enabled state. *)
