(** Typed metric registry: the runtime-health counterpart of the trace
    rings.

    Where {!Sigrec_trace.Trace} answers "what happened during this
    run" (a bounded event log you export and read offline), this module
    answers "how is the process doing right now": monotonic counters,
    gauges, and log-bucketed latency/size histograms that a resident
    service scrapes live in OpenMetrics/Prometheus text format
    ({!expose}).

    Design points, mirroring the trace layer so the two stay cheap the
    same way:

    - {b integer observations.} Histograms record [int] values
      (nanoseconds, bytes); a [float] argument would be boxed at every
      call. The unit conversion (ns → seconds for exposition) is a
      per-histogram [scale] applied at read time.
    - {b per-domain shards merged at read.} [observe] touches only this
      domain's shard ([Domain.DLS]) — a fixed bucket array increment
      plus a sum/count update, no lock, no allocation. Shards register
      themselves in the histogram on first use and {!snapshot} folds
      them together, exactly like the trace ring registry.
    - {b allocation-free disabled path.} Producers guard with
      [if Metrics.enabled () then Metrics.observe h v] — one atomic
      load when metrics are off: zero allocation is a tier-1 test, the
      <50 ns cost a [bench/main.exe --smoke] gate.
    - {b one counter system.} The engine's analysis counters
      ([Sigrec.Stats]) are counters in a registry of their own, so
      counters, histograms and gauges all come out of one {!expose}
      call over the registries a scraper wants.

    {!enable} additionally installs the {!Sigrec_trace.Trace} span
    observer, so every span close (engine input/function/classify,
    lift, absint fixpoint, symex run, layout pass…) feeds a per-phase
    wall-time histogram without new instrumentation at the call
    sites. *)

type registry

val create_registry : unit -> registry
(** A private registry: one per engine's counters, and for tests and
    goldens. *)

val default : registry
(** The process-wide registry: what {!enable}, the serve endpoint and
    the [sigrec metrics] subcommand all use. *)

val enabled : unit -> bool
(** One atomic load; the guard for every producer-side observation. *)

val enable : unit -> unit
(** Turn collection on and install the trace span observer (per-phase
    latency histograms in {!default}). Idempotent. *)

val disable : unit -> unit
(** Turn collection off and remove the span observer. Existing values
    remain readable. *)

val reset : ?registry:registry -> unit -> unit
(** Zero every counter, gauge and histogram shard in [registry]
    (default {!default}); the top-K ring is untouched.
    Bench plumbing — production never resets. *)

(** {1 Counters} *)

type counter

val counter :
  ?registry:registry ->
  ?help:string ->
  ?labels:(string * string) list ->
  string ->
  counter
(** [counter name] finds or creates the monotonic counter [name] (the
    family name {e without} the OpenMetrics [_total] suffix — that is
    added at exposition). Find-or-create keyed on [(name, labels)], so
    re-creation from independent call sites is safe and cheap. *)

val inc : counter -> unit
val add : counter -> int -> unit
(** One atomic fetch-and-add: exact under any number of concurrent
    writers, no lock, no allocation. *)

val counter_value : counter -> int

(** {1 Gauges} *)

type gauge

val gauge :
  ?registry:registry ->
  ?help:string ->
  ?labels:(string * string) list ->
  string ->
  gauge

val set_gauge : gauge -> float -> unit

(** {1 Histograms} *)

type histogram

val default_latency_buckets : int array
(** Log-spaced upper bounds in nanoseconds, 1 µs … ~67 s in powers of
    4 (14 buckets plus the implicit +Inf overflow): wide enough for a
    dispatcher probe and an adversarial symex tail in the same
    histogram, small enough that a shard is one cache line of
    counts. *)

val log_buckets : base:int -> lo:int -> count:int -> int array
(** [log_buckets ~base ~lo ~count] = [lo, lo*base, lo*base^2, …]
    ([count] bounds). *)

val histogram :
  ?registry:registry ->
  ?help:string ->
  ?labels:(string * string) list ->
  ?buckets:int array ->
  ?scale:float ->
  string ->
  histogram
(** Find-or-create, like {!counter}. [buckets] are ascending upper
    bounds (default {!default_latency_buckets}); [scale] converts the
    integer unit to the exposition unit (default [1e-9]: nanoseconds
    in, seconds out). *)

val observe : histogram -> int -> unit
(** Record one observation into this domain's shard: a bounded linear
    scan of the bucket bounds plus three stores. No lock, no
    allocation — hot-path safe behind [if enabled () then …]. *)

type hist_snapshot = {
  bounds : int array;  (** the histogram's upper bounds (unscaled) *)
  buckets : int array; (** per-bucket counts, [length bounds + 1]
                           (last = overflow), merged across shards *)
  sum : int;
  count : int;
}

val snapshot : histogram -> hist_snapshot
(** Merge every domain's shard. Concurrent observes may or may not be
    included (racy integer reads, like the trace rings) — exact once
    the producing domains are quiescent. *)

val merge_snapshots : hist_snapshot -> hist_snapshot -> hist_snapshot
(** Bucket-wise sum; the two snapshots must share [bounds]. Merging is
    associative and commutative — the shard-merge oracle in the bench
    checks the end-to-end version of this. *)

val quantile : hist_snapshot -> float -> float
(** [quantile s q] estimates the [q]-quantile (0 < q <= 1) as the
    {e scaled} upper bound of the bucket holding that rank — within
    one bucket of the exact sample quantile by construction. [nan] on
    an empty snapshot; the overflow bucket answers [infinity]. *)

val histograms :
  ?registry:registry ->
  unit ->
  (string * (string * string) list * float * hist_snapshot) list
(** Every histogram in creation order as
    [(name, labels, scale, snapshot)] — the bench reads per-phase
    p50/p99 through this. *)

(** {1 Exposition} *)

val expose : registry list -> string
(** OpenMetrics text format over every metric of the given registries:
    one family per name, in order of its first member, all its samples
    together ([# TYPE]/[# HELP] headers, [_total] counter suffix,
    cumulative [le]-labelled histogram buckets with [_sum]/[_count]),
    then the [# EOF] terminator. *)

(** {1 Runtime health helpers} *)

val sample_gc : unit -> unit
(** Sample [Gc.quick_stat] into gauges in {!default}
    ([sigrec_gc_minor_words], [_major_words], [_compactions],
    [_heap_bytes], [_top_heap_bytes]). Called per batch by the engine
    and per scrape by the serve endpoint. *)

(** Top-K slowest-contracts ring: the adversarial tail, by code hash.
    Bounded at {!Top.capacity}; insertion is O(K) under a mutex and
    only happens when metrics are enabled. *)
module Top : sig
  type entry = {
    key : string;  (** hex code hash *)
    elapsed_ns : int;
    detail : (string * int) list;  (** phase breakdown, e.g. lift/analysis ns *)
  }

  val capacity : int
  (** 16. *)

  val record : key:string -> elapsed_ns:int -> detail:(string * int) list -> unit
  (** Keep if among the [capacity] slowest seen; duplicate keys keep
      the slower observation. *)

  val slowest : unit -> entry list
  (** Slowest first. *)

  val reset : unit -> unit
end
