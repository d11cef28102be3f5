(** Typed analysis counters: per-rule usage counts (Fig. 19), each
    product's fresh answers and cache hits, the symbolic-execution path
    totals, stream and lint tallies.

    A [t] is a private {!Sigrec_metrics.Metrics} registry holding one
    counter per scalar (family [sigrec_<name>], in the descriptor order
    {!scalar_counters} lists) and the 31 rule counters as one
    [sigrec_rule_fired] family labelled by [rule]. Every update is one
    atomic add, so any number of domains count into one [t] exactly,
    without a lock and without a merge step. *)

type t

val create : unit -> t

val registry : t -> Sigrec_metrics.Metrics.registry
(** The registry behind the counters, for exposition
    ({!Sigrec_metrics.Metrics.expose}) and for figures that belong next
    to them (the engine's LRU and the service's request gauges). *)

val hit_rule : t -> string -> unit
(** Count one firing of the named rule (["R1"] .. ["R31"]).
    @raise Invalid_argument on any other name. *)

val rule_count : t -> string -> int
(** Firings recorded for the named rule; 0 when never fired. *)

val rule_counts : t -> (string * int) list
(** All 31 rules in numbering order, including zero counts. *)

val unexercised : t -> string list
(** The canonical rules (R1-R31) with a zero count, in numbering order.
    The property harness turns this into a regression gate: a run over
    the generated corpus must leave it empty, so silently disabling a
    rule fails the suite instead of just shifting an accuracy figure. *)

val add_cache_hits : t -> int -> unit
val cache_miss : t -> unit
val cache_hits : t -> int
val cache_misses : t -> int
(** Signature reports: a miss is an actual analysis; a hit is a
    bytecode answered from the report cache (or by an earlier input of
    the same batch). *)

val add_paths : t -> int -> unit
val paths_explored : t -> int
(** Total symbolic-execution paths explored across all inferences. *)

val functions_recovered : t -> int
val add_functions : t -> int -> unit

val add_pruned : t -> int -> unit
val forks_pruned : t -> int
(** JUMPI forks the executor skipped on a static prune hint. *)

val lint_agree : t -> unit
val lint_disagree : t -> unit
val lint_agreements : t -> int
val lint_disagreements : t -> int
(** Differential-lint verdicts: a function whose TASE recovery and
    static summary produced no finding counts as one agreement. *)

val add_deduped : t -> int -> unit
val inputs_deduped : t -> int
(** Batch inputs, of any product, that the engine answered by pointing
    at an earlier input of the same batch with identical bytecode.
    They are also counted as that product's cache hits. *)

val add_interner : t -> hits:int -> misses:int -> unit
val intern_hits : t -> int
val intern_misses : t -> int
(** Expression-interner traffic ({!Symex.Sexpr.interner_counters})
    attributed to the engine's analyses: a miss allocates a fresh node,
    a hit reuses one. Recorded as per-analysis deltas of the worker
    domain's counters. *)

val add_evictions : t -> int -> unit
val cache_evictions : t -> int
(** Entries any of the engine's LRUs (reports, layouts, verdicts)
    dropped to stay within the configured capacity
    ([Engine.Config.cache_capacity]); 0 when the caches are unbounded.
    Equals the eviction total of [Engine.cache_stats]. *)

val add_layout : t -> slots:int -> unknown:int -> unit
(** Count one storage-layout recovery: [slots] declared slots found,
    [unknown] storage operations whose slot the pass could not
    resolve. *)

val add_layout_cache_hits : t -> int -> unit
(** Count layouts answered from the layout LRU or by an earlier input
    of the same batch. *)

val layouts_recovered : t -> int
val layout_slots : t -> int
val layout_unknown_ops : t -> int
val layout_cache_hits : t -> int

val add_stream_lines : t -> lines:int -> skipped:int -> unit
(** Count physical input lines a streaming reader processed and how
    many of them it skipped as malformed. *)

val add_stream_dedup : t -> int -> unit
(** Count streamed bytecodes, of any product, answered from the
    product's cache or by a duplicate earlier in the stream, without a
    fresh analysis. *)

val stream_lines : t -> int
val stream_skipped : t -> int
val stream_dedup_hits : t -> int

val add_classification :
  t -> outcome:[ `Exact | `Partial | `Unknown ] -> probes:int -> unit
(** Count one fresh interface classification by its verdict level,
    plus the behavioural probes it spent. *)

val add_classify_cache_hits : t -> int -> unit
(** Count classifications answered from the verdict LRU or by an
    earlier input of the same batch. *)

val classifications : t -> int
val classify_exact : t -> int
val classify_partial : t -> int
val classify_unknown : t -> int
val classify_probes : t -> int
val classify_cache_hits : t -> int

val pp : Format.formatter -> t -> unit
(** Human-readable dump: non-zero rule counters, cache ratio, paths. *)

val to_json : t -> string
(** One JSON object with a stable key order: a ["rules"] sub-object
    holding all 31 canonical counters (zeros included) and then every
    scalar counter. [pp] and [to_json] read the scalars through the
    same descriptor list, so the two field sets cannot drift apart. *)

val scalar_counters : t -> (string * int) list
(** Every scalar counter with its current value, in the canonical
    descriptor order both {!pp} and {!to_json} render through —
    exported so tests can assert the rendered surfaces stay in sync
    with the descriptor list. *)
