(** Batch recovery engine: one content-addressed pipeline for all three
    recovery products — signature {!report}s, storage {!layout_report}s
    and token-interface {!classify_report}s.

    Every product runs through the same batch path ({!run_all}): inputs
    are keyed by the Keccak-256 code hash, byte-identical duplicates
    within a batch are answered once, the product's own LRU (optionally
    bounded by {!Config.cache_capacity}) answers repeats across batches,
    and the distinct misses fan out over a persistent domain pool
    ({!Pool}) with a deterministic merge — output is byte-identical
    whatever {!Config.jobs} is. Single-code calls are one-element
    batches; {!Stream} feeds any product in bounded batches. Hits,
    misses, in-batch duplicates and evictions are counted in {!stats}
    the same way for every product.

    Signature recovery reifies per-function failure into a structured
    {!outcome}, so callers can tell "no public functions" from
    "symbolic execution gave up" from "the analysis crashed".

    An engine is safe to share between domains: cache mutation happens
    under an internal lock, and every {!stats} counter is atomic.

    Engines are configured with one explicit {!Config.t} record
    ({!make}) rather than a sprawl of optional arguments. *)

(** Everything an engine's behavior depends on, in one explicit record.

    Build one with functional updates from {!Config.default}:
    {[
      Engine.make
        Config.(default |> with_jobs 4 |> with_cache_capacity 4096)
    ]}
    The configuration is part of what a cached report means, so use one
    engine per configuration. *)
module Config : sig
  type t = {
    rules : Rules.config;  (** recovery-rule switches (masks, guards…) *)
    budget : Symex.Exec.budget option;
        (** symbolic-execution budget; [None] = unbounded *)
    static_prune : bool;
        (** abstract-interpretation pre-screen that skips forking at
            branches proven calldata-independent; see
            [Stats.forks_pruned] *)
    jobs : int;
        (** upper bound on worker domains for {!run_all}; [0] (the
            default) means [Domain.recommended_domain_count ()]. This
            is a cap, not a demand: the engine never runs more domains
            than the hardware can schedule simultaneously, because
            OCaml's stop-the-world minor collector makes timesharing
            domains slower than one — on a one-core machine every
            [jobs] value is the sequential engine. *)
    cache_capacity : int;
        (** max entries in each product's LRU before eviction;
            [0] = unbounded (the one-shot CLI default — a resident
            service should set a bound) *)
  }

  val default : t
  (** [{ rules = Rules.default_config; budget = None;
        static_prune = true; jobs = 0; cache_capacity = 0 }] —
      identical behavior to the old [create ()]. *)

  val with_rules : Rules.config -> t -> t
  val with_budget : Symex.Exec.budget -> t -> t
  val without_budget : t -> t
  val with_static_prune : bool -> t -> t

  val with_jobs : int -> t -> t
  (** Clamped to [>= 0]; [0] = auto. See {!type-t.jobs}: the value is
      an upper bound, further clamped to the hardware domain count at
      run time. *)

  val with_cache_capacity : int -> t -> t
  (** Clamped to [>= 0]; [0] = unbounded. *)
end

type error = {
  selector : string;       (** 4 raw bytes; [""] for contract-level failure *)
  selector_hex : string;
  entry_pc : int;          (** [-1] for contract-level failure *)
  message : string;
}

type outcome =
  | Recovered of { result : Recover.recovered; elapsed_ns : int }
      (** [elapsed_ns] is this function's wall-clock analysis time —
          measured unconditionally, so [batch --format json] reports
          per-contract latency without tracing enabled. Never rendered
          by {!pp_outcome}: the printed report stays byte-identical
          across runs. *)
  | Budget_exhausted of {
      partial : Recover.recovered;
      paths_explored : int;
      elapsed_ns : int;
    }
      (** symbolic execution hit its path/step budget: [partial] holds
          whatever the truncated trace supported and may be missing
          parameters or refinements *)
  | Failed of error

type report = {
  code_hash : string;      (** lowercase hex Keccak-256 of the bytecode *)
  outcomes : outcome list; (** one per dispatcher entry, dispatch order;
                               empty = no public/external functions *)
  from_cache : bool;
}

type layout_report = {
  layout_code_hash : string;
      (** lowercase hex Keccak-256 of the bytecode *)
  layout : Sigrec_layout.Layout.t;
  layout_from_cache : bool;
}

type classify_report = {
  classify_code_hash : string;
      (** lowercase hex Keccak-256 of the bytecode *)
  verdict : Sigrec_classify.Classify.verdict;
  classify_from_cache : bool;
}

type t

val make : Config.t -> t
(** A fresh engine with empty caches, configured by [config]. *)

val config : t -> Config.t
(** The configuration the engine was made with. *)

(** {1 Products} *)

type 'a product
(** One recovery product: its LRU, its cold analysis, the {!Stats}
    counter a cached answer bumps, and the answer record ['a] it
    returns. *)

val reports : report product
(** Signature recovery. A fresh answer counts [Stats.cache_misses], a
    cached one [Stats.cache_hits]. *)

val layouts : layout_report product
(** The static storage-layout pass ({!Sigrec_layout.Layout}). A fresh
    answer counts [Stats.layouts_recovered], a cached one
    [Stats.layout_cache_hits]. *)

val verdicts : classify_report product
(** ERC interface classification ({!Sigrec_classify.Classify.run}): the
    signatures come through the report cache, with behavioural
    corroboration on the contract's own bytecode and the layout cache
    as lazy typed-state evidence. A fresh answer counts
    [Stats.classifications], a cached one [Stats.classify_cache_hits]. *)

val run_all : 'a product -> t -> string list -> 'a list
(** One answer per input, in input order. Duplicates within the batch
    ([Stats.inputs_deduped]) and hits in the product's LRU are answered
    without re-analysis and marked [from_cache]; the distinct misses are
    analyzed in parallel on up to [Config.jobs] domains (pooled,
    persistent across batches, never more than the hardware supports).
    The result is byte-identical to [jobs = 1]. *)

val recover : t -> string -> report
val recover_all : t -> string list -> report list
val layout : t -> string -> layout_report
val layout_all : t -> string list -> layout_report list
val classify : t -> string -> classify_report
val classify_all : t -> string list -> classify_report list
(** [recover t code] is [run_all reports t [code]] for its one answer,
    [recover_all] is [run_all reports]; likewise for layouts and
    verdicts. *)

(** Streaming: feed bytecodes one at a time, receive answers through a
    callback, and never hold more than one batch in memory.

    A session buffers up to [batch] bytecodes (default
    {!Stream.default_batch}) and pushes each full buffer through
    {!run_all}'s batch path, so worker fan-out, in-batch dedup and the
    product's LRU all apply; answers are emitted in feed order.
    Cross-batch duplicates — ~90 % of a mainnet corpus — are answered
    from the cache without re-analysis and counted in
    [Stats.stream_dedup_hits]. A session is not thread-safe; feed it
    from one thread (the engine underneath still parallelizes each
    batch). *)
module Stream : sig
  type 'a session

  (** One census heartbeat: a monotonic snapshot of the session so far,
      delivered at batch boundaries. *)
  type progress = {
    contracts : int;  (** bytecodes fed so far *)
    distinct : int;  (** answered by a fresh analysis *)
    dedup_hits : int;  (** answered from cache / in-batch dedup *)
    elapsed_ns : int;
    rate : float;  (** contracts per second since [start] *)
    heap_mb : float;  (** live major-heap size at the heartbeat *)
    eta_ns : int option;
        (** remaining time at the current rate; [None] unless the
            caller declared [expected] and it is still ahead *)
  }

  val default_batch : int
  (** 256 — large enough to amortize pool fan-out and in-batch dedup,
      small enough that buffered bytecodes stay in cache-friendly
      memory. *)

  val start_product :
    'a product ->
    ?batch:int ->
    ?progress_every:int ->
    ?progress:(progress -> unit) ->
    ?expected:int ->
    t ->
    emit:('a -> unit) ->
    'a session
  (** [emit] is called once per fed bytecode, in feed order, as each
      internal batch completes. When [progress] is given it fires at
      the first batch boundary after every [progress_every] contracts
      (default 1000) — never mid-batch, so the numbers always describe
      completed analyses — plus once at {!finish} if anything was fed
      since the last heartbeat. [expected] (a known corpus size)
      enables the [eta_ns] field. *)

  val start :
    ?batch:int ->
    ?progress_every:int ->
    ?progress:(progress -> unit) ->
    ?expected:int ->
    t ->
    emit:(report -> unit) ->
    report session
  (** [start_product reports]. *)

  val feed : 'a session -> string -> unit
  (** Buffer one bytecode; runs a batch (invoking [emit]) when the
      buffer reaches the batch size. *)

  val finish : 'a session -> int
  (** Flush the remaining partial batch and return the total number of
      bytecodes fed over the session's lifetime. *)
end

val recover_stream :
  ?batch:int -> t -> string Seq.t -> emit:(report -> unit) -> int
(** [recover_stream t codes ~emit] drains [codes] through a
    {!Stream.session} and returns the contract count. Output (the
    [emit] sequence) is report-for-report identical to
    [recover_all t (List.of_seq codes)] up to [from_cache] flags —
    which batch first analyzes a given bytecode depends on the batch
    boundaries. *)

(** {1 Introspection} *)

val stats : t -> Stats.t
(** Cumulative counters: rule usage, functions recovered, paths
    explored, each product's fresh answers and cache hits, in-batch
    duplicates and LRU evictions across all products. Worker domains
    count into it directly; a streaming reader records its line totals
    here with [Stats.add_stream_lines]. *)

val effective_jobs : t -> int
(** The worker-domain count a batch actually uses: [Config.jobs]
    clamped to the hardware ([Domain.recommended_domain_count ()]), or
    the hardware count when [jobs = 0]. The [sigrec_engine_workers]
    gauge a serve [metrics] reply reports. *)

val cache_stats : t -> (string * int * int * int) list
(** Every LRU the engine owns as [(name, length, capacity, evictions)]
    — [("reports", …); ("layouts", …); ("verdicts", …)] — read under
    the engine lock. Capacity 0 means unbounded. Feeds the cache gauges
    on the metrics surface. *)

(** {1 Reports} *)

val signatures : report -> Recover.recovered list
(** The recovered signatures including budget-exhausted partials — the
    closest equivalent of the old [Recover.recover] result. *)

val outcome_elapsed_ns : outcome -> int option
(** Per-function wall-clock analysis time; [None] for [Failed]. *)

val pp_outcome : Format.formatter -> outcome -> unit
val pp_report : Format.formatter -> report -> unit

val evidence_of_report : report -> Sigrec_classify.Classify.evidence list
(** The classification evidence a report carries: full recoveries,
    budget-exhausted partials (marked — they never support an exact
    match), and bare selectors of per-function failures. *)
