(** Resident recovery service (the protocol core of [sigrec serve]).

    Line-oriented JSON: one request object per line, one response line
    per request. The engine — and with it the report cache and the
    process-wide worker-domain pool — persists across requests, so a
    resident daemon answers repeated batches from a warm cache and
    never re-pays domain spawn.

    Requests: [{"id": <any>, "op": "recover", "codes": ["0x…", …]}],
    or [op] one of ["layout"], ["classify"], ["metrics"], ["ping"],
    ["shutdown"], ["stream"].
    The [id] is echoed verbatim in the response ([null] when absent or
    the request was unparseable).

    Responses (one line each):
    - recover: [{"id":…, "ok":true, "reports":[…], "warnings":
      [{"index":N, "reason":"…"}]}] — reports rendered by
      {!Render.report} in input order (skipped entries excluded);
      warnings carry the 0-based index of each malformed ["codes"]
      entry, routed into the response stream rather than stderr;
    - layout / classify: same shape with ["layouts"]
      ({!Render.layout_report}) / ["classifications"]
      ({!Render.classify_report}) instead of ["reports"] — repeated
      classifications of the same bytecode are answered from the
      engine's verdict LRU ([from_cache] flips to [true] and
      [Stats.classify_cache_hits] counts them);
    - metrics: [{"id":…, "ok":true, "format":"openmetrics",
      "exposition":"…"}] — the OpenMetrics exposition
      ({!Sigrec_metrics.Metrics.expose}) of the process-wide registry
      (phase and request latency histograms, pool hand-off, GC gauges)
      and the engine's {!Stats} registry (every counter family, rule
      firings as [sigrec_rule_fired{rule=…}], the per-LRU
      [sigrec_lru_*] figures, [sigrec_pool_workers],
      [sigrec_engine_workers] — {!Engine.effective_jobs} —,
      [sigrec_serve_requests] and [sigrec_serve_uptime_seconds]) as
      one JSON-escaped string. ["format"] may be omitted or
      ["openmetrics"]; any other value is an error.
      [{"op":"metrics","top":true}] answers with ["slowest"] instead,
      the top-K slowest-contracts ring ([code_hash] / [elapsed_ns] /
      per-phase [detail]);
    - any error: [{"id":…, "ok":false, "error":"…"}] — a malformed
      request never kills the daemon.

    {b Streaming.} [{"id":X, "op":"stream"}] is acked with
    [{"id":X, "ok":true, "streaming":true}], after which the
    connection carries corpus lines — the batch-file grammar: one hex
    bytecode per line, blank lines and [#] comments skipped — until a
    lone ["."] line (back to request mode) or EOF. The server answers
    with one [{"id":X, "report":…}] line per contract in feed order
    (batched through {!Engine.Stream}, so cross-batch duplicates are
    answered from the warm cache), in-band
    [{"id":X, "warning":{"line":N, "reason":…}}] lines for malformed
    input, and a final
    [{"id":X, "ok":true, "done":true, "contracts":…, "lines":…,
    "skipped":…, "dedup_hits":…}] summary. Constant memory: at most
    one batch of bytecodes is resident at a time.

    {b Line cap.} No line is held beyond
    {!Input.default_max_line_bytes} (4 MiB). An oversized request is
    answered [{"id":null, "ok":false, "error":"request line exceeds
    4194304 bytes"}]; an oversized corpus line in streaming mode is an
    in-band warning with reason ["line exceeds 4194304 bytes"] and
    counts as skipped. The session continues in both cases. *)

type t

val create : Engine.Config.t -> t
(** A fresh service around a fresh engine. *)

val engine : t -> Engine.t

type reply = {
  response : string; (** one JSON line, no trailing newline *)
  shutdown : bool;  (** true after a ["shutdown"] request *)
  stream : string option;
      (** [Some id] after a ["stream"] request: once the ack is
          written, the channel owner must switch the connection into
          corpus-line mode ({!run} does this internally) *)
}

val handle_line : t -> string -> reply
(** Handle one request line. Never raises. *)

val run : t -> in_channel -> out_channel -> [ `Eof | `Shutdown ]
(** Serve until EOF or a ["shutdown"] request; each response line is
    flushed before the next request is read. Blank lines are skipped.
    A ["stream"] request switches the connection into streaming mode
    until its sentinel or EOF. The result tells a socket listener
    whether to keep accepting ([`Eof] — the client hung up) or stop
    the daemon ([`Shutdown]). *)
