(** Render a collected event stream for humans and machines.

    Three formats, one input ({!Trace.collect}):

    - {!to_chrome}: the Chrome [trace_event] JSON array format; load
      the file in [chrome://tracing] or {{:https://ui.perfetto.dev}
      Perfetto}. Spans are ["ph":"X"] complete events, instants
      ["ph":"i"], counters ["ph":"C"]; the domain id becomes the
      [tid], the phase the [cat]; timestamps and durations are the
      events' nanoseconds rendered as the format's microseconds.
    - {!to_jsonl}: one self-contained JSON object per line with a
      stable key order ([ts_ns], [dur_ns], [domain], [phase], [name],
      [kind], [args]; integer nanoseconds, printed exactly), for diffing
      two runs with line-oriented tools.
    - {!summary}: a human tree — per-phase/per-span-name latency
      aggregates with duration histograms, a per-rule
      fired/rejected table, and final counter values. *)

val to_chrome : Trace.event list -> string
(** A complete [{"traceEvents":[...]}] document. *)

val to_jsonl : Trace.event list -> string
(** One JSON object per event, newline-terminated lines. *)

val summary : Trace.event list -> string
(** The human-readable aggregate tree. *)
