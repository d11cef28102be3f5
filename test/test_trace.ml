(* The observability layer's contract: free when off, faithful when on.

   - Disabled probes allocate nothing and recovery output is
     byte-identical with tracing, or metrics, on vs off (the drift
     invariant that lets the instrumentation live in hot paths
     permanently).
   - The Chrome exporter emits the trace_event shapes Perfetto loads;
     the JSONL exporter keeps a stable key order.
   - One clock: a span's ring duration and its metrics observation are
     the same integer.
   - Ring wrap-around drops the oldest events and counts them.
   - Rule evidence is collected even with tracing off, so `sigrec
     explain` works without a trace file. *)

module Tr = Sigrec_trace.Trace
module Ex = Sigrec_trace.Export
module Mx = Sigrec_metrics.Metrics

let compile sigs = Solc.Compile.compile (Solc.Compile.contract_of_sigs sigs)

let token () =
  let open Abi.Abity in
  compile
    [
      Abi.Funsig.make "transfer" [ Address; Uint 256 ];
      Abi.Funsig.make "balanceOf" [ Address ];
    ]

let render codes =
  String.concat "\n"
    (List.map
       (Format.asprintf "%a" Sigrec.Engine.pp_report)
       (Sigrec.Engine.recover_all
          (Sigrec.Engine.make
             Sigrec.Engine.Config.(default |> with_jobs 1))
          codes))

(* tracing on vs off, and metrics on vs off, must not change a single
   output byte — on one token contract and on the 32-contract dataset3
   corpora the bench times each layer's overhead on *)
let on_off_identical () =
  let dataset3 seed =
    List.map (fun s -> s.Solc.Corpus.code) (Solc.Corpus.dataset3 ~seed ~n:32)
  in
  List.iter
    (fun (what, codes, enable, disable) ->
      Tr.disable ();
      Mx.disable ();
      let off = render codes in
      enable ();
      let on = render codes in
      disable ();
      Tr.reset ();
      Mx.reset ();
      Alcotest.(check string) (what ^ ": rendered reports identical") off on)
    [
      ("tracing", [ token () ], (fun () -> Tr.enable ()), Tr.disable);
      ("tracing", dataset3 20230713, (fun () -> Tr.enable ()), Tr.disable);
      ("metrics", dataset3 20230717, Mx.enable, Mx.disable);
    ]

(* a disabled probe is one atomic load and a branch: zero words *)
let disabled_path_allocates_nothing () =
  Tr.disable ();
  let probe i =
    if Tr.enabled () then Tr.counter Tr.Symex "steps" i;
    if i land Tr.sample_mask () = 0 && Tr.enabled () then
      Tr.instant Tr.Rules "hit" [ ("pc", Tr.Int i) ]
  in
  probe 0;
  (* warm *)
  let m0 = Gc.minor_words () in
  for i = 1 to 10_000_000 do
    probe i
  done;
  let words = Gc.minor_words () -. m0 in
  if words > 64.0 then
    Alcotest.failf "disabled probes allocated %.0f minor words" words

let emit_sample () =
  Tr.enable ();
  Tr.instant Tr.Rules "R16"
    [ ("pc", Tr.Int 0x66); ("fired", Tr.Bool true); ("note", Tr.Str "mask") ];
  Tr.counter Tr.Symex "steps" 4096;
  let t0 = Tr.now_ns () in
  Tr.complete Tr.Engine "input" ~t0_ns:t0
    [ ("functions", Tr.Int 2); ("ratio", Tr.Float 0.5) ];
  let evs = Tr.collect () in
  Tr.disable ();
  Tr.reset ();
  evs

let chrome_shape () =
  let events = emit_sample () in
  let doc = Ex.to_chrome events in
  let contains needle =
    let n = String.length needle and h = String.length doc in
    let rec go i = i + n <= h && (String.sub doc i n = needle || go (i + 1)) in
    if not (go 0) then
      Alcotest.failf "chrome export missing %s in:\n%s" needle doc
  in
  contains "{\"traceEvents\":[";
  contains "\"displayTimeUnit\":\"ms\"";
  (* one of each phase letter: instant, counter, complete *)
  contains "\"ph\":\"i\"";
  contains "\"ph\":\"C\"";
  contains "\"ph\":\"X\"";
  (* categories come from the phase taxonomy; tid from the domain *)
  contains "\"cat\":\"rules\"";
  contains "\"cat\":\"engine\"";
  contains "\"pid\":1";
  contains "\"s\":\"t\"";
  contains "\"name\":\"R16\"";
  contains "\"pc\":102";
  (* the span's microseconds are its nanoseconds, rendered exactly *)
  let span = List.find (fun (e : Tr.event) -> e.kind = Tr.Complete) events in
  contains
    (Printf.sprintf "\"ts\":%d.%03d,\"ph\":\"X\",\"dur\":%d.%03d"
       (span.ts_ns / 1000) (span.ts_ns mod 1000) (span.dur_ns / 1000)
       (span.dur_ns mod 1000));
  (* JSONL: one object per event, keys in a stable order, integer ns *)
  let lines =
    List.filter (( <> ) "") (String.split_on_char '\n' (Ex.to_jsonl events))
  in
  Alcotest.(check int) "one JSONL line per event" (List.length events)
    (List.length lines);
  List.iter2
    (fun (e : Tr.event) line ->
      let prefix =
        Printf.sprintf
          "{\"ts_ns\":%d,\"dur_ns\":%d,\"domain\":%d,\"phase\":" e.ts_ns
          e.dur_ns e.dom
      in
      let n = Stdlib.min (String.length line) (String.length prefix) in
      Alcotest.(check string) "JSONL key order" prefix (String.sub line 0 n);
      List.iter
        (fun key ->
          let n = String.length key in
          let rec go i =
            i + n <= String.length line
            && (String.sub line i n = key || go (i + 1))
          in
          if not (go 0) then Alcotest.failf "JSONL line lacks %s: %s" key line)
        [ ",\"name\":"; ",\"kind\":"; ",\"args\":{" ])
    events lines

(* One clock: with tracing and metrics both on, every span's ring
   duration and its histogram observation come from one reading, so per
   (phase, span name) the ring's dur_ns total is the histogram's sum to
   the nanosecond. *)
let one_clock () =
  let codes =
    List.map (fun s -> s.Solc.Corpus.code) (Solc.Corpus.dataset3 ~seed:31 ~n:4)
  in
  Mx.enable ();
  Mx.reset ();
  Tr.enable ();
  ignore
    (Sigrec.Engine.classify_all
       (Sigrec.Engine.make Sigrec.Engine.Config.(default |> with_jobs 2))
       codes);
  Tr.disable ();
  Mx.disable ();
  let events = Tr.collect () in
  let dropped = Tr.dropped () in
  Tr.reset ();
  Alcotest.(check int) "ring kept every event" 0 dropped;
  let ring = Hashtbl.create 16 in
  List.iter
    (fun (e : Tr.event) ->
      if e.kind = Tr.Complete then begin
        let k = [ ("phase", Tr.phase_name e.phase); ("span", e.name) ] in
        let n, sum = Option.value ~default:(0, 0) (Hashtbl.find_opt ring k) in
        Hashtbl.replace ring k (n + 1, sum + e.dur_ns)
      end)
    events;
  let hists =
    List.filter_map
      (fun (name, labels, _, (snap : Mx.hist_snapshot)) ->
        if name = "sigrec_phase_duration_seconds" && snap.count > 0 then
          Some (labels, (snap.count, snap.sum))
        else None)
      (Mx.histograms ())
  in
  Mx.reset ();
  Alcotest.(check bool) "engine, lift, symex and rules spans seen" true
    (List.for_all
       (fun phase ->
         List.exists (fun (l, _) -> List.assoc "phase" l = phase) hists)
       [ "engine"; "lift"; "symex"; "rules" ]);
  Alcotest.(check int) "one histogram per (phase, span name)"
    (Hashtbl.length ring) (List.length hists);
  List.iter
    (fun (labels, (count, sum)) ->
      let what = String.concat "/" (List.map snd labels) in
      match Hashtbl.find_opt ring labels with
      | Some (n, ring_sum) ->
        Alcotest.(check int) (what ^ ": span count") n count;
        Alcotest.(check int) (what ^ ": ring dur_ns total = histogram sum")
          ring_sum sum
      | None -> Alcotest.failf "%s observed but never recorded" what)
    hists

let ring_wraps_and_counts_drops () =
  Tr.enable ~config:{ Tr.capacity = 16; sample_every = 1 } ();
  for i = 1 to 100 do
    Tr.instant Tr.Bench "tick" [ ("i", Tr.Int i) ]
  done;
  let evs = Tr.collect () in
  let dropped = Tr.dropped () in
  Tr.disable ();
  Tr.reset ();
  Alcotest.(check int) "ring keeps capacity" 16 (List.length evs);
  Alcotest.(check int) "drops counted" 84 dropped;
  (* the survivors are the newest events, in order *)
  match List.rev evs with
  | last :: _ ->
    Alcotest.(check bool) "newest survives" true
      (last.Tr.args = [ ("i", Tr.Int 100) ])
  | [] -> Alcotest.fail "no events"

let summary_mentions_rules () =
  let s = Ex.summary (emit_sample ()) in
  let contains needle =
    let n = String.length needle and h = String.length s in
    let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
    if not (go 0) then Alcotest.failf "summary missing %s in:\n%s" needle s
  in
  contains "rules";
  contains "R16";
  contains "engine"

(* evidence is recorded with tracing OFF: explain needs no trace file *)
let evidence_without_tracing () =
  Tr.disable ();
  let recovered = Sigrec.Recover.recover (token ()) in
  Alcotest.(check bool) "recovered something" true (recovered <> []);
  List.iter
    (fun (r : Sigrec.Recover.recovered) ->
      let ev = r.Sigrec.Recover.evidence in
      Alcotest.(check bool) "evidence nonempty" true (ev <> []);
      let fired =
        List.filter (fun (e : Sigrec.Rules.evidence) -> e.fired) ev
      in
      Alcotest.(check bool) "some rule fired" true (fired <> []);
      (* at least one firing carries a concrete program counter *)
      Alcotest.(check bool) "pc evidence present" true
        (List.exists (fun (e : Sigrec.Rules.evidence) -> e.pc >= 0) fired);
      Alcotest.(check bool) "paths explored recorded" true
        (r.Sigrec.Recover.paths_explored > 0))
    recovered;
  (* the address parameter of transfer(address,uint256) must cite R16 *)
  let transfer =
    List.find
      (fun (r : Sigrec.Recover.recovered) ->
        List.length r.Sigrec.Recover.params = 2)
      recovered
  in
  Alcotest.(check bool) "R16 cited for the address parameter" true
    (List.exists
       (fun (e : Sigrec.Rules.evidence) -> e.rule = "R16" && e.fired)
       transfer.Sigrec.Recover.evidence)

(* per-input wall clock lives in the outcome, never in the rendering *)
let elapsed_ns_in_outcomes () =
  let code = token () in
  let report =
    List.hd
      (Sigrec.Engine.recover_all
         (Sigrec.Engine.make Sigrec.Engine.Config.(default |> with_jobs 1))
         [ code ])
  in
  List.iter
    (fun o ->
      match Sigrec.Engine.outcome_elapsed_ns o with
      | Some ns -> Alcotest.(check bool) "elapsed positive" true (ns > 0)
      | None -> Alcotest.fail "recovered outcome without elapsed_ns")
    report.Sigrec.Engine.outcomes;
  (* the drift invariant: two analyses of the same input measure
     different elapsed_ns yet render byte-identically, so the timing
     field cannot have leaked into pp *)
  Alcotest.(check string) "timings never rendered"
    (Format.asprintf "%a" Sigrec.Engine.pp_report report)
    (Format.asprintf "%a" Sigrec.Engine.pp_report
       (List.hd
          (Sigrec.Engine.recover_all
             (Sigrec.Engine.make
                Sigrec.Engine.Config.(default |> with_jobs 1))
             [ code ])))

let stats_json_shape () =
  let s = Sigrec.Stats.create () in
  Sigrec.Stats.hit_rule s "R4";
  Sigrec.Stats.hit_rule s "R4";
  Sigrec.Stats.hit_rule s "R16";
  Sigrec.Stats.add_paths s 7;
  Sigrec.Stats.add_cache_hits s 1;
  let j = Sigrec.Stats.to_json s in
  let idx needle =
    let n = String.length needle and h = String.length j in
    let rec go i =
      if i + n > h then Alcotest.failf "stats json missing %s in %s" needle j
      else if String.sub j i n = needle then i
      else go (i + 1)
    in
    go 0
  in
  Alcotest.(check bool) "single line" false (String.contains j '\n');
  Alcotest.(check bool) "rules nested first" true
    (idx "{\"rules\":{" = 0);
  Alcotest.(check bool) "R4 counted" true (idx "\"R4\":2" > 0);
  Alcotest.(check bool) "R16 counted" true (idx "\"R16\":1" > 0);
  (* scalar keys appear in the descriptor-list order pp uses *)
  Alcotest.(check bool) "stable scalar order" true
    (idx "\"functions_recovered\":" < idx "\"paths_explored\":"
    && idx "\"paths_explored\":" < idx "\"cache_hits\":");
  Alcotest.(check bool) "paths value" true (idx "\"paths_explored\":7" > 0);
  Alcotest.(check bool) "cache value" true (idx "\"cache_hits\":1" > 0)

let warn_callback_fires () =
  let seen = ref [] in
  let b =
    Sigrec.Input.parse_batch
      ~warn:(fun ~line ~reason -> seen := (line, reason) :: !seen)
      "0x6001\n0xzz\n\n0x\n0x6002\n"
  in
  Alcotest.(check int) "codes parsed" 2 (List.length b.Sigrec.Input.codes);
  Alcotest.(check (list int)) "warned lines match skipped" [ 2; 4 ]
    (List.rev_map fst !seen);
  Alcotest.(check bool) "same rows as skipped" true
    (List.rev !seen = b.Sigrec.Input.skipped)

let suite =
  [
    ("tracing on/off output byte-identical", `Quick, on_off_identical);
    ( "disabled probes allocate nothing",
      `Quick,
      disabled_path_allocates_nothing );
    ("chrome export has trace_event shape", `Quick, chrome_shape);
    ("one clock: ring durations = histogram sums", `Quick, one_clock);
    ("ring wraps, drops counted", `Quick, ring_wraps_and_counts_drops);
    ("summary aggregates rules and spans", `Quick, summary_mentions_rules);
    ("evidence recorded with tracing off", `Quick, evidence_without_tracing);
    ("outcomes carry elapsed_ns, pp does not", `Quick, elapsed_ns_in_outcomes);
    ("stats json: stable keys, nested rules", `Quick, stats_json_shape);
    ("parse_batch warn callback", `Quick, warn_callback_fires);
  ]
