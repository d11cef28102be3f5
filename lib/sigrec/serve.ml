(* Resident recovery service: the protocol core of [sigrec serve].

   Line-oriented JSON over any channel pair — stdin/stdout or an
   accepted Unix-socket connection (the listener lives in the CLI,
   which owns the unix dependency). One request per line, one response
   line per request, flushed immediately. The engine persists across
   requests, so its report cache and the process-wide domain pool stay
   warm: repeated batches hit the cache and never pay domain spawn
   again.

   A malformed request produces an {"ok":false} response, never a dead
   daemon: [handle_line] catches everything. *)

module Tr = Sigrec_trace.Trace
module Mx = Sigrec_metrics.Metrics

type t = {
  engine : Engine.t;
  started_ns : int;
  requests : Mx.counter; (* requests answered, including failed ones *)
  mutable last_op : string; (* op of the request being handled, for the
                               per-op latency histogram *)
}

(* The service's own figures live in the engine's registry, next to the
   counters they describe, so one service's exposition never mixes in
   another's. *)
let create config =
  let engine = Engine.make config in
  {
    engine;
    started_ns = Tr.now_ns ();
    requests =
      Mx.counter
        ~registry:(Stats.registry (Engine.stats engine))
        "sigrec_serve_requests";
    last_op = "other";
  }

let engine t = t.engine

type reply = {
  response : string; (* one JSON line, no trailing newline *)
  shutdown : bool;
  stream : string option;
      (* [Some id] after a "stream" request: the caller owning the
         channel pair should switch to corpus-line input (see
         [run_stream]) once the ack is written *)
}

let reply response = { response; shutdown = false; stream = None }

let error_response id msg =
  Json.obj [ ("id", id); ("ok", "false"); ("error", Json.quote msg) ]

let warning_json (index, reason) =
  Json.obj
    [ ("index", string_of_int index); ("reason", Json.quote reason) ]

(* The ops that answer a "codes" array: op -> (response field, the
   engine product behind it, rendered). *)
let codes_ops =
  let op field product render =
    ( field,
      fun engine codes -> List.map render (Engine.run_all product engine codes)
    )
  in
  [
    ("recover", op "reports" Engine.reports Render.report);
    ("layout", op "layouts" Engine.layouts Render.layout_report);
    ("classify", op "classifications" Engine.verdicts Render.classify_report);
  ]

let codes_response t id (field, answer) req =
  match Option.bind (Json.member "codes" req) Json.to_list_opt with
  | Some items when List.for_all (fun v -> Json.to_string_opt v <> None) items
    ->
    let batch = Input.parse_codes (List.filter_map Json.to_string_opt items) in
    Json.obj
      [
        ("id", id);
        ("ok", "true");
        (field, Json.arr (answer t.engine batch.Input.codes));
        ("warnings", Json.arr (List.map warning_json batch.Input.skipped));
      ]
  | _ -> error_response id "\"codes\" must be an array of hex strings"

(* The metrics op: the OpenMetrics exposition of the process-wide
   registry (phase and request latency, pool hand-off, GC) and the
   engine's (its counters plus the LRU, worker and service figures,
   refreshed here), as one JSON-escaped string field. *)
let metrics_response t id =
  let registry = Stats.registry (Engine.stats t.engine) in
  let set ?labels name v =
    Mx.set_gauge (Mx.gauge ~registry ?labels name) (float_of_int v)
  in
  List.iter
    (fun (name, len, cap, ev) ->
      let labels = [ ("cache", name) ] in
      set ~labels "sigrec_lru_entries" len;
      set ~labels "sigrec_lru_capacity" cap;
      (* the LRU counts its own evictions; its counter catches up *)
      let c = Mx.counter ~registry ~labels "sigrec_lru_evictions" in
      Mx.add c (ev - Mx.counter_value c))
    (Engine.cache_stats t.engine);
  set "sigrec_pool_workers" (Pool.workers ());
  set "sigrec_engine_workers" (Engine.effective_jobs t.engine);
  Mx.set_gauge
    (Mx.gauge ~registry "sigrec_serve_uptime_seconds")
    (float_of_int (Tr.now_ns () - t.started_ns) *. 1e-9);
  Mx.sample_gc ();
  Json.obj
    [
      ("id", id);
      ("ok", "true");
      ("format", Json.quote "openmetrics");
      ("exposition", Json.quote (Mx.expose [ Mx.default; registry ]));
    ]

let top_response id =
  Json.obj
    [
      ("id", id);
      ("ok", "true");
      ( "slowest",
        Json.arr
          (List.map
             (fun (e : Mx.Top.entry) ->
               Json.obj
                 [
                   ("code_hash", Json.quote e.Mx.Top.key);
                   ("elapsed_ns", string_of_int e.Mx.Top.elapsed_ns);
                   ( "detail",
                     Json.obj
                       (List.map
                          (fun (k, v) -> (k, string_of_int v))
                          e.Mx.Top.detail) );
                 ])
             (Mx.Top.slowest ())) );
    ]

let handle_line t line =
  Mx.inc t.requests;
  match Json.parse line with
  | Error msg -> reply (error_response "null" ("parse error " ^ msg))
  | Ok req ->
    let id =
      match Json.member "id" req with
      | Some v -> Json.to_string v
      | None -> "null"
    in
    let result =
      match Json.member "op" req with
      | None -> reply (error_response id "missing \"op\"")
      | Some op ->
        (match Json.to_string_opt op with
        | None -> reply (error_response id "\"op\" must be a string")
        | Some opname ->
          t.last_op <-
            (match opname with
            | "ping" | "shutdown" | "metrics" | "stream" -> opname
            | op when List.mem_assoc op codes_ops -> op
            | _ -> "other");
          (match opname with
          | op when List.mem_assoc op codes_ops ->
            reply (codes_response t id (List.assoc op codes_ops) req)
          | "ping" ->
            reply (Json.obj [ ("id", id); ("ok", "true"); ("pong", "true") ])
          | "shutdown" ->
            {
              response =
                Json.obj [ ("id", id); ("ok", "true"); ("shutdown", "true") ];
              shutdown = true;
              stream = None;
            }
          | "metrics" ->
            (match Json.member "top" req with
            | Some _ -> reply (top_response id)
            | None ->
              (match Json.member "format" req with
              | Some f when Json.to_string_opt f <> Some "openmetrics" ->
                reply
                  (error_response id
                     "unknown \"format\" (expected \"openmetrics\")")
              | _ -> reply (metrics_response t id)))
          | "stream" ->
            {
              response =
                Json.obj
                  [ ("id", id); ("ok", "true"); ("streaming", "true") ];
              shutdown = false;
              stream = Some id;
            }
          | op ->
            reply (error_response id (Printf.sprintf "unknown op %S" op))))
    in
    result

(* Belt and braces: the engine reifies analysis failures into Failed
   outcomes already, so exceptions here mean a bug in the protocol
   layer itself — answer with ok:false rather than killing the daemon.
   This wrapper also owns the per-request latency histogram: one
   observation per line, labelled by the op the dispatch resolved. *)
let handle_line t line =
  t.last_op <- "other";
  let t0 = if Mx.enabled () then Tr.now_ns () else 0 in
  let result =
    try handle_line t line
    with e ->
      reply
        (error_response "null" ("internal error: " ^ Printexc.to_string e))
  in
  if t0 <> 0 && Mx.enabled () then
    Mx.observe
      (Mx.histogram ~help:"serve request latency by op"
         ~labels:[ ("op", t.last_op) ]
         "sigrec_request_duration_seconds")
      (Tr.now_ns () - t0);
  result

let write_line oc s =
  Out_channel.output_string oc s;
  Out_channel.output_char oc '\n';
  Out_channel.flush oc

(* Streaming mode: after a {"op":"stream"} ack the connection carries
   corpus lines — the same grammar as a batch file (hex bytecodes,
   blank lines and # comments skipped) — until a lone "." sentinel
   (back to request mode) or EOF. Each contract's report goes out as
   one {"id":…,"report":…} line in feed order; malformed and oversized
   lines become in-band {"id":…,"warning":…} lines so stderr stays
   quiet on a socket. Batching, cross-batch dedup against the engine's
   report cache and worker fan-out all come from [Engine.Stream]. *)
let run_stream t id r oc =
  let dedup = ref 0 in
  let emit r =
    if r.Engine.from_cache then incr dedup;
    write_line oc (Json.obj [ ("id", id); ("report", Render.report r) ])
  in
  let session = Engine.Stream.start t.engine ~emit in
  let lines = ref 0 and skipped = ref 0 in
  let warn reason =
    incr skipped;
    write_line oc
      (Json.obj
         [
           ("id", id);
           ( "warning",
             Json.obj
               [
                 ("line", string_of_int !lines);
                 ("reason", Json.quote reason);
               ] );
         ])
  in
  let eof = ref false and ended = ref false in
  while not !ended do
    match Input.next_line r with
    | `Eof ->
      eof := true;
      ended := true
    | `Too_long ->
      incr lines;
      warn (Input.too_long r)
    | `Line line ->
      if String.trim line = "." then ended := true
      else begin
        incr lines;
        match Input.parse_line line with
        | `Blank -> ()
        | `Code code -> Engine.Stream.feed session code
        | `Bad reason -> warn reason
      end
  done;
  let contracts = Engine.Stream.finish session in
  Stats.add_stream_lines (Engine.stats t.engine) ~lines:!lines
    ~skipped:!skipped;
  write_line oc
    (Json.obj
       [
         ("id", id);
         ("ok", "true");
         ("done", "true");
         ("contracts", string_of_int contracts);
         ("lines", string_of_int !lines);
         ("skipped", string_of_int !skipped);
         ("dedup_hits", string_of_int !dedup);
       ]);
  if !eof then `Eof else `Done

(* Both modes read the connection through one [Input.reader], so bytes
   buffered past a "." sentinel are still there for the request loop,
   and a client that never sends a newline cannot grow the heap. *)
let run t ic oc =
  let r =
    Input.reader (fun buf -> In_channel.input ic buf 0 (Bytes.length buf))
  in
  let rec loop () =
    match Input.next_line r with
    | `Eof -> `Eof
    | `Too_long ->
      Mx.inc t.requests;
      write_line oc (error_response "null" ("request " ^ Input.too_long r));
      loop ()
    | `Line line ->
      if String.trim line = "" then loop ()
      else begin
        let reply = handle_line t line in
        write_line oc reply.response;
        if reply.shutdown then `Shutdown
        else
          match reply.stream with
          | None -> loop ()
          | Some id ->
            (match run_stream t id r oc with
            | `Eof -> `Eof
            | `Done -> loop ())
      end
  in
  loop ()
