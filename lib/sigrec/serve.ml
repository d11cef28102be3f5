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
  mutable requests : int; (* requests answered, including failed ones *)
  mutable last_op : string; (* op of the request being handled, for the
                               per-op latency histogram *)
}

(* The engine-side exposition chunk: the Stats descriptor list rendered
   as counter families, plus the LRU/pool/service gauges that live in
   engine or serve state rather than the metric registry. Registered as
   a collector so [Metrics.expose] emits one self-contained surface. *)
let engine_exposition t () =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Stats.to_openmetrics (Engine.stats t.engine));
  (* [lru] prefix, not [cache]: the Stats descriptor list already owns
     the sigrec_cache_* family names (hits/misses/evictions of the
     report cache), and a family must not appear twice in one
     exposition *)
  let caches = Engine.cache_stats t.engine in
  Buffer.add_string b "# TYPE sigrec_lru_entries gauge\n";
  List.iter
    (fun (name, len, _, _) ->
      Buffer.add_string b
        (Printf.sprintf "sigrec_lru_entries{cache=%S} %d\n" name len))
    caches;
  Buffer.add_string b "# TYPE sigrec_lru_capacity gauge\n";
  List.iter
    (fun (name, _, cap, _) ->
      Buffer.add_string b
        (Printf.sprintf "sigrec_lru_capacity{cache=%S} %d\n" name cap))
    caches;
  Buffer.add_string b "# TYPE sigrec_lru_evictions counter\n";
  List.iter
    (fun (name, _, _, ev) ->
      Buffer.add_string b
        (Printf.sprintf "sigrec_lru_evictions_total{cache=%S} %d\n" name ev))
    caches;
  Buffer.add_string b "# TYPE sigrec_pool_workers gauge\n";
  Buffer.add_string b
    (Printf.sprintf "sigrec_pool_workers %d\n" (Pool.workers ()));
  Buffer.add_string b "# TYPE sigrec_engine_workers gauge\n";
  Buffer.add_string b
    (Printf.sprintf "sigrec_engine_workers %d\n"
       (Engine.effective_jobs t.engine));
  Buffer.add_string b "# TYPE sigrec_serve_requests counter\n";
  Buffer.add_string b
    (Printf.sprintf "sigrec_serve_requests_total %d\n" t.requests);
  Buffer.add_string b "# TYPE sigrec_serve_uptime_seconds gauge\n";
  Buffer.add_string b
    (Printf.sprintf "sigrec_serve_uptime_seconds %.3f\n"
       (float_of_int (Tr.now_ns () - t.started_ns) *. 1e-9));
  Buffer.contents b

let create config =
  let t =
    {
      engine = Engine.make config;
      started_ns = Tr.now_ns ();
      requests = 0;
      last_op = "other";
    }
  in
  (* replace-by-name: the newest service owns the process-wide chunk,
     so tests creating many services stay well-defined *)
  Mx.register_collector ~name:"engine" (engine_exposition t);
  t

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

let metrics_response t id =
  let stats = Engine.stats t.engine in
  Json.obj
    [
      ("id", id);
      ("ok", "true");
      ("requests", string_of_int t.requests);
      ("uptime_ns", string_of_int (Tr.now_ns () - t.started_ns));
      ("cache_size", string_of_int (Engine.cache_size t.engine));
      ( "cache_capacity",
        string_of_int (Engine.config t.engine).Engine.Config.cache_capacity
      );
      ("pool_workers", string_of_int (Pool.workers ()));
      ("workers", string_of_int (Engine.effective_jobs t.engine));
      ("trace_enabled", string_of_bool (Tr.recording ()));
      ("stats", Stats.to_json stats);
    ]

(* v2 of the metrics op: {"op":"metrics","format":"openmetrics"} gets
   the full Prometheus-scrapeable exposition (registry histograms and
   gauges plus the engine collector chunk) as one JSON-escaped string
   field; the legacy JSON shape above stays the default. *)
let openmetrics_response id =
  Mx.sample_gc ();
  Json.obj
    [
      ("id", id);
      ("ok", "true");
      ("format", Json.quote "openmetrics");
      ("exposition", Json.quote (Mx.expose ()));
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
  t.requests <- t.requests + 1;
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
              | Some f when Json.to_string_opt f = Some "openmetrics" ->
                reply (openmetrics_response id)
              | Some _ ->
                reply
                  (error_response id
                     "unknown \"format\" (expected \"openmetrics\")")
              | None -> reply (metrics_response t id)))
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

(* Streaming mode: after a {"op":"stream"} ack the connection carries
   corpus lines — the same grammar as a batch file (hex bytecodes,
   blank lines and # comments skipped) — until a lone "." sentinel
   (back to request mode) or EOF. Each contract's report goes out as
   one {"id":…,"report":…} line in feed order; malformed lines become
   in-band {"id":…,"warning":…} lines so stderr stays quiet on a
   socket. Batching, cross-batch dedup against the engine's report
   cache and worker fan-out all come from [Engine.Stream]. *)
let run_stream t id ic oc =
  let emit_line s =
    Out_channel.output_string oc s;
    Out_channel.output_char oc '\n';
    Out_channel.flush oc
  in
  let dedup = ref 0 in
  let emit r =
    if r.Engine.from_cache then incr dedup;
    emit_line (Json.obj [ ("id", id); ("report", Render.report r) ])
  in
  let session = Engine.Stream.start t.engine ~emit in
  let lines = ref 0 and skipped = ref 0 in
  let eof = ref false and ended = ref false in
  while not !ended do
    match In_channel.input_line ic with
    | None ->
      eof := true;
      ended := true
    | Some line ->
      if String.trim line = "." then ended := true
      else begin
        incr lines;
        match Input.parse_line line with
        | `Blank -> ()
        | `Code code -> Engine.Stream.feed session code
        | `Bad reason ->
          incr skipped;
          emit_line
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
      end
  done;
  let contracts = Engine.Stream.finish session in
  Engine.add_stream_lines t.engine ~lines:!lines ~skipped:!skipped;
  emit_line
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

let run t ic oc =
  let rec loop () =
    match In_channel.input_line ic with
    | None -> `Eof
    | Some line ->
      if String.trim line = "" then loop ()
      else begin
        let reply = handle_line t line in
        Out_channel.output_string oc reply.response;
        Out_channel.output_char oc '\n';
        Out_channel.flush oc;
        if reply.shutdown then `Shutdown
        else
          match reply.stream with
          | None -> loop ()
          | Some id ->
            (match run_stream t id ic oc with
            | `Eof -> `Eof
            | `Done -> loop ())
      end
  in
  loop ()
