(* End-to-end rounds: the program as users run it, tracing off.

   A round reads the generated input file through the program's public
   entry points and writes every answer to an output file; the checker
   reads both back afterwards. Nothing is measured after the last
   answer is written except the process's own peak RSS. *)

module Engine = Sigrec.Engine

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Machine-wide CPU time stolen by the hypervisor and CPU time used, in
   clock ticks, from the aggregate line of /proc/stat. *)
let steal_busy () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some l -> (
    match List.filter (( <> ) "") (String.split_on_char ' ' l) with
    | "cpu" :: user :: nice :: sys :: _idle :: _iowait :: irq :: softirq :: steal :: _ ->
      let i = int_of_string in
      (i steal, i user + i nice + i sys + i irq + i softirq)
    | _ -> (0, 0))
  | None | (exception Sys_error _) -> (0, 0)

(* The stolen share of the CPU time the machine wanted between two
   [steal_busy] readings. *)
let steal_share (s0, b0) (s1, b1) =
  let s = s1 - s0 and b = b1 - b0 in
  if s + b <= 0 then 0. else float_of_int s /. float_of_int (s + b)

(* VmHWM: the process's peak resident set, in MiB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> nan
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> go ()
      in
      go ())

(* A growable int buffer: latencies are recorded without boxing. *)
module Ints = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let push t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let contents t = Array.sub t.a 0 t.n
end

(* Nearest-rank quantile of a sorted array. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    sorted.(Stdlib.max 0 (Stdlib.min n rank - 1))

(* What one round measured; the answers it gave are counted by the
   checker. *)
type round = {
  setup_s : float;  (** engine or service creation and pool spawn *)
  requests : int;  (** input lines (cold, census) or request lines (serve) *)
  wall_s : float;
  cpu_s : float;
  rss_mb : float;
  latencies : int array;  (** per answer (serve: per request), ns, in answer order *)
  skipped : int;  (** malformed input lines *)
  steal : float;  (** stolen share of the CPU time the host wanted *)
}

let config_of ~jobs =
  let base = Engine.Config.default in
  match jobs with None -> base | Some j -> Engine.Config.with_jobs j base

(* Engine creation plus the worker-pool spawn a first batch would
   otherwise pay: the time before the first input line is accepted. *)
let engine_setup config =
  let t0 = now_ns () in
  let engine = Engine.make config in
  Sigrec.Pool.ensure (Engine.effective_jobs engine - 1);
  (engine, float_of_int (now_ns () - t0) /. 1e9)

(* Time spent in [pause] inside the measured region, which its wall
   time leaves out. *)
let paused_ns = ref 0

(* Stops the clock until the driver answers: prints [pause] and waits
   for a line on stdin, while run.py times its host-speed kernel with
   this process idle. *)
let pause () =
  let t0 = now_ns () in
  print_endline "pause";
  if In_channel.input_line stdin = None then failwith "stdin closed during a pause";
  paused_ns := !paused_ns + (now_ns () - t0)

(* Times the measured region [f], which records one latency per answer
   in the buffer it is given and returns the requests it read and the
   input lines it skipped. *)
let measure ~setup_s f =
  let lat = Ints.create () in
  paused_ns := 0;
  let w0 = now_ns () and c0 = cpu_s () and s0 = steal_busy () in
  let requests, skipped = f lat in
  let wall_s = float_of_int (now_ns () - w0 - !paused_ns) /. 1e9 in
  let cpu = cpu_s () -. c0 in
  let steal = steal_share s0 (steal_busy ()) in
  {
    setup_s;
    requests;
    wall_s;
    cpu_s = cpu;
    rss_mb = peak_rss_mb ();
    latencies = Ints.contents lat;
    skipped;
    steal;
  }

(* The clock latencies are read from: wall time less the pauses. *)
let unpaused_ns () = now_ns () - !paused_ns

(* cold / census: the [batch --stream --format json] path, one report
   line per input line, each flushed as the CLI's [print_endline]
   does. A line's latency runs from its delivery by the reader to its
   report line being written, batch wait included. With [pause_every]
   = k > 0 the round [pause]s after every k lines fed, before the
   next. *)
let stream_round ?jobs ?(pause_every = 0) ~input ~output () =
  let engine, setup_s = engine_setup (config_of ~jobs) in
  let fed = Queue.create () and n = ref 0 in
  ( engine,
    measure ~setup_s (fun lat ->
        In_channel.with_open_bin input (fun ic ->
            Out_channel.with_open_bin output (fun oc ->
                let emit report =
                  output_string oc (Sigrec.Render.report report);
                  output_char oc '\n';
                  flush oc;
                  Ints.push lat (unpaused_ns () - Queue.pop fed)
                in
                let session = Engine.Stream.start engine ~emit in
                let (), totals =
                  Sigrec.Input.fold_lines
                    ~f:(fun () code ->
                      if pause_every > 0 && !n > 0 && !n mod pause_every = 0 then pause ();
                      incr n;
                      Queue.push (unpaused_ns ()) fed;
                      Engine.Stream.feed session code)
                    () ic
                in
                ignore (Engine.Stream.finish session : int);
                ( totals.Sigrec.Input.codes + totals.Sigrec.Input.skipped,
                  totals.Sigrec.Input.skipped )))) )

(* The README daemon's configuration: a bounded cross-request cache
   and live metrics on. *)
let serve_config ?jobs () =
  Engine.Config.with_cache_capacity 4096 (config_of ~jobs)

let ping = {|{"id":0,"op":"ping"}|}

let serve_setup ?jobs () =
  let t0 = now_ns () in
  Sigrec_metrics.Metrics.enable ();
  let service = Sigrec.Serve.create (serve_config ?jobs ()) in
  Sigrec.Pool.ensure (Engine.effective_jobs (Sigrec.Serve.engine service) - 1);
  let reply = Sigrec.Serve.handle_line service ping in
  if not (String.equal reply.Sigrec.Serve.response {|{"id":0,"ok":true,"pong":true}|})
  then failwith ("unexpected ping reply: " ^ reply.Sigrec.Serve.response);
  (service, float_of_int (now_ns () - t0) /. 1e9)

(* serve: one closed-loop client. Each request line is read, handed to
   [handle_line], and its reply written before the next is read; the
   latency is the [handle_line] round trip alone. With [pause_every] =
   k > 0 the session [pause]s after every k requests, before the
   next. *)
let serve_round ?jobs ?(pause_every = 0) ~input ~output () =
  let service, setup_s = serve_setup ?jobs () in
  ( Sigrec.Serve.engine service,
    measure ~setup_s (fun lat ->
        In_channel.with_open_bin input (fun ic ->
            Out_channel.with_open_bin output (fun oc ->
                let rec loop n =
                  match In_channel.input_line ic with
                  | None -> (n, 0)
                  | Some request ->
                    if pause_every > 0 && n > 0 && n mod pause_every = 0 then pause ();
                    let t0 = now_ns () in
                    let reply = Sigrec.Serve.handle_line service request in
                    Ints.push lat (now_ns () - t0);
                    output_string oc reply.Sigrec.Serve.response;
                    output_char oc '\n';
                    loop (n + 1)
                in
                loop 0))) )
