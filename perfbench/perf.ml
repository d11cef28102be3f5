(* The benchmark's OCaml side. [run.py] drives it; each subcommand is
   one fresh process:

     perf.exe gen   --workload W --seed N --size K --dir D
     perf.exe setup --workload W [--jobs J]
     perf.exe run   --workload W --dir D [--jobs J] [--pause-every K]
     perf.exe trace --workload W --dir D
     perf.exe speed --units U
     perf.exe selftest

   [gen] writes D/W.in and D/W.truth; [run] is one untraced end-to-end
   round over D/W.in, writing its answers to D/W.out (D/W.j1.out with
   --jobs) and its latencies to D/W.lat, followed by the output checks
   (with --pause-every it pauses after every K lines or requests, see
   [Measure.pause]);
   [trace] is the sequential span replay, checked against the answers
   of the last default [run] in D; [setup] only builds what a user
   waits for before the first input is accepted and prints [ready];
   [speed] times U units of the host-speed kernel in [Speed];
   [selftest] runs all of it at a tiny size. The other subcommands
   print one JSON object as their last stdout line. *)

module Json = Sigrec.Json

let hardware engine =
  Json.obj
    [
      ("recommended_domains", string_of_int (Domain.recommended_domain_count ()));
      ("effective_jobs", string_of_int (Sigrec.Engine.effective_jobs engine));
    ]

let num f = Printf.sprintf "%.17g" f

let round_json (r : Measure.round) =
  [
    ("setup_s", num r.Measure.setup_s);
    ("requests", string_of_int r.Measure.requests);
    ("wall_s", num r.Measure.wall_s);
    ("cpu_s", num r.Measure.cpu_s);
    ("rss_mb", num r.Measure.rss_mb);
    ("latencies", string_of_int (Array.length r.Measure.latencies));
    ("steal", num r.Measure.steal);
  ]

let check_json (c : Check.t) ~skipped =
  [
    ("answered", string_of_int c.Check.answered);
    ("skipped", string_of_int skipped);
    ("failed", string_of_int c.Check.failed);
    ("declared", string_of_int c.Check.declared);
    ("correct", string_of_int c.Check.correct);
    ("exact_claims", string_of_int c.Check.exact_claims);
    ("errors", Json.arr (List.rev_map Json.quote c.Check.errors));
  ]

let paths ~dir ~workload suffix = Filename.concat dir (workload ^ suffix)

(* One end-to-end round and its checks. *)
let round ?jobs ?pause_every ~workload ~dir () =
  let input = paths ~dir ~workload ".in" and truth = paths ~dir ~workload ".truth" in
  let output = paths ~dir ~workload (if jobs = None then ".out" else ".j1.out") in
  let engine, r =
    match workload with
    | "serve" -> Measure.serve_round ?jobs ?pause_every ~input ~output ()
    | _ -> Measure.stream_round ?jobs ?pause_every ~input ~output ()
  in
  let c = Check.create () in
  (match workload with
  | "serve" -> Check.serve c ~output ~truth
  | _ -> Check.stream c ~output ~truth);
  c.Check.failed <- c.Check.failed + r.Measure.skipped;
  (engine, r, c)

let engine_json engine =
  let st = Sigrec.Engine.stats engine in
  Json.obj
    [
      ("hits", string_of_int (Sigrec.Stats.cache_hits st));
      ("misses", string_of_int (Sigrec.Stats.cache_misses st));
      ("deduped", string_of_int (Sigrec.Stats.inputs_deduped st));
      ( "evictions",
        string_of_int
          (List.fold_left
             (fun a (_, _, _, ev) -> a + ev)
             0 (Sigrec.Engine.cache_stats engine)) );
    ]

(* Writes the round's latencies, one per line in ns, to [dir/W.lat]. *)
let cmd_run ?jobs ?pause_every ~workload ~dir () =
  let engine, r, c = round ?jobs ?pause_every ~workload ~dir () in
  Out_channel.with_open_bin (paths ~dir ~workload ".lat") (fun oc ->
      Array.iter (fun ns -> Printf.fprintf oc "%d\n" ns) r.Measure.latencies);
  print_endline
    (Json.obj
       ([ ("hardware", hardware engine) ]
       @ round_json r
       @ [
           ("engine", engine_json engine);
           ("check", Json.obj (check_json c ~skipped:r.Measure.skipped));
         ]))

(* Per-layer metrics from the replay's spans. Self times are per input
   line (cold, census) or per request (serve). [run.py] adds the ones
   that need the untraced rounds: pool.speedup, trace.overhead and the
   engine's hit and dedup ratios. *)
let layers ~units ~wall_ns ~(tot : Spans.totals) (t : Replay.t) =
  let k kind = Spans.index kind in
  let per x = float_of_int x /. float_of_int (Stdlib.max 1 units) in
  let us kind = per tot.Spans.self_ns.(k kind) /. 1000. in
  let words kinds =
    per (List.fold_left (fun a kd -> a + tot.Spans.self_words.(k kd)) 0 kinds)
  in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let program_ns = wall_ns - tot.Spans.excluded_ns in
  let layer_ns =
    Array.fold_left ( + ) 0
      (Array.mapi
         (fun i ns -> if Spans.is_layer Spans.kinds.(i) then ns else 0)
         tot.Spans.self_ns)
  in
  let analysis =
    Array.of_seq (Hashtbl.to_seq_values tot.Spans.analysis_ns)
  in
  Array.sort compare analysis;
  let aq q = float_of_int (Measure.quantile analysis q) /. 1000. in
  let m name unit v = (name, Json.obj [ ("value", num v); ("unit", Json.quote unit) ]) in
  [
    m "input.self_us" "us" (us Spans.Input);
    m "input.minor_words" "words" (words [ Spans.Input ]);
    m "keccak.self_us" "us" (us Spans.Keccak);
    m "keccak.us_per_kib" "us/KiB"
      (if t.Replay.keccak_bytes = 0 then 0.
       else
         float_of_int tot.Spans.self_ns.(k Spans.Keccak)
         /. 1000. /. (float_of_int t.Replay.keccak_bytes /. 1024.));
    m "engine.self_us" "us" (us Spans.Engine);
    m "lift.self_us" "us" (us Spans.Lift);
    m "lift.minor_words" "words" (words [ Spans.Lift ]);
    m "lift.calls" "count" (float_of_int t.Replay.contracts);
    m "absint.contract_self_us" "us" (us Spans.Absint_contract);
    m "absint.entry_self_us" "us" (us Spans.Absint_entry);
    m "absint.minor_words" "words" (words [ Spans.Absint_contract; Spans.Absint_entry ]);
    m "absint.calls" "count" (float_of_int t.Replay.absints);
    m "symex.self_us" "us" (us Spans.Symex);
    m "symex.minor_words" "words" (words [ Spans.Symex ]);
    m "symex.paths_per_function" "paths"
      (ratio t.Replay.paths t.Replay.functions);
    m "symex.pruned_fork_ratio" "ratio" (ratio t.Replay.pruned t.Replay.forks);
    m "rules.self_us" "us" (us Spans.Rules);
    m "rules.minor_words" "words" (words [ Spans.Rules ]);
    m "layout.self_us" "us" (us Spans.Layout);
    m "layout.calls" "count" (float_of_int t.Replay.layouts);
    m "classify.self_us" "us" (us Spans.Classify);
    m "classify.probes_per_contract" "probes"
      (ratio t.Replay.probes t.Replay.classified);
    m "render.self_us" "us" (us Spans.Render);
    m "render.bytes_per_contract" "bytes"
      (ratio t.Replay.render_bytes t.Replay.rendered);
    m "serve.self_us" "us" (us Spans.Serve);
    m "analysis.p50_us" "us" (aq 0.50);
    m "analysis.p99_us" "us" (aq 0.99);
    m "trace.coverage" "ratio" (ratio layer_ns program_ns);
  ]

(* Where the replay's time went outside the layers: its own glue
   around each line, calibration and overhead re-runs, and the part of
   the wall clock no span covers. *)
let diagnostics ~units ~wall_ns ~(tot : Spans.totals) (t : Replay.t) =
  let all = Array.fold_left ( + ) 0 tot.Spans.self_ns in
  let per ns = num (float_of_int ns /. 1000. /. float_of_int (Stdlib.max 1 units)) in
  [
    ("units", string_of_int units);
    ("wall_us_per_unit", per wall_ns);
    ("glue_us_per_unit", per tot.Spans.self_ns.(Spans.index Spans.Callback));
    ("excluded_us_per_unit", per tot.Spans.excluded_ns);
    ("unspanned_us_per_unit", per (wall_ns - all));
    ("spans", string_of_int t.Replay.spans.Spans.n);
  ]

(* Line-by-line identity of two answer files after normalisation. *)
let identity ~expected ~actual =
  let errors = ref [] in
  let same i x y =
    if
      List.length !errors < 10
      && not (String.equal (Check.normalise x) (Check.normalise y))
    then errors := Printf.sprintf "replay answer %d differs" i :: !errors
  in
  (match Check.lockstep expected actual same with
  | Ok () -> ()
  | Error _ -> errors := "replay and engine answered different counts" :: !errors);
  List.rev !errors

(* The replay over D/W.in, checked line by line against the answers
   the last default round wrote to D/W.out. Returns the replay, the
   engine it answered repeats from, the lines or requests replayed, its
   wall time and any identity errors. *)
let replay ~workload ~dir =
  let input = paths ~dir ~workload ".in" in
  let output = paths ~dir ~workload ".replay.out" in
  let t = Replay.create () in
  let config =
    Sigrec.Engine.Config.with_jobs 1
      (match workload with
      | "serve" -> Measure.serve_config ()
      | _ -> Sigrec.Engine.Config.default)
  in
  let engine = Sigrec.Engine.make config in
  let run =
    match workload with
    | "serve" -> fun () -> Replay.serve t ~engine ~input ~output
    | _ ->
      let plan = Replay.plan input in
      fun () -> Replay.stream t ~plan ~engine ~input ~output
  in
  let w0 = Measure.now_ns () in
  let units = run () in
  let wall_ns = Measure.now_ns () - w0 in
  let errors = identity ~expected:(paths ~dir ~workload ".out") ~actual:output in
  (t, engine, units, wall_ns, errors)

(* Run in a fresh process whose main domain has analysed nothing yet,
   so the replay's interner starts as empty as an untraced round's. *)
let cmd_trace ~workload ~dir =
  let t, engine, units, wall_ns, errors = replay ~workload ~dir in
  let tot = Spans.totals t.Replay.spans in
  print_endline
    (Json.obj
       [
         ("hardware", hardware engine);
         ("layers", Json.obj (layers ~units ~wall_ns ~tot t));
         ( "replay_program_s",
           num (float_of_int (wall_ns - tot.Spans.excluded_ns) /. 1e9) );
         ("identity_errors", Json.arr (List.map Json.quote errors));
         ("diagnostics", Json.obj (diagnostics ~units ~wall_ns ~tot t));
       ])

(* A tiny run of every workload: generation, a default and a jobs = 1
   round with their output checks, and the replay with its identity
   check. Correctness only — nothing here is timed against a bound. *)
let cmd_selftest () =
  let dir = "selftest.tmp" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let failures = ref [] in
  let expect what ok = if not ok then failures := what :: !failures in
  List.iter
    (fun (workload, size) ->
      Gen.write ~workload ~seed:1 ~size ~dir;
      List.iter
        (fun jobs ->
          let _, r, c = round ?jobs ~workload ~dir () in
          List.iter (fun e -> expect (workload ^ ": " ^ e) false) c.Check.errors;
          expect (workload ^ ": nothing answered") (c.Check.answered > 0);
          expect (workload ^ ": answers missing")
            (r.Measure.requests = size
            && Array.length r.Measure.latencies = r.Measure.requests))
        [ Some 1; None ];
      let t, _, units, _, errors = replay ~workload ~dir in
      List.iter (fun e -> expect (workload ^ ": " ^ e) false) errors;
      expect (workload ^ ": replay saw a different input") (units = size);
      expect (workload ^ ": replay recorded no analysis")
        (t.Replay.contracts > 0 && t.Replay.functions > 0);
      Array.iter Sys.remove
        (Array.map (Filename.concat dir) (Sys.readdir dir)))
    [ ("cold", 6); ("census", 400); ("serve", 8) ];
  Sys.rmdir dir;
  match !failures with
  | [] -> print_endline "perfbench selftest: ok"
  | fs ->
    List.iter prerr_endline (List.rev fs);
    exit 1

let cmd_setup ?jobs ~workload () =
  let setup_s =
    match workload with
    | "serve" -> snd (Measure.serve_setup ?jobs ())
    | _ -> snd (Measure.engine_setup (Measure.config_of ~jobs))
  in
  print_endline ("ready " ^ num setup_s)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | x :: _ -> failwith ("unexpected argument " ^ x)
  in
  match args with
  | cmd :: rest -> (
    let o = opts [] rest in
    let get k = match List.assoc_opt k o with Some v -> v | None -> failwith ("missing --" ^ k) in
    let workload () =
      match get "workload" with
      | ("cold" | "census" | "serve") as w -> w
      | w -> failwith ("unknown workload " ^ w)
    in
    match cmd with
    | "gen" ->
      let size = int_of_string (get "size") in
      Gen.write ~workload:(workload ()) ~seed:(int_of_string (get "seed"))
        ~size ~dir:(get "dir");
      print_endline (Json.obj [ ("generated", string_of_int size) ])
    | "setup" ->
      cmd_setup
        ?jobs:(Option.map int_of_string (List.assoc_opt "jobs" o))
        ~workload:(workload ()) ()
    | "run" ->
      let int k = Option.map int_of_string (List.assoc_opt k o) in
      cmd_run ?jobs:(int "jobs") ?pause_every:(int "pause-every")
        ~workload:(workload ()) ~dir:(get "dir") ()
    | "trace" -> cmd_trace ~workload:(workload ()) ~dir:(get "dir")
    | "selftest" -> cmd_selftest ()
    | "speed" ->
      let units = int_of_string (get "units") in
      let s0 = Measure.steal_busy () in
      let speed_s = Speed.time ~units in
      let steal = Measure.steal_share s0 (Measure.steal_busy ()) in
      print_endline (Json.obj [ ("speed_s", num speed_s); ("steal", num steal) ])
    | c -> failwith ("unknown command " ^ c))
  | [] -> failwith "usage: perf.exe gen|setup|run|trace|speed|selftest ..."
