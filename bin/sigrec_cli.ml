(* The sigrec command-line tool: recover function signatures from EVM
   runtime bytecode (one contract or a batch), check call data against
   them, lift bytecode to readable IR, or stay resident as a recovery
   daemon ([sigrec serve]).

   Subcommands share the same input conventions and one flag-spec table
   (module [Flags]): bytecode is hex (optional 0x prefix) or raw bytes,
   [--format json|text] selects machine- or human-readable output, and
   [--jobs N] / the budget flags configure the recovery engine the same
   way everywhere — they are folded into one [Sigrec.Engine.Config.t]
   per invocation. *)

let read_raw input =
  try
    if input = "-" then In_channel.input_all In_channel.stdin
    else In_channel.with_open_bin input In_channel.input_all
  with Sys_error msg ->
    Printf.eprintf "sigrec: %s\n" msg;
    exit 2

let read_bytecode input =
  let raw = read_raw input in
  let trimmed = String.trim raw in
  if Evm.Hex.is_valid trimmed then Evm.Hex.decode trimmed else raw

let with_input_channel input f =
  try
    if input = "-" then f In_channel.stdin
    else In_channel.with_open_bin input f
  with Sys_error msg ->
    Printf.eprintf "sigrec: %s\n" msg;
    exit 2

let warn_malformed input ~line ~reason =
  Printf.eprintf "sigrec: %s:%d: skipping malformed line (%s)\n%!" input
    line reason

(* One hex bytecode per line; blank lines, #-comments, CRLF and 0x
   prefixes tolerated; malformed lines are warned about on stderr (as
   they are found, via the warn callback — never stdout, which may be
   carrying --format json output) and skipped rather than failing the
   whole file. Read incrementally: the raw text is never held whole,
   only the decoded bytecodes are. *)
let read_bytecode_list input =
  let codes, _totals =
    with_input_channel input
      (Sigrec.Input.fold_lines ~warn:(warn_malformed input)
         ~f:(fun acc code -> code :: acc)
         [])
  in
  List.rev codes

(* ---- tracing -------------------------------------------------------- *)

module Trace = Sigrec_trace.Trace
module Texport = Sigrec_trace.Export

(* Run [f] with tracing on and export the collected events afterwards:
   Chrome trace_event JSON by default (chrome://tracing, Perfetto),
   JSONL when the file name ends in [.jsonl]. *)
let with_trace trace_file f =
  match trace_file with
  | None -> f ()
  | Some file ->
    Trace.enable ();
    let finish () =
      Trace.disable ();
      let events = Trace.collect () in
      let rendered =
        if Filename.check_suffix file ".jsonl" then Texport.to_jsonl events
        else Texport.to_chrome events
      in
      Out_channel.with_open_text file (fun oc ->
          Out_channel.output_string oc rendered);
      let dropped = Trace.dropped () in
      if dropped > 0 then
        Printf.eprintf
          "sigrec: trace ring wrapped, %d oldest events dropped\n" dropped;
      Printf.eprintf "sigrec: wrote %d trace events to %s\n"
        (List.length events) file
    in
    (match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e)

(* ---- shared printing ---------------------------------------------- *)

let print_rule_stats stats =
  Format.printf "@.rule usage:@.";
  List.iter
    (fun (name, n) ->
      if n > 0 then begin
        let doc =
          match Sigrec.Ruledoc.find name with
          | Some d -> d.Sigrec.Ruledoc.concludes
          | None -> ""
        in
        Format.printf "  %-4s %4d  %s@." name n doc
      end)
    (Sigrec.Stats.rule_counts stats);
  Format.printf "functions recovered: %d; paths explored: %d@."
    (Sigrec.Stats.functions_recovered stats)
    (Sigrec.Stats.paths_explored stats);
  let hits = Sigrec.Stats.cache_hits stats
  and misses = Sigrec.Stats.cache_misses stats in
  if hits + misses > 1 then
    Format.printf "cache: %d hits / %d analyses@." hits misses

let print_report_text ~explain (report : Sigrec.Engine.report) =
  if report.Sigrec.Engine.outcomes = [] then
    Printf.printf "no public/external functions found\n"
  else
    List.iter
      (fun outcome ->
        Format.printf "%a@." Sigrec.Engine.pp_outcome outcome;
        if explain then
          match outcome with
          | Sigrec.Engine.Recovered { result = r; _ }
          | Sigrec.Engine.Budget_exhausted { partial = r; _ } ->
            List.iteri
              (fun i (ty, path) ->
                Format.printf "    arg%d %-14s via %s@." (i + 1)
                  (Abi.Abity.to_string ty)
                  (if path = [] then "-" else String.concat " -> " path))
              (List.combine r.Sigrec.Recover.params
                 r.Sigrec.Recover.rule_paths)
          | Sigrec.Engine.Failed _ -> ())
      report.Sigrec.Engine.outcomes

(* ---- subcommand bodies -------------------------------------------- *)

(* With --format json, --stats appends one {"stats":{...}} line after
   the report output: stdout stays line-oriented JSON throughout. *)
let print_stats_json stats =
  print_endline (Printf.sprintf "{\"stats\":%s}" (Sigrec.Stats.to_json stats))

(* How the CLI shows one engine product: its answers in each format and
   its --stats footer in text mode. *)
type 'a shown = {
  product : 'a Sigrec.Engine.product;
  json : 'a -> string;
  text : 'a -> unit;
  stats_text : Sigrec.Stats.t -> unit;
}

let print_hashed hash from_cache pp v =
  Format.printf "code hash 0x%s%s@.%a@." hash
    (if from_cache then " (cached)" else "")
    pp v

let reports =
  {
    product = Sigrec.Engine.reports;
    json = Sigrec.Render.report;
    text = (fun r -> Format.printf "%a@." Sigrec.Engine.pp_report r);
    stats_text = print_rule_stats;
  }

let layouts =
  {
    product = Sigrec.Engine.layouts;
    json = Sigrec.Render.layout_report;
    text =
      (fun r ->
        print_hashed r.Sigrec.Engine.layout_code_hash
          r.Sigrec.Engine.layout_from_cache Sigrec_layout.Layout.pp
          r.Sigrec.Engine.layout);
    stats_text =
      (fun stats ->
        Format.printf "layouts: %d recovered, %d slots (%d unresolved ops)@."
          (Sigrec.Stats.layouts_recovered stats)
          (Sigrec.Stats.layout_slots stats)
          (Sigrec.Stats.layout_unknown_ops stats));
  }

let verdicts =
  {
    product = Sigrec.Engine.verdicts;
    json = Sigrec.Render.classify_report;
    text =
      (fun r ->
        print_hashed r.Sigrec.Engine.classify_code_hash
          r.Sigrec.Engine.classify_from_cache Sigrec_classify.Classify.pp
          r.Sigrec.Engine.verdict);
    stats_text =
      (fun stats ->
        Format.printf
          "classify: %d verdicts (%d exact / %d partial / %d unknown), %d \
           probes, %d cache hits@."
          (Sigrec.Stats.classifications stats)
          (Sigrec.Stats.classify_exact stats)
          (Sigrec.Stats.classify_partial stats)
          (Sigrec.Stats.classify_unknown stats)
          (Sigrec.Stats.classify_probes stats)
          (Sigrec.Stats.classify_cache_hits stats));
  }

let print_stats shown engine ~show_stats format =
  if show_stats then
    match format with
    | `Text -> shown.stats_text (Sigrec.Engine.stats engine)
    | `Json -> print_stats_json (Sigrec.Engine.stats engine)

(* Census heartbeat on stderr — never stdout, which may be carrying
   --format json answer lines. *)
let print_progress (p : Sigrec.Engine.Stream.progress) =
  let eta =
    match p.Sigrec.Engine.Stream.eta_ns with
    | Some ns -> Printf.sprintf ", eta %.0fs" (float_of_int ns *. 1e-9)
    | None -> ""
  in
  Printf.eprintf
    "sigrec: progress %d contracts (%d distinct, %.1f%% dedup), %.1f/s, \
     heap %.1f MB%s\n\
     %!"
    p.Sigrec.Engine.Stream.contracts p.Sigrec.Engine.Stream.distinct
    (if p.Sigrec.Engine.Stream.contracts = 0 then 0.0
     else
       100.0
       *. float_of_int p.Sigrec.Engine.Stream.dedup_hits
       /. float_of_int p.Sigrec.Engine.Stream.contracts)
    p.Sigrec.Engine.Stream.rate p.Sigrec.Engine.Stream.heap_mb eta

(* The one body of [batch], [layout] and [classify]: answer every code of
   [input] through the product's batch path and print the answers in
   input order. The codes come from one bytecode file ([`One]), a list
   file read whole ([`List]), or a list streamed through an
   [Engine.Stream] session ([`Stream]) — at most one internal batch of
   bytecodes resident, so a 10^5-contract corpus runs in constant
   memory. Returns the engine, the number of contracts answered and,
   when streamed, the reader's line totals. *)
let answer shown config input ~source ~format ~trace ?progress () =
  let engine = Sigrec.Engine.make config in
  let emit a =
    match format with
    | `Json -> print_endline (shown.json a)
    | `Text -> shown.text a
  in
  let contracts, totals =
    with_trace trace (fun () ->
        match source with
        | (`One | `List) as source ->
          let codes =
            if source = `One then [ read_bytecode input ]
            else read_bytecode_list input
          in
          List.iter emit (Sigrec.Engine.run_all shown.product engine codes);
          (List.length codes, None)
        | `Stream ->
          with_input_channel input (fun ic ->
              let session =
                Sigrec.Engine.Stream.start_product shown.product ?progress
                  engine ~emit
              in
              let (), totals =
                Sigrec.Input.fold_lines ~warn:(warn_malformed input)
                  ~f:(fun () code -> Sigrec.Engine.Stream.feed session code)
                  () ic
              in
              let contracts = Sigrec.Engine.Stream.finish session in
              Sigrec.Stats.add_stream_lines (Sigrec.Engine.stats engine)
                ~lines:totals.Sigrec.Input.lines
                ~skipped:totals.Sigrec.Input.skipped;
              (contracts, Some totals)))
  in
  (engine, contracts, totals)

let recover_cmd config input show_stats explain format trace =
  let bytecode = read_bytecode input in
  let engine = Sigrec.Engine.make config in
  let report =
    with_trace trace (fun () -> Sigrec.Engine.recover engine bytecode)
  in
  (match format with
  | `Json -> print_endline (Sigrec.Render.report report)
  | `Text -> print_report_text ~explain report);
  print_stats reports engine ~show_stats format;
  match
    List.find_opt
      (function Sigrec.Engine.Failed _ -> true | _ -> false)
      report.Sigrec.Engine.outcomes
  with
  | Some _ -> 1
  | None -> 0

let batch_cmd config input show_stats format trace stream progress =
  if progress && not stream then
    Printf.eprintf "sigrec: --progress has no effect without --stream\n%!";
  let engine, contracts, totals =
    answer reports config input
      ~source:(if stream then `Stream else `List)
      ~format ~trace
      ?progress:(if progress then Some print_progress else None)
      ()
  in
  let stats = Sigrec.Engine.stats engine in
  let distinct = Sigrec.Stats.cache_misses stats
  and cached = Sigrec.Stats.cache_hits stats in
  (* The stream summary is unconditional — census scripts parse the
     final line of a streamed run, so it must exist even for zero-line
     input. *)
  (match (totals, format) with
  | Some totals, `Text ->
    Format.printf
      "@.stream: %d contracts over %d lines (%d skipped), %d distinct \
       analyses, %d answered from cache@."
      contracts totals.Sigrec.Input.lines totals.Sigrec.Input.skipped distinct
      cached
  | Some totals, `Json ->
    print_endline
      (Sigrec.Json.obj
         [
           ( "summary",
             Sigrec.Json.obj
               [
                 ("contracts", string_of_int contracts);
                 ("lines", string_of_int totals.Sigrec.Input.lines);
                 ("skipped", string_of_int totals.Sigrec.Input.skipped);
                 ("distinct", string_of_int distinct);
                 ("cached", string_of_int cached);
               ] );
         ])
  | None, `Text when show_stats ->
    Format.printf "@.batch: %d contracts, %d distinct analyses, %d cache hits@."
      contracts distinct cached
  | None, _ -> ());
  print_stats reports engine ~show_stats format;
  0

let layout_cmd config input batch show_stats format trace =
  let engine, _, _ =
    answer layouts config input
      ~source:(if batch then `List else `One)
      ~format ~trace ()
  in
  print_stats layouts engine ~show_stats format;
  0

let classify_cmd config input batch stream show_stats format trace =
  let engine, _, _ =
    answer verdicts config input
      ~source:(if stream then `Stream else if batch then `List else `One)
      ~format ~trace ()
  in
  print_stats verdicts engine ~show_stats format;
  0

let lint_cmd input layout show_stats format trace =
  let bytecode = read_bytecode input in
  let stats = Sigrec.Stats.create () in
  let verdicts, layout_verdict =
    with_trace trace (fun () ->
        let verdicts = Sigrec.Lint.check ~stats bytecode in
        let lv =
          if layout then Some (Sigrec.Lint.check_layout ~stats bytecode)
          else None
        in
        (verdicts, lv))
  in
  (match format with
  | `Json ->
    print_endline
      (Sigrec.Json.arr (List.map Sigrec.Render.verdict verdicts));
    Option.iter
      (fun lv -> print_endline (Sigrec.Render.layout_verdict lv))
      layout_verdict
  | `Text ->
    if verdicts = [] then
      Printf.printf "no public/external functions found\n"
    else
      List.iter
        (fun v -> Format.printf "%a" Sigrec.Lint.pp_verdict v)
        verdicts;
    Option.iter
      (fun lv -> Format.printf "%a" Sigrec.Lint.pp_layout_verdict lv)
      layout_verdict);
  if show_stats then begin
    match format with
    | `Text ->
      Format.printf "lint: %d agree / %d disagree@."
        (Sigrec.Stats.lint_agreements stats)
        (Sigrec.Stats.lint_disagreements stats)
    | `Json -> print_stats_json stats
  end;
  if
    List.for_all Sigrec.Lint.agree verdicts
    && Option.fold ~none:true ~some:Sigrec.Lint.layout_agree layout_verdict
  then 0
  else 1

(* ---- explain: the per-function recovery narrative ------------------- *)

let pp_pc pc = if pc >= 0 then Printf.sprintf "pc 0x%x" pc else "pc -"

let explain_function (r : Sigrec.Recover.recovered) elapsed_ns =
  Printf.printf "selector 0x%s: %d path%s explored%s\n"
    r.Sigrec.Recover.selector_hex r.Sigrec.Recover.paths_explored
    (if r.Sigrec.Recover.paths_explored = 1 then "" else "s")
    (match elapsed_ns with
    | Some ns -> Printf.sprintf ", %.2f ms" (float_of_int ns /. 1e6)
    | None -> "");
  Printf.printf "  signature  0x%s(%s)%s\n" r.Sigrec.Recover.selector_hex
    (Sigrec.Recover.type_list r)
    (match r.Sigrec.Recover.lang with
    | Abi.Abity.Solidity -> ""
    | Abi.Abity.Vyper -> " [vyper]");
  List.iteri
    (fun i (ty, path) ->
      Printf.printf "  arg%-2d %-16s via %s\n" (i + 1)
        (Abi.Abity.to_string ty)
        (if path = [] then "-" else String.concat " -> " path))
    (List.combine r.Sigrec.Recover.params r.Sigrec.Recover.rule_paths);
  (match r.Sigrec.Recover.evidence with
  | [] -> ()
  | evidence ->
    Printf.printf "  evidence:\n";
    List.iter
      (fun (e : Sigrec.Rules.evidence) ->
        Printf.printf "    %-4s %-8s %-10s %s\n" e.Sigrec.Rules.rule
          (if e.Sigrec.Rules.fired then "fired" else "rejected")
          (pp_pc e.Sigrec.Rules.pc)
          e.Sigrec.Rules.note)
      evidence);
  print_newline ()

let explain_cmd config input profile =
  let bytecode = read_bytecode input in
  let engine = Sigrec.Engine.make config in
  let run () = Sigrec.Engine.recover engine bytecode in
  let report, profile_txt =
    if profile then begin
      Trace.enable ();
      let report = run () in
      Trace.disable ();
      (report, Some (Texport.summary (Trace.collect ())))
    end
    else (run (), None)
  in
  Printf.printf "code hash 0x%s\n\n" report.Sigrec.Engine.code_hash;
  if report.Sigrec.Engine.outcomes = [] then
    Printf.printf "no public/external functions found\n"
  else
    List.iter
      (fun outcome ->
        match outcome with
        | Sigrec.Engine.Recovered { result; elapsed_ns } ->
          explain_function result (Some elapsed_ns)
        | Sigrec.Engine.Budget_exhausted { partial; paths_explored; elapsed_ns }
          ->
          Printf.printf
            "selector 0x%s: budget exhausted after %d paths (partial below)\n"
            partial.Sigrec.Recover.selector_hex paths_explored;
          explain_function partial (Some elapsed_ns)
        | Sigrec.Engine.Failed e ->
          Printf.printf "selector 0x%s: FAILED at entry %04x: %s\n\n"
            e.Sigrec.Engine.selector_hex e.Sigrec.Engine.entry_pc
            e.Sigrec.Engine.message)
      report.Sigrec.Engine.outcomes;
  Option.iter print_string profile_txt;
  match
    List.find_opt
      (function Sigrec.Engine.Failed _ -> true | _ -> false)
      report.Sigrec.Engine.outcomes
  with
  | Some _ -> 1
  | None -> 0

(* ---- serve: resident recovery daemon -------------------------------- *)

(* One connection at a time: requests within a connection are already
   pipelined, and the engine fans each batch out over the domain pool,
   so a second acceptor would only interleave output. *)
let serve_cmd config socket trace =
  (* a client hanging up mid-response must surface as a write error on
     this connection, not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (* a resident service is exactly what the metric registry is for:
     phase-latency histograms, pool/LRU/GC gauges and the slowest-
     contracts ring, scraped via {"op":"metrics"} or the [sigrec metrics]
     subcommand *)
  Sigrec_metrics.Metrics.enable ();
  with_trace trace (fun () ->
      let t = Sigrec.Serve.create config in
      match socket with
      | None ->
        let _ = Sigrec.Serve.run t stdin stdout in
        0
      | Some path ->
        if Sys.file_exists path then Sys.remove path;
        let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind sock (Unix.ADDR_UNIX path);
        Unix.listen sock 8;
        Printf.eprintf "sigrec: serving on %s\n%!" path;
        let rec accept_loop () =
          let fd, _ = Unix.accept sock in
          let ic = Unix.in_channel_of_descr fd in
          let oc = Unix.out_channel_of_descr fd in
          let outcome =
            try Sigrec.Serve.run t ic oc with
            | Sys_error _ | Unix.Unix_error _ -> `Eof
          in
          (try Unix.close fd with Unix.Unix_error _ -> ());
          match outcome with `Eof -> accept_loop () | `Shutdown -> ()
        in
        Fun.protect
          ~finally:(fun () ->
            (try Unix.close sock with Unix.Unix_error _ -> ());
            (try Sys.remove path with Sys_error _ -> ()))
          accept_loop;
        0)

(* ---- metrics: scrape a resident daemon ------------------------------ *)

(* One request over the daemon's Unix socket, one response line back.
   Default: the OpenMetrics exposition, printed raw (pipe it to a
   Prometheus textfile collector or a node-exporter sidecar). --top:
   the slowest-contracts table instead. *)
let metrics_cmd socket top =
  match socket with
  | None ->
    Printf.eprintf
      "sigrec: metrics needs --socket PATH (the socket of a running \
       'sigrec serve --socket PATH' daemon)\n";
    2
  | Some path ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (match Unix.connect fd (Unix.ADDR_UNIX path) with
    | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "sigrec: cannot connect to %s: %s\n" path
        (Unix.error_message e);
      3
    | () ->
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      let req =
        if top <> None then
          {|{"id":"metrics","op":"metrics","top":true}|}
        else {|{"id":"metrics","op":"metrics"}|}
      in
      Out_channel.output_string oc (req ^ "\n");
      Out_channel.flush oc;
      let code =
        match In_channel.input_line ic with
        | None ->
          Printf.eprintf "sigrec: daemon closed the connection\n";
          3
        | Some line ->
          (match Sigrec.Json.parse line with
          | Error msg ->
            Printf.eprintf "sigrec: unparseable response (%s)\n" msg;
            3
          | Ok resp ->
            (match top with
            | Some n ->
              (match Sigrec.Json.member "slowest" resp with
              | Some (Sigrec.Json.Arr entries) ->
                Printf.printf "%-64s %12s  %s\n" "code hash" "elapsed"
                  "breakdown";
                List.iteri
                  (fun i e ->
                    if i < n then begin
                      let str k =
                        match Sigrec.Json.member k e with
                        | Some (Sigrec.Json.Str s) -> s
                        | _ -> "?"
                      in
                      let elapsed =
                        match Sigrec.Json.member "elapsed_ns" e with
                        | Some v ->
                          (match Sigrec.Json.to_int_opt v with
                          | Some ns ->
                            Printf.sprintf "%.2f ms"
                              (float_of_int ns /. 1e6)
                          | None -> "?")
                        | None -> "?"
                      in
                      let detail =
                        match Sigrec.Json.member "detail" e with
                        | Some (Sigrec.Json.Obj fields) ->
                          String.concat ", "
                            (List.map
                               (fun (k, v) ->
                                 Printf.sprintf "%s=%s" k
                                   (match Sigrec.Json.to_int_opt v with
                                   | Some i -> string_of_int i
                                   | None -> "?"))
                               fields)
                        | _ -> ""
                      in
                      Printf.printf "%-64s %12s  %s\n" (str "code_hash")
                        elapsed detail
                    end)
                  entries;
                0
              | _ ->
                Printf.eprintf "sigrec: response carries no \"slowest\"\n";
                3)
            | None ->
              (match Sigrec.Json.member "exposition" resp with
              | Some (Sigrec.Json.Str text) ->
                print_string text;
                0
              | _ ->
                Printf.eprintf
                  "sigrec: response carries no \"exposition\"\n";
                3)))
      in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      code)

let find_selector bytecode calldata k =
  if String.length calldata < 4 then begin
    Printf.eprintf "call data shorter than a function id\n";
    1
  end
  else begin
    let selector = String.sub calldata 0 4 in
    let recovered = Sigrec.Recover.recover bytecode in
    match
      List.find_opt (fun r -> r.Sigrec.Recover.selector = selector) recovered
    with
    | None ->
      Printf.printf "function id 0x%s not found in bytecode\n"
        (Evm.Hex.encode selector);
      1
    | Some r -> k r
  end

let check_cmd input calldata_hex =
  let bytecode = read_bytecode input in
  let calldata = Evm.Hex.decode calldata_hex in
  find_selector bytecode calldata (fun r ->
      Printf.printf "signature: ";
      Format.printf "%a@." Sigrec.Recover.pp r;
      match Tools.Parchecker.check_call r.Sigrec.Recover.params calldata with
      | Tools.Parchecker.Valid ->
        Printf.printf "arguments: valid\n";
        if
          Tools.Parchecker.is_short_address_attack r.Sigrec.Recover.params
            calldata
        then begin
          Printf.printf "WARNING: short address attack pattern\n";
          2
        end
        else 0
      | Tools.Parchecker.Invalid reason ->
        Printf.printf "arguments: INVALID (%s)\n" reason;
        if
          Tools.Parchecker.is_short_address_attack r.Sigrec.Recover.params
            calldata
        then Printf.printf "WARNING: short address attack pattern\n";
        2)

let decode_cmd input calldata_hex =
  let bytecode = read_bytecode input in
  let calldata = Evm.Hex.decode calldata_hex in
  find_selector bytecode calldata (fun r ->
      match Abi.Decode.decode_call r.Sigrec.Recover.params calldata with
      | Ok (_, values) ->
        Format.printf "0x%s%a@." r.Sigrec.Recover.selector_hex
          Abi.Decode.pp_decoded
          (r.Sigrec.Recover.params, values);
        0
      | Error reason ->
        Printf.printf "cannot decode: %s\n" reason;
        1)

let lift_cmd input plain =
  let bytecode = read_bytecode input in
  if plain then
    List.iter
      (fun (fn : Tools.Erays.lifted_fn) ->
        Printf.printf "function 0x%s {\n" fn.Tools.Erays.selector_hex;
        List.iter
          (fun (s : Tools.Erays.stmt) ->
            Printf.printf "  %s\n" s.Tools.Erays.text)
          fn.Tools.Erays.stmts;
        Printf.printf "}\n")
      (Tools.Erays.lift bytecode)
  else
    List.iter
      (fun e -> Format.printf "%a" Tools.Eraysplus.pp e)
      (Tools.Eraysplus.enhance bytecode);
  0

(* ---- the shared flag table ---------------------------------------- *)

open Cmdliner

(* Every flag that more than one subcommand accepts is defined exactly
   once here; recover/batch/lint/explain/serve compose their terms from
   these specs, so a flag's name, docv and semantics cannot drift
   between subcommands. The engine-shaping flags (--jobs, the budget
   trio, --cache-capacity) fold into one [Engine.Config.t] term. *)
module Flags = struct
  let format =
    let doc = "Output format: $(b,text) or $(b,json)." in
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FORMAT" ~doc)

  let jobs =
    let doc =
      "Number of worker domains for the recovery engine (default: the \
       recommended domain count of this machine)."
    in
    Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print per-rule usage counts (with --format json: one \
             {\"stats\":...} line after the report output).")

  let trace =
    let doc =
      "Record a telemetry trace of the run into $(docv): Chrome \
       trace_event JSON (load in chrome://tracing or Perfetto), or JSONL \
       when $(docv) ends in .jsonl."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

  let max_paths =
    let doc =
      "Symbolic-execution budget: maximum paths explored per function \
       (default unbounded; the built-in default budget uses 512)."
    in
    Arg.(value & opt (some int) None & info [ "max-paths" ] ~docv:"N" ~doc)

  let max_steps =
    let doc =
      "Symbolic-execution budget: maximum interpreter steps per path."
    in
    Arg.(value & opt (some int) None & info [ "max-steps" ] ~docv:"N" ~doc)

  let max_forks =
    let doc =
      "Symbolic-execution budget: maximum JUMPI forks taken at one \
       program counter (symbolic-loop unrolling bound)."
    in
    Arg.(value & opt (some int) None & info [ "max-forks" ] ~docv:"N" ~doc)

  let cache_capacity =
    let doc =
      "Bound the engine's report cache to $(docv) entries \
       (least-recently-used eviction); 0 or absent means unbounded."
    in
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-capacity" ] ~docv:"N" ~doc)

  (* Any budget flag given -> a budget based on the executor default;
     none -> unbounded (the library default). *)
  let budget =
    let make mp ms mf =
      match (mp, ms, mf) with
      | None, None, None -> None
      | _ ->
        let d = Symex.Exec.default_budget in
        Some
          {
            Symex.Exec.max_paths =
              Option.value ~default:d.Symex.Exec.max_paths mp;
            max_steps = Option.value ~default:d.Symex.Exec.max_steps ms;
            max_forks_per_pc =
              Option.value ~default:d.Symex.Exec.max_forks_per_pc mf;
          }
    in
    Term.(const make $ max_paths $ max_steps $ max_forks)

  let engine_config =
    let make jobs budget cache_capacity =
      let open Sigrec.Engine.Config in
      default
      |> (match jobs with Some j -> with_jobs j | None -> Fun.id)
      |> (match budget with Some b -> with_budget b | None -> Fun.id)
      |>
      match cache_capacity with
      | Some c -> with_cache_capacity c
      | None -> Fun.id
    in
    Term.(const make $ jobs $ budget $ cache_capacity)
end

let input_arg =
  let doc = "File containing hex (or raw) runtime bytecode; - for stdin." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BYTECODE" ~doc)

let recover_term =
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:"Show each parameter's path through the rule decision tree.")
  in
  Term.(
    const recover_cmd $ Flags.engine_config $ input_arg $ Flags.stats
    $ explain $ Flags.format $ Flags.trace)

let batch_term =
  let input =
    let doc =
      "File with one hex bytecode per line (blank lines and # comments \
       skipped); - for stdin."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"LIST" ~doc)
  in
  let stream =
    Arg.(
      value & flag
      & info [ "stream" ]
          ~doc:
            "Stream the input instead of loading it whole: contracts are \
             read, recovered and printed in bounded batches, so \
             chain-scale corpora run in constant memory. Reports still \
             appear in input order.")
  in
  let progress =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:
            "With --stream: print a census heartbeat to stderr every \
             1000 contracts (rate, dedup ratio, live heap) and once at \
             the end.")
  in
  Term.(
    const batch_cmd $ Flags.engine_config $ input $ Flags.stats
    $ Flags.format $ Flags.trace $ stream $ progress)

let explain_term =
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Trace the recovery internally and append the phase/rule \
             latency summary tree.")
  in
  Term.(const explain_cmd $ Flags.engine_config $ input_arg $ profile)

let layout_term =
  let batch =
    Arg.(
      value & flag
      & info [ "batch" ]
          ~doc:
            "Treat $(b,BYTECODE) as a list file (one hex bytecode per \
             line, # comments skipped) and recover every layout through \
             the batch engine.")
  in
  Term.(
    const layout_cmd $ Flags.engine_config $ input_arg $ batch $ Flags.stats
    $ Flags.format $ Flags.trace)

let classify_term =
  let batch =
    Arg.(
      value & flag
      & info [ "batch" ]
          ~doc:
            "Treat $(b,BYTECODE) as a list file (one hex bytecode per \
             line, # comments skipped) and classify every contract \
             through the batch engine.")
  in
  let stream =
    Arg.(
      value & flag
      & info [ "stream" ]
          ~doc:
            "Stream the input instead of loading it whole: contracts \
             are read, classified and printed in bounded batches, in \
             input order, at constant memory.")
  in
  Term.(
    const classify_cmd $ Flags.engine_config $ input_arg $ batch $ stream
    $ Flags.stats $ Flags.format $ Flags.trace)

let serve_term =
  let socket =
    let doc =
      "Listen on a Unix domain socket at $(docv) instead of serving \
       stdin/stdout; connections are served one at a time and the \
       socket file is removed on exit."
    in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  Term.(const serve_cmd $ Flags.engine_config $ socket $ Flags.trace)

let metrics_term =
  let socket =
    let doc =
      "Socket of the running daemon (the $(b,--socket) path it was \
       started with)."
    in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let top =
    let doc =
      "Show the $(docv) slowest contracts the daemon has analyzed \
       (code hash, elapsed time, phase breakdown) instead of the \
       OpenMetrics exposition."
    in
    Arg.(
      value
      & opt ~vopt:(Some 16) (some int) None
      & info [ "top" ] ~docv:"N" ~doc)
  in
  Term.(const metrics_cmd $ socket $ top)

let check_term =
  let calldata =
    let doc = "Hex call data of the invocation to validate." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"CALLDATA" ~doc)
  in
  Term.(const check_cmd $ input_arg $ calldata)

let lift_term =
  let plain =
    Arg.(
      value & flag
      & info [ "plain" ] ~doc:"Raw Erays output without signature-based enhancement.")
  in
  Term.(const lift_cmd $ input_arg $ plain)

let cmds =
  [
    Cmd.v
      (Cmd.info "recover"
         ~doc:"Recover the function signatures of all public/external functions.")
      recover_term;
    Cmd.v
      (Cmd.info "batch"
         ~doc:
           "Recover a list of contracts through the batch engine: \
            duplicates are analyzed once, distinct bytecodes fan out \
            over worker domains.")
      batch_term;
    Cmd.v
      (Cmd.info "layout"
         ~doc:
           "Recover the contract's storage layout: declared slots with \
            their kind (word, packed members, mapping, dynamic array) \
            from a static pass over the SSTORE/SLOAD patterns.")
      layout_term;
    Cmd.v
      (Cmd.info "classify"
         ~doc:
           "Classify the contract against the ERC token-interface \
            specs (ERC-20/721/1155 plus extensions): recover its \
            signatures, match selectors and parameter types with the \
            \xc2\xa75.2 tolerance, corroborate near-misses behaviourally and \
            with the recovered storage layout.")
      classify_term;
    Cmd.v
      (Cmd.info "serve"
         ~doc:
           "Stay resident as a recovery daemon: line-oriented JSON \
            requests over stdin/stdout or a Unix socket, with the \
            report cache and worker-domain pool kept warm across \
            requests.")
      serve_term;
    Cmd.v
      (Cmd.info "metrics"
         ~doc:
           "Scrape a resident daemon's metrics over its Unix socket: \
            the OpenMetrics exposition (phase-latency histograms, \
            pool/cache/GC gauges, analysis counters) by default, or \
            the slowest-contracts table with --top.")
      metrics_term;
    Cmd.v
      (Cmd.info "lint"
         ~doc:
           "Cross-check the recovered signatures against a static \
            abstract-interpretation summary of the same bytecode; exits \
            non-zero on any disagreement.")
      (let layout =
         Arg.(
           value & flag
           & info [ "layout" ]
               ~doc:
                 "Also diff the recovered storage layout against \
                  interpreter-observed storage traffic: every dispatcher \
                  entry is driven concretely and each written cell must \
                  be explained by a recovered declaration.")
       in
       Term.(
         const lint_cmd $ input_arg $ layout $ Flags.stats $ Flags.format
         $ Flags.trace));
    Cmd.v
      (Cmd.info "explain"
         ~doc:
           "Narrate each function's recovery: selector, path count, \
            per-parameter rule path, and every rule decision (fired or \
            rejected) with its bytecode pc evidence.")
      explain_term;
    Cmd.v
      (Cmd.info "check"
         ~doc:"Validate call data against the recovered signature (ParChecker).")
      check_term;
    Cmd.v
      (Cmd.info "decode"
         ~doc:"Decode call data into typed arguments using the recovered signature.")
      (let calldata =
         let doc = "Hex call data of the invocation to decode." in
         Arg.(
           required & pos 1 (some string) None & info [] ~docv:"CALLDATA" ~doc)
       in
       Term.(const decode_cmd $ input_arg $ calldata));
    Cmd.v
      (Cmd.info "lift" ~doc:"Lift bytecode to readable IR (Erays+).")
      lift_term;
  ]

let () =
  let info =
    Cmd.info "sigrec" ~version:"1.0.0"
      ~doc:"Automatic recovery of function signatures in smart contracts"
  in
  exit (Cmd.eval' (Cmd.group info cmds))
