(* The resident recovery service: protocol goldens, malformed requests
   answered without killing the daemon, warnings routed into the JSON
   response stream, cross-request cache hits, the bounded LRU actually
   bounding, and jobs>=2 responses byte-identical to sequential. *)

open Abi.Abity

let default_serve () = Sigrec.Serve.create Sigrec.Engine.Config.default

let handle t line = (Sigrec.Serve.handle_line t line).Sigrec.Serve.response

let compile fsig = Solc.Compile.compile_fn (Solc.Lang.fn_of_sig fsig)

let recover_request ?(id = "1") codes =
  Printf.sprintf {|{"id":%s,"op":"recover","codes":[%s]}|} id
    (String.concat ","
       (List.map (fun c -> "\"0x" ^ Evm.Hex.encode c ^ "\"") codes))

(* -- goldens ----------------------------------------------------------- *)

let test_protocol_goldens () =
  let t = default_serve () in
  Alcotest.(check string) "ping" {|{"id":7,"ok":true,"pong":true}|}
    (handle t {|{"id":7,"op":"ping"}|});
  Alcotest.(check string) "id echoed verbatim"
    {|{"id":"req-a","ok":true,"pong":true}|}
    (handle t {|{"id":"req-a","op":"ping"}|});
  Alcotest.(check string) "missing id becomes null"
    {|{"id":null,"ok":true,"pong":true}|}
    (handle t {|{"op":"ping"}|});
  Alcotest.(check string) "unknown op rejected"
    {|{"id":1,"ok":false,"error":"unknown op \"frob\""}|}
    (handle t {|{"id":1,"op":"frob"}|});
  Alcotest.(check string) "missing op rejected"
    {|{"id":2,"ok":false,"error":"missing \"op\""}|}
    (handle t {|{"id":2}|});
  let reply = Sigrec.Serve.handle_line t {|{"id":3,"op":"shutdown"}|} in
  Alcotest.(check string) "shutdown acknowledged"
    {|{"id":3,"ok":true,"shutdown":true}|}
    reply.Sigrec.Serve.response;
  Alcotest.(check bool) "shutdown flagged" true reply.Sigrec.Serve.shutdown

let test_malformed_does_not_kill () =
  let t = default_serve () in
  (* every hostile line must produce an ok:false line, and the very
     same daemon must still answer the next well-formed request *)
  List.iter
    (fun line ->
      match Sigrec.Json.parse (handle t line) with
      | Ok response ->
        Alcotest.(check bool)
          (Printf.sprintf "ok:false for %S" line)
          true
          (Sigrec.Json.member "ok" response = Some (Sigrec.Json.Bool false))
      | Error e -> Alcotest.failf "unparseable error response: %s" e)
    [
      "not json at all";
      "{\"id\":1,\"op\":";
      {|{"id":1,"op":42}|};
      {|{"id":1,"op":"recover"}|};
      {|{"id":1,"op":"recover","codes":"0x60"}|};
      {|{"id":1,"op":"recover","codes":[1,2]}|};
      "[1,2,3]";
      {|"just a string"|};
    ];
  Alcotest.(check string) "daemon still alive"
    {|{"id":9,"ok":true,"pong":true}|}
    (handle t {|{"id":9,"op":"ping"}|})

(* -- recover: reports, warnings, cache --------------------------------- *)

let member_exn name json =
  match Sigrec.Json.member name json with
  | Some v -> v
  | None -> Alcotest.failf "response missing %S" name

let parse_exn line =
  match Sigrec.Json.parse line with
  | Ok v -> v
  | Error e -> Alcotest.failf "unparseable response: %s" e

(* The metrics op's exposition, one sample per line. *)
let exposition_lines t =
  match
    Sigrec.Json.member "exposition"
      (parse_exn (handle t {|{"id":2,"op":"metrics"}|}))
  with
  | Some (Sigrec.Json.Str s) -> String.split_on_char '\n' s
  | _ -> Alcotest.fail "metrics reply without an exposition"

let test_recover_warnings_in_stream () =
  let t = default_serve () in
  let code = compile (Abi.Funsig.make "w" [ Uint 256 ]) in
  let request =
    Printf.sprintf {|{"id":1,"op":"recover","codes":["0x%s","xyz",""]}|}
      (Evm.Hex.encode code)
  in
  let response = parse_exn (handle t request) in
  Alcotest.(check bool) "ok" true
    (member_exn "ok" response = Sigrec.Json.Bool true);
  (match Sigrec.Json.to_list_opt (member_exn "reports" response) with
  | Some [ _ ] -> ()
  | _ -> Alcotest.fail "expected exactly one report");
  match Sigrec.Json.to_list_opt (member_exn "warnings" response) with
  | Some [ w1; w2 ] ->
    Alcotest.(check (option int)) "bad entry index" (Some 1)
      (Option.bind (Sigrec.Json.member "index" w1) Sigrec.Json.to_int_opt);
    Alcotest.(check (option int)) "blank entry index" (Some 2)
      (Option.bind (Sigrec.Json.member "index" w2) Sigrec.Json.to_int_opt);
    Alcotest.(check bool) "blank entry reason" true
      (Sigrec.Json.member "reason" w2
      = Some (Sigrec.Json.Str "empty bytecode"))
  | _ -> Alcotest.fail "expected two warnings in the response stream"

let test_cross_request_cache_hits () =
  let t = default_serve () in
  let codes =
    [
      compile (Abi.Funsig.make "a" [ Address ]);
      compile (Abi.Funsig.make "b" [ Uint 8; Bytes ]);
    ]
  in
  let cold = parse_exn (handle t (recover_request codes)) in
  let warm = parse_exn (handle t (recover_request codes)) in
  let from_cache response =
    match Sigrec.Json.to_list_opt (member_exn "reports" response) with
    | Some reports ->
      List.map (fun r -> member_exn "from_cache" r) reports
    | None -> Alcotest.fail "reports not a list"
  in
  Alcotest.(check bool) "cold run is fresh" true
    (List.for_all (( = ) (Sigrec.Json.Bool false)) (from_cache cold));
  Alcotest.(check bool) "repeat answered from cache" true
    (List.for_all (( = ) (Sigrec.Json.Bool true)) (from_cache warm));
  let stats = Sigrec.Engine.stats (Sigrec.Serve.engine t) in
  Alcotest.(check int) "cross-request cache hits counted"
    (List.length codes)
    (Sigrec.Stats.cache_hits stats);
  Alcotest.(check int) "each bytecode analyzed once" (List.length codes)
    (Sigrec.Stats.cache_misses stats);
  (* metrics reflect the same counters, live *)
  let metrics = exposition_lines t in
  Alcotest.(check bool) "metrics cache_hits" true
    (List.mem "sigrec_cache_hits_total 2" metrics);
  Alcotest.(check bool) "metrics request count" true
    (List.mem "sigrec_serve_requests_total 3" metrics);
  (* 180 dataset3 contracts in one request on a pooled engine with a
     bounded cache: the repeat is answered from it in full *)
  let t =
    Sigrec.Serve.create
      Sigrec.Engine.Config.(
        default |> with_jobs 2 |> with_cache_capacity 4096)
  in
  let codes =
    List.map
      (fun s -> s.Solc.Corpus.code)
      (Solc.Corpus.dataset3 ~seed:20230715 ~n:180)
  in
  let (_ : string) = handle t (recover_request codes) in
  let warm = parse_exn (handle t (recover_request codes)) in
  Alcotest.(check bool) "180-contract repeat answered from cache" true
    (List.for_all (( = ) (Sigrec.Json.Bool true)) (from_cache warm));
  let hits =
    Sigrec.Stats.cache_hits (Sigrec.Engine.stats (Sigrec.Serve.engine t))
  in
  if hits < 180 then
    Alcotest.failf "%d cross-request cache hits for 180 repeated contracts"
      hits

(* elapsed_ns is a wall-clock measurement, deliberately excluded from
   the determinism invariant (as it is from pp_report); everything else
   in the response must match byte for byte *)
let rec strip_timing = function
  | Sigrec.Json.Obj fields ->
    Sigrec.Json.Obj
      (List.filter_map
         (fun (k, v) ->
           if k = "elapsed_ns" then None else Some (k, strip_timing v))
         fields)
  | Sigrec.Json.Arr items -> Sigrec.Json.Arr (List.map strip_timing items)
  | v -> v

let test_parallel_response_identical () =
  let codes =
    [
      compile (Abi.Funsig.make "p" [ Uint 256; Address ]);
      compile (Abi.Funsig.make "q" [ Bytes ]);
      compile (Abi.Funsig.make "r" [ Bool; Uint 32 ]);
    ]
  in
  let codes = codes @ codes in
  let response jobs =
    let t =
      Sigrec.Serve.create
        Sigrec.Engine.Config.(default |> with_jobs jobs)
    in
    Sigrec.Json.to_string
      (strip_timing (parse_exn (handle t (recover_request codes))))
  in
  Alcotest.(check string) "jobs=4 response byte-identical to jobs=1"
    (response 1) (response 4)

(* -- layout op --------------------------------------------------------- *)

let layout_request ?(id = "1") codes =
  Printf.sprintf {|{"id":%s,"op":"layout","codes":[%s]}|} id
    (String.concat ","
       (List.map (fun c -> "\"0x" ^ Evm.Hex.encode c ^ "\"") codes))

let test_layout_op () =
  let t = default_serve () in
  let code =
    Solc.Compile.compile
      (Solc.Compile.contract_of_sigs
         ~storage:[ Solc.Lang.svalue 0; Solc.Lang.smapping 1 ]
         [ Abi.Funsig.make "f" [ Uint 256 ] ])
  in
  let kinds response =
    match Sigrec.Json.to_list_opt (member_exn "layouts" response) with
    | Some [ l ] -> (
      match Sigrec.Json.to_list_opt (member_exn "slots" l) with
      | Some slots ->
        ( List.map
            (fun s ->
              match member_exn "kind" s with
              | Sigrec.Json.Str k -> k
              | _ -> Alcotest.fail "kind not a string")
            slots,
          member_exn "from_cache" l )
      | None -> Alcotest.fail "slots not a list")
    | _ -> Alcotest.fail "expected exactly one layout"
  in
  let cold = kinds (parse_exn (handle t (layout_request [ code ]))) in
  Alcotest.(check (list string)) "slot kinds" [ "word"; "mapping" ] (fst cold);
  Alcotest.(check bool) "cold run is fresh" true
    (snd cold = Sigrec.Json.Bool false);
  let warm = kinds (parse_exn (handle t (layout_request [ code ]))) in
  Alcotest.(check bool) "repeat answered from cache" true
    (snd warm = Sigrec.Json.Bool true);
  (* malformed layout requests are rejected without killing the daemon *)
  (match Sigrec.Json.parse (handle t {|{"id":5,"op":"layout"}|}) with
  | Ok response ->
    Alcotest.(check bool) "missing codes rejected" true
      (Sigrec.Json.member "ok" response = Some (Sigrec.Json.Bool false))
  | Error e -> Alcotest.failf "unparseable error response: %s" e);
  Alcotest.(check string) "daemon still alive"
    {|{"id":6,"ok":true,"pong":true}|}
    (handle t {|{"id":6,"op":"ping"}|})

(* -- classify op ------------------------------------------------------- *)

let classify_request ?(id = "1") codes =
  Printf.sprintf {|{"id":%s,"op":"classify","codes":[%s]}|} id
    (String.concat ","
       (List.map (fun c -> "\"0x" ^ Evm.Hex.encode c ^ "\"") codes))

let test_classify_op () =
  let t = default_serve () in
  let spec =
    match Sigrec_classify.Classify.spec_by_name "ERC-20" with
    | Some s -> s
    | None -> Alcotest.fail "ERC-20 spec missing"
  in
  let code =
    Solc.Compile.compile
      (Solc.Compile.contract_of_sigs
         ~storage:[ Solc.Lang.svalue 0; Solc.Lang.smapping 1 ]
         (List.map
            (fun m -> m.Sigrec_classify.Classify.fsig)
            (Sigrec_classify.Classify.required_members spec)))
  in
  let verdict response =
    match Sigrec.Json.to_list_opt (member_exn "classifications" response) with
    | Some [ c ] ->
      ( member_exn "label" c,
        member_exn "from_cache" c,
        member_exn "best" c )
    | _ -> Alcotest.fail "expected exactly one classification"
  in
  let label, cold_cached, best =
    verdict (parse_exn (handle t (classify_request [ code ])))
  in
  Alcotest.(check bool) "full ERC-20 surface labelled exact" true
    (label = Sigrec.Json.Str "ERC-20");
  Alcotest.(check bool) "cold run is fresh" true
    (cold_cached = Sigrec.Json.Bool false);
  Alcotest.(check bool) "best verdict is not null" true (best <> Sigrec.Json.Null);
  let _, warm_cached, _ =
    verdict (parse_exn (handle t (classify_request [ code ])))
  in
  Alcotest.(check bool) "repeat answered from verdict cache" true
    (warm_cached = Sigrec.Json.Bool true);
  (* twelve labeled token contracts: the repeat is answered from the
     verdict LRU in full *)
  let tokens =
    List.filteri (fun i _ -> i < 12)
      (Solc.Corpus.token_set ~seed:20230723 ~n:60)
    |> List.map (fun s -> s.Solc.Corpus.tcode)
  in
  let t' = default_serve () in
  let (_ : string) = handle t' (classify_request tokens) in
  (match
     Sigrec.Json.to_list_opt
       (member_exn "classifications"
          (parse_exn (handle t' (classify_request tokens))))
   with
  | Some cs ->
    Alcotest.(check int) "one verdict per token contract" 12 (List.length cs);
    Alcotest.(check bool) "token repeat answered from verdict cache" true
      (List.for_all
         (fun c -> member_exn "from_cache" c = Sigrec.Json.Bool true)
         cs)
  | None -> Alcotest.fail "classifications not a list");
  Alcotest.(check bool) "verdict cache hits counted" true
    (Sigrec.Stats.classify_cache_hits
       (Sigrec.Engine.stats (Sigrec.Serve.engine t'))
    >= 12);
  (* the metrics op reports the classification counters, live *)
  let metrics = exposition_lines t in
  let counter what sample =
    Alcotest.(check bool) what true (List.mem sample metrics)
  in
  counter "one fresh classification" "sigrec_classifications_total 1";
  counter "one exact verdict" "sigrec_classify_exact_total 1";
  counter "repeat served from the verdict cache"
    "sigrec_classify_cache_hits_total 1";
  (* malformed classify requests are rejected without killing the daemon *)
  List.iter
    (fun line ->
      match Sigrec.Json.parse (handle t line) with
      | Ok response ->
        Alcotest.(check bool)
          (Printf.sprintf "ok:false for %S" line)
          true
          (Sigrec.Json.member "ok" response = Some (Sigrec.Json.Bool false))
      | Error e -> Alcotest.failf "unparseable error response: %s" e)
    [
      {|{"id":5,"op":"classify"}|};
      {|{"id":5,"op":"classify","codes":"0x60"}|};
      {|{"id":5,"op":"classify","codes":[42]}|};
    ];
  Alcotest.(check string) "daemon still alive"
    {|{"id":6,"ok":true,"pong":true}|}
    (handle t {|{"id":6,"op":"ping"}|})

(* -- stream op --------------------------------------------------------- *)

(* Drive a full [Serve.run] session from a scripted input channel and
   capture the response lines — the only way to exercise the streaming
   mode, which takes over the connection between its ack and the
   sentinel. *)
let run_session t script =
  let in_file = Filename.temp_file "sigrec_serve" ".in" in
  let out_file = Filename.temp_file "sigrec_serve" ".out" in
  Out_channel.with_open_text in_file (fun oc ->
      Out_channel.output_string oc script);
  let ic = In_channel.open_text in_file in
  let oc = Out_channel.open_text out_file in
  let outcome = Sigrec.Serve.run t ic oc in
  In_channel.close ic;
  Out_channel.close oc;
  let out = In_channel.with_open_text out_file In_channel.input_all in
  Sys.remove in_file;
  Sys.remove out_file;
  (outcome, String.split_on_char '\n' (String.trim out))

let test_stream_session () =
  let t = default_serve () in
  let code = compile (Abi.Funsig.make "s" [ Uint 256 ]) in
  let hex = "0x" ^ Evm.Hex.encode code in
  let script =
    String.concat "\n"
      [
        {|{"id":1,"op":"ping"}|};
        {|{"id":"s1","op":"stream"}|};
        hex;
        "# a comment";
        "";
        "zz";
        hex;
        ".";
        {|{"id":2,"op":"ping"}|};
        {|{"id":3,"op":"shutdown"}|};
        "";
      ]
  in
  let outcome, lines = run_session t script in
  Alcotest.(check bool) "session ends in shutdown" true
    (outcome = `Shutdown);
  match lines with
  | [ ping1; ack; warning; report1; report2; done_line; ping2; shutdown ]
    ->
    Alcotest.(check string) "ping before the stream"
      {|{"id":1,"ok":true,"pong":true}|} ping1;
    Alcotest.(check string) "stream acked"
      {|{"id":"s1","ok":true,"streaming":true}|} ack;
    let warning = parse_exn warning in
    Alcotest.(check bool) "warning echoes the stream id" true
      (member_exn "id" warning = Sigrec.Json.Str "s1");
    Alcotest.(check (option int)) "warning carries the corpus line"
      (Some 4)
      (Option.bind
         (Sigrec.Json.member "line" (member_exn "warning" warning))
         Sigrec.Json.to_int_opt);
    let report_cached line =
      let r = parse_exn line in
      Alcotest.(check bool) "report echoes the stream id" true
        (member_exn "id" r = Sigrec.Json.Str "s1");
      member_exn "from_cache" (member_exn "report" r)
    in
    Alcotest.(check bool) "first appearance analyzed" true
      (report_cached report1 = Sigrec.Json.Bool false);
    Alcotest.(check bool) "repeat answered from cache" true
      (report_cached report2 = Sigrec.Json.Bool true);
    let d = parse_exn done_line in
    List.iter
      (fun (key, v) ->
        Alcotest.(check (option int)) ("summary " ^ key) (Some v)
          (Option.bind (Sigrec.Json.member key d) Sigrec.Json.to_int_opt))
      [ ("contracts", 2); ("lines", 5); ("skipped", 1); ("dedup_hits", 1) ];
    Alcotest.(check string) "request mode resumes after the sentinel"
      {|{"id":2,"ok":true,"pong":true}|} ping2;
    Alcotest.(check string) "shutdown still honored"
      {|{"id":3,"ok":true,"shutdown":true}|} shutdown;
    let stats = Sigrec.Engine.stats (Sigrec.Serve.engine t) in
    Alcotest.(check int) "stream lines counted" 5
      (Sigrec.Stats.stream_lines stats);
    Alcotest.(check int) "stream skips counted" 1
      (Sigrec.Stats.stream_skipped stats);
    Alcotest.(check int) "stream dedup counted" 1
      (Sigrec.Stats.stream_dedup_hits stats)
  | other ->
    Alcotest.failf "expected 8 response lines, got %d:\n%s"
      (List.length other) (String.concat "\n" other)

let test_stream_ends_at_eof () =
  (* a stream cut off by the client hanging up still flushes what it
     buffered and reports the summary before the server sees EOF *)
  let t = default_serve () in
  let code = compile (Abi.Funsig.make "e" [ Address ]) in
  let script =
    String.concat "\n"
      [ {|{"id":4,"op":"stream"}|}; "0x" ^ Evm.Hex.encode code; "" ]
  in
  let outcome, lines = run_session t script in
  Alcotest.(check bool) "EOF surfaces to the listener" true
    (outcome = `Eof);
  match List.rev lines with
  | done_line :: _ ->
    let d = parse_exn done_line in
    Alcotest.(check (option int)) "buffered contract still recovered"
      (Some 1)
      (Option.bind (Sigrec.Json.member "contracts" d) Sigrec.Json.to_int_opt)
  | [] -> Alcotest.fail "no response lines at all"

(* -- line cap ----------------------------------------------------------- *)

(* A line one byte over the 4 MiB cap is answered, or warned about in
   a stream, and the session goes on. *)
let test_oversized_lines () =
  let long = String.make (Sigrec.Input.default_max_line_bytes + 1) '0' in
  let t = default_serve () in
  let outcome, lines =
    run_session t
      (String.concat "\n"
         [ {|{"id":1,"op":"ping"}|}; long; {|{"id":2,"op":"ping"}|}; "" ])
  in
  Alcotest.(check bool) "request session ends at EOF" true (outcome = `Eof);
  Alcotest.(check (list string)) "three replies"
    [
      {|{"id":1,"ok":true,"pong":true}|};
      {|{"id":null,"ok":false,"error":"request line exceeds 4194304 bytes"}|};
      {|{"id":2,"ok":true,"pong":true}|};
    ]
    lines;
  let outcome, lines =
    run_session t
      (String.concat "\n"
         [
           {|{"id":"s","op":"stream"}|};
           long;
           ".";
           {|{"id":3,"op":"ping"}|};
           "";
         ])
  in
  Alcotest.(check bool) "stream session ends at EOF" true (outcome = `Eof);
  match lines with
  | [ ack; warning; done_line; ping ] ->
    Alcotest.(check string) "stream acked"
      {|{"id":"s","ok":true,"streaming":true}|} ack;
    Alcotest.(check string) "in-band warning"
      {|{"id":"s","warning":{"line":1,"reason":"line exceeds 4194304 bytes"}}|}
      warning;
    let d = parse_exn done_line in
    List.iter
      (fun (key, v) ->
        Alcotest.(check (option int)) ("summary " ^ key) (Some v)
          (Option.bind (Sigrec.Json.member key d) Sigrec.Json.to_int_opt))
      [ ("contracts", 0); ("lines", 1); ("skipped", 1) ];
    Alcotest.(check string) "request mode resumes after the sentinel"
      {|{"id":3,"ok":true,"pong":true}|} ping;
    Alcotest.(check int) "oversized stream line counted as skipped" 1
      (Sigrec.Stats.stream_skipped
         (Sigrec.Engine.stats (Sigrec.Serve.engine t)))
  | other ->
    Alcotest.failf "expected 4 response lines, got %d:\n%s"
      (List.length other) (String.concat "\n" other)

(* -- bounded LRU ------------------------------------------------------- *)

let test_lru_eviction_bound () =
  let lru = Sigrec.Lru.create ~capacity:2 in
  Sigrec.Lru.add lru "a" 1;
  Sigrec.Lru.add lru "b" 2;
  (* touching [a] makes [b] the eviction victim *)
  Alcotest.(check (option int)) "find promotes" (Some 1)
    (Sigrec.Lru.find_opt lru "a");
  Sigrec.Lru.add lru "c" 3;
  Alcotest.(check int) "bound held" 2 (Sigrec.Lru.length lru);
  Alcotest.(check bool) "LRU entry evicted" false (Sigrec.Lru.mem lru "b");
  Alcotest.(check bool) "promoted entry kept" true (Sigrec.Lru.mem lru "a");
  Alcotest.(check int) "eviction counted" 1 (Sigrec.Lru.evictions lru);
  (* peek must not disturb recency order *)
  Alcotest.(check (option int)) "peek reads" (Some 1)
    (Sigrec.Lru.peek_opt lru "a");
  ignore (Sigrec.Lru.find_opt lru "c");
  ignore (Sigrec.Lru.peek_opt lru "a");
  Sigrec.Lru.add lru "d" 4;
  Alcotest.(check bool) "peek did not promote" false
    (Sigrec.Lru.mem lru "a")

let test_engine_cache_bounded () =
  let engine =
    Sigrec.Engine.make
      Sigrec.Engine.Config.(
        default |> with_jobs 1 |> with_cache_capacity 2)
  in
  let codes =
    List.map compile
      [
        Abi.Funsig.make "e1" [ Uint 256 ];
        Abi.Funsig.make "e2" [ Address ];
        Abi.Funsig.make "e3" [ Bool ];
        Abi.Funsig.make "e4" [ Bytes ];
      ]
  in
  let reports = Sigrec.Engine.recover_all engine codes in
  Alcotest.(check int) "all inputs answered despite evictions"
    (List.length codes) (List.length reports);
  Alcotest.(check bool) "cache stayed within capacity" true
    (List.for_all
       (fun (_, len, _, _) -> len <= 2)
       (Sigrec.Engine.cache_stats engine));
  Alcotest.(check int) "evictions surfaced in stats" 2
    (Sigrec.Stats.cache_evictions (Sigrec.Engine.stats engine))

(* -- the JSON layer itself --------------------------------------------- *)

let test_json_round_trip () =
  List.iter
    (fun s ->
      match Sigrec.Json.parse s with
      | Ok v -> Alcotest.(check string) s s (Sigrec.Json.to_string v)
      | Error e -> Alcotest.failf "%s: %s" s e)
    [
      {|{"a":[1,2,3],"b":{"c":null,"d":false},"e":"x"}|};
      {|[true,false,null,-7,"\\\""]|};
      {|"esc\n\t"|};
      "123456";
    ];
  List.iter
    (fun s ->
      match Sigrec.Json.parse s with
      | Ok _ -> Alcotest.failf "accepted malformed %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2" ];
  (* \u escapes decode to UTF-8 *)
  match Sigrec.Json.parse {|"é😀"|} with
  | Ok (Sigrec.Json.Str s) ->
    Alcotest.(check string) "utf-8 decoding" "\xc3\xa9\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "unicode escape rejected"

let test_parse_codes_indices () =
  let batch = Sigrec.Input.parse_codes [ "0x60016002"; "zz"; ""; "0x" ] in
  Alcotest.(check int) "one valid code" 1
    (List.length batch.Sigrec.Input.codes);
  Alcotest.(check (list int)) "0-based skip indices" [ 1; 2; 3 ]
    (List.map fst batch.Sigrec.Input.skipped)

let suite =
  [
    Alcotest.test_case "protocol goldens" `Quick test_protocol_goldens;
    Alcotest.test_case "malformed requests do not kill the daemon" `Quick
      test_malformed_does_not_kill;
    Alcotest.test_case "warnings routed into the response stream" `Quick
      test_recover_warnings_in_stream;
    Alcotest.test_case "cross-request cache hits" `Quick
      test_cross_request_cache_hits;
    Alcotest.test_case "jobs>=2 response byte-identical" `Slow
      test_parallel_response_identical;
    Alcotest.test_case "layout op over the wire" `Quick test_layout_op;
    Alcotest.test_case "classify op over the wire" `Quick test_classify_op;
    Alcotest.test_case "stream session over the wire" `Quick
      test_stream_session;
    Alcotest.test_case "stream flushes at EOF" `Quick test_stream_ends_at_eof;
    Alcotest.test_case "LRU eviction bound" `Quick test_lru_eviction_bound;
    Alcotest.test_case "engine cache bounded" `Quick
      test_engine_cache_bounded;
    Alcotest.test_case "json round trip" `Quick test_json_round_trip;
    Alcotest.test_case "parse_codes indices" `Quick
      test_parse_codes_indices;
    Alcotest.test_case "oversized lines answered, session continues" `Quick
      test_oversized_lines;
  ]
