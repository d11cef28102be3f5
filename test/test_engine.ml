(* The batch recovery engine: parallel fan-out is byte-identical to
   sequential, the content-addressed cache answers duplicates without
   re-analysis, budget exhaustion surfaces as a structured outcome
   rather than a silently-empty list, and counters stay exact when
   domains update them concurrently. *)

open Abi.Abity

let render reports =
  String.concat "\n"
    (List.map
       (fun r ->
         Format.asprintf "%a" Sigrec.Engine.pp_report
           { r with Sigrec.Engine.from_cache = false })
       reports)

let corpus_codes ?(seed = 11) n =
  List.map (fun s -> s.Solc.Corpus.code) (Solc.Corpus.dataset3 ~seed ~n)

let engine ?(jobs = 1) () =
  Sigrec.Engine.make Sigrec.Engine.Config.(default |> with_jobs jobs)

(* Stats JSON with the interner counters blanked: which domain's
   interner was warm decides how an analysis splits into hits and
   misses, nothing else does. *)
let stats_json engine =
  Sigrec.Stats.to_json (Sigrec.Engine.stats engine)
  |> String.split_on_char ','
  |> List.map (fun kv ->
         if String.starts_with ~prefix:"\"intern_" kv then
           List.hd (String.split_on_char ':' kv)
         else kv)
  |> String.concat ","

let test_parallel_matches_sequential () =
  let codes = corpus_codes 12 in
  let seq_engine = engine ~jobs:1 () and par_engine = engine ~jobs:4 () in
  let seq = Sigrec.Engine.recover_all seq_engine codes in
  let par = Sigrec.Engine.recover_all par_engine codes in
  Alcotest.(check int) "one report per input" (List.length codes)
    (List.length par);
  Alcotest.(check string) "byte-identical output" (render seq) (render par);
  Alcotest.(check string) "identical counters" (stats_json seq_engine)
    (stats_json par_engine);
  let recovered reports =
    List.concat_map Sigrec.Engine.signatures reports |> List.length
  in
  Alcotest.(check bool) "recovered something" true (recovered seq > 0)

let test_cache_identical_to_cold () =
  let codes = corpus_codes ~seed:12 8 in
  let engine = engine ~jobs:2 () in
  let cold = Sigrec.Engine.recover_all engine codes in
  let warm = Sigrec.Engine.recover_all engine codes in
  Alcotest.(check string) "warm results identical to cold" (render cold)
    (render warm);
  List.iter
    (fun r ->
      Alcotest.(check bool) "warm report marked cached" true
        r.Sigrec.Engine.from_cache)
    warm;
  let stats = Sigrec.Engine.stats engine in
  Alcotest.(check bool) "cache hits counted" true
    (Sigrec.Stats.cache_hits stats >= List.length codes)

let test_one_analysis_per_distinct_bytecode () =
  let sigs =
    [
      Abi.Funsig.make "one" [ Uint 8 ];
      Abi.Funsig.make "two" [ Address; Bytes ];
    ]
  in
  let distinct =
    List.map
      (fun fsig -> Solc.Compile.compile_fn (Solc.Lang.fn_of_sig fsig))
      sigs
  in
  (* a duplicate-heavy batch: main net's common case *)
  let codes = distinct @ distinct @ List.rev distinct in
  let engine = engine ~jobs:2 () in
  let merged = Sigrec.Aggregate.recover_many ~engine codes in
  let stats = Sigrec.Engine.stats engine in
  Alcotest.(check int) "one analysis per distinct bytecode"
    (List.length distinct)
    (Sigrec.Stats.cache_misses stats);
  Alcotest.(check int) "duplicates answered from cache"
    (List.length codes - List.length distinct)
    (Sigrec.Stats.cache_hits stats);
  Alcotest.(check int) "batch duplicates counted"
    (List.length codes - List.length distinct)
    (Sigrec.Stats.inputs_deduped stats);
  Alcotest.(check int) "both ids aggregated" 2 (List.length merged);
  List.iter
    (fun fsig ->
      match List.assoc_opt (Abi.Funsig.selector fsig) merged with
      | Some params ->
        Alcotest.(check bool)
          (Abi.Funsig.canonical fsig)
          true
          (List.length params = List.length fsig.Abi.Funsig.params
          && List.for_all2 Abi.Abity.equal params fsig.Abi.Funsig.params)
      | None -> Alcotest.failf "missing %s" (Abi.Funsig.canonical fsig))
    sigs

let test_batch_dedup_counted () =
  let code =
    Solc.Compile.compile_fn
      (Solc.Lang.fn_of_sig (Abi.Funsig.make "d" [ Uint 256 ]))
  in
  let engine = engine ~jobs:2 () in
  let reports = Sigrec.Engine.recover_all engine [ code; code; code ] in
  Alcotest.(check int) "three reports" 3 (List.length reports);
  Alcotest.(check int) "two batch duplicates" 2
    (Sigrec.Stats.inputs_deduped (Sigrec.Engine.stats engine));
  (* duplicates of an already-cached input still count as batch dups *)
  let _ = Sigrec.Engine.recover_all engine [ code; code ] in
  Alcotest.(check int) "cached duplicate counted" 3
    (Sigrec.Stats.inputs_deduped (Sigrec.Engine.stats engine))

let test_interner_traffic_recorded () =
  let code =
    Solc.Compile.compile_fn
      (Solc.Lang.fn_of_sig (Abi.Funsig.make "i" [ Address; Uint 256 ]))
  in
  let engine = engine () in
  let _ = Sigrec.Engine.recover engine code in
  let stats = Sigrec.Engine.stats engine in
  let hits = Sigrec.Stats.intern_hits stats in
  let misses = Sigrec.Stats.intern_misses stats in
  (* misses may be 0 when earlier tests already interned every node this
     contract builds, but an analysis cannot run without interner
     lookups *)
  Alcotest.(check bool) "interner traffic attributed to the analysis" true
    (hits + misses > 0);
  Alcotest.(check bool) "counters are non-negative" true
    (hits >= 0 && misses >= 0)

let test_budget_exhaustion_surfaces () =
  let fsig = Abi.Funsig.make "f" [ Uint 256; Address ] in
  let code = Solc.Compile.compile_fn (Solc.Lang.fn_of_sig fsig) in
  (* control: with the default budget this recovers cleanly *)
  let ok = Sigrec.Engine.recover (engine ()) code in
  Alcotest.(check bool) "control run recovers" true
    (List.exists
       (function Sigrec.Engine.Recovered _ -> true | _ -> false)
       ok.Sigrec.Engine.outcomes);
  (* a starved step budget must surface per function, not yield [] *)
  let budget =
    {
      Symex.Exec.max_paths = 1;
      Symex.Exec.max_steps = 4;
      Symex.Exec.max_forks_per_pc = 0;
    }
  in
  let engine =
    Sigrec.Engine.make Sigrec.Engine.Config.(default |> with_budget budget)
  in
  let report = Sigrec.Engine.recover engine code in
  Alcotest.(check bool) "outcomes not silently empty" true
    (report.Sigrec.Engine.outcomes <> []);
  List.iter
    (fun outcome ->
      match outcome with
      | Sigrec.Engine.Budget_exhausted _ -> ()
      | Sigrec.Engine.Recovered _ ->
        Alcotest.fail "starved run reported a full recovery"
      | Sigrec.Engine.Failed e ->
        Alcotest.failf "starved run failed outright: %s"
          e.Sigrec.Engine.message)
    report.Sigrec.Engine.outcomes

let test_no_functions_is_empty_not_failed () =
  (* PUSH1 0; PUSH1 0; RETURN — valid bytecode, no dispatcher *)
  let code = Evm.Hex.decode "60006000f3" in
  let report = Sigrec.Engine.recover (engine ()) code in
  Alcotest.(check int) "no outcomes" 0
    (List.length report.Sigrec.Engine.outcomes)

(* One Stats.t shared by several domains: every update is atomic, so
   the totals are exact however the increments interleave. *)
let test_concurrent_counters () =
  let s = Sigrec.Stats.create () in
  let domains = 4 and per_domain = 50_000 in
  List.iter Domain.join
    (List.init domains (fun _ ->
         Domain.spawn (fun () ->
             for _ = 1 to per_domain do
               Sigrec.Stats.hit_rule s "R4";
               Sigrec.Stats.add_paths s 1
             done)));
  Alcotest.(check int) "R4 exact" (domains * per_domain)
    (Sigrec.Stats.rule_count s "R4");
  Alcotest.(check int) "paths exact" (domains * per_domain)
    (Sigrec.Stats.paths_explored s);
  Alcotest.(check int) "other rules untouched" 0
    (Sigrec.Stats.rule_count s "R1")

let test_stats_scalar_sync () =
  (* both rendered surfaces must carry exactly the descriptor list's
     counters — including the layout ones added with the second
     product — with the descriptor's values *)
  let s = Sigrec.Stats.create () in
  Sigrec.Stats.add_layout s ~slots:3 ~unknown:1;
  Sigrec.Stats.add_layout s ~slots:2 ~unknown:0;
  Sigrec.Stats.add_cache_hits s 1;
  let json =
    match Sigrec.Json.parse (Sigrec.Stats.to_json s) with
    | Ok v -> v
    | Error e -> Alcotest.failf "stats JSON unparseable: %s" e
  in
  let counters = Sigrec.Stats.scalar_counters s in
  List.iter
    (fun (key, v) ->
      Alcotest.(check (option int)) ("json carries " ^ key) (Some v)
        (Option.bind (Sigrec.Json.member key json) Sigrec.Json.to_int_opt))
    counters;
  Alcotest.(check int) "layouts counted" 2
    (List.assoc "layouts_recovered" counters);
  Alcotest.(check int) "slots summed" 5 (List.assoc "layout_slots" counters);
  Alcotest.(check int) "unknown ops summed" 1
    (List.assoc "layout_unknown_ops" counters);
  (* the human rendering draws from the same values *)
  let text = Format.asprintf "%a" Sigrec.Stats.pp s in
  let contains sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length text && (String.sub text i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "pp shows the layout counters" true
    (contains "layouts: 2 recovered, 5 slots (1 unresolved ops)");
  Sigrec.Stats.add_classification s ~outcome:`Exact ~probes:2;
  Sigrec.Stats.add_classify_cache_hits s 1;
  Alcotest.(check bool) "pp renders the classify line exactly" true
    (List.mem
       "classify: 1 verdicts (1 exact / 0 partial / 0 unknown), 2 probes, 1 \
        cache hits"
       (String.split_on_char '\n' (Format.asprintf "%a" Sigrec.Stats.pp s)))

let test_engine_matches_recover () =
  (* the engine's signature view is the old Recover.recover result *)
  let codes = corpus_codes ~seed:13 6 in
  let engine = engine () in
  List.iter
    (fun code ->
      let via_engine =
        Sigrec.Engine.signatures (Sigrec.Engine.recover engine code)
      in
      let direct = Sigrec.Recover.recover code in
      Alcotest.(check int) "same count" (List.length direct)
        (List.length via_engine);
      List.iter2
        (fun (a : Sigrec.Recover.recovered) (b : Sigrec.Recover.recovered) ->
          Alcotest.(check string) "same selector" a.selector_hex
            b.selector_hex;
          Alcotest.(check bool) "same params" true
            (List.length a.params = List.length b.params
            && List.for_all2 Abi.Abity.equal a.params b.params))
        direct via_engine)
    codes

(* -- streaming recovery -------------------------------------------------- *)

let test_stream_matches_batch () =
  (* recover_stream must emit report-for-report what recover_all
     returns — up to from_cache flags, which depend on where the batch
     boundaries fall — whatever the batch size, including one that
     forces a flush on every feed and one larger than the corpus; and
     on 400 chain-profile lines (90% duplicates) at batch 64 *)
  let distinct = corpus_codes ~seed:14 6 in
  let codes =
    distinct @ [ List.nth distinct 2; List.hd distinct ] @ distinct
  in
  let chain = ref [] in
  Solc.Corpus.stream ~seed:20230717 ~n:400 ~dup_rate:0.9 (fun code ->
      chain := code :: !chain);
  List.iter
    (fun (codes, batch) ->
      let batch_reports = Sigrec.Engine.recover_all (engine ()) codes in
      let emitted = ref [] in
      let fed =
        Sigrec.Engine.recover_stream ~batch (engine ()) (List.to_seq codes)
          ~emit:(fun r -> emitted := r :: !emitted)
      in
      Alcotest.(check int)
        (Printf.sprintf "batch %d: all inputs fed" batch)
        (List.length codes) fed;
      Alcotest.(check string)
        (Printf.sprintf "batch %d: identical reports" batch)
        (render batch_reports)
        (render (List.rev !emitted)))
    [ (codes, 1); (codes, 4); (codes, 256); (List.rev !chain, 64) ]

let test_stream_dedup_counted () =
  let distinct = corpus_codes ~seed:15 3 in
  (* 3 distinct codes streamed 4 times each across small batches: the
     first appearance of each is an analysis, every later one must be
     answered from the cache and counted as a stream dedup hit *)
  let codes = List.concat [ distinct; distinct; distinct; distinct ] in
  let engine = engine () in
  let emitted = ref 0 in
  let fed =
    Sigrec.Engine.recover_stream ~batch:2 engine (List.to_seq codes)
      ~emit:(fun _ -> incr emitted)
  in
  Alcotest.(check int) "one report per fed code" fed !emitted;
  let stats = Sigrec.Engine.stats engine in
  Alcotest.(check int) "one analysis per distinct code"
    (List.length distinct)
    (Sigrec.Stats.cache_misses stats);
  Alcotest.(check int) "every repeat is a stream dedup hit"
    (List.length codes - List.length distinct)
    (Sigrec.Stats.stream_dedup_hits stats)

let test_stream_counters_in_descriptor_list () =
  (* the three stream counters flow through the shared descriptor list:
     present in scalar_counters and the JSON with the recorded values *)
  let s = Sigrec.Stats.create () in
  Sigrec.Stats.add_stream_lines s ~lines:120 ~skipped:3;
  Sigrec.Stats.add_stream_dedup s 70;
  let counters = Sigrec.Stats.scalar_counters s in
  Alcotest.(check int) "stream_lines" 120 (List.assoc "stream_lines" counters);
  Alcotest.(check int) "stream_skipped" 3
    (List.assoc "stream_skipped" counters);
  Alcotest.(check int) "stream_dedup_hits" 70
    (List.assoc "stream_dedup_hits" counters);
  let json =
    match Sigrec.Json.parse (Sigrec.Stats.to_json s) with
    | Ok v -> v
    | Error e -> Alcotest.failf "stats JSON unparseable: %s" e
  in
  List.iter
    (fun key ->
      Alcotest.(check (option int)) ("json carries " ^ key)
        (Some (List.assoc key counters))
        (Option.bind (Sigrec.Json.member key json) Sigrec.Json.to_int_opt))
    [ "stream_lines"; "stream_skipped"; "stream_dedup_hits" ]

(* -- the layout product ------------------------------------------------- *)

let layout_codes ?(seed = 21) n =
  List.map
    (fun s -> s.Solc.Corpus.lcode)
    (Solc.Corpus.layout_set ~seed ~n)

let render_layouts reports =
  String.concat "\n"
    (List.map
       (fun (r : Sigrec.Engine.layout_report) ->
         Format.asprintf "0x%s %a" r.Sigrec.Engine.layout_code_hash
           Sigrec_layout.Layout.pp r.Sigrec.Engine.layout)
       reports)

let test_layout_parallel_matches_sequential () =
  let codes = layout_codes 60 in
  let seq = Sigrec.Engine.layout_all (engine ~jobs:1 ()) codes in
  let par = Sigrec.Engine.layout_all (engine ~jobs:4 ()) codes in
  Alcotest.(check int) "one layout per input" (List.length codes)
    (List.length par);
  Alcotest.(check string) "byte-identical output" (render_layouts seq)
    (render_layouts par)

let test_layout_cache_and_dedup () =
  let distinct = layout_codes ~seed:22 60 in
  let codes = distinct @ [ List.hd distinct ] in
  let engine = engine ~jobs:2 () in
  let cold = Sigrec.Engine.layout_all engine codes in
  (* in-batch duplicate answered without re-analysis *)
  Alcotest.(check (list bool)) "only the duplicate attributed to cache"
    (List.map (fun _ -> false) distinct @ [ true ])
    (List.map (fun r -> r.Sigrec.Engine.layout_from_cache) cold);
  Alcotest.(check int) "one analysis per distinct bytecode"
    (List.length distinct)
    (Sigrec.Stats.layouts_recovered (Sigrec.Engine.stats engine));
  let warm = Sigrec.Engine.layout_all engine codes in
  Alcotest.(check string) "warm results identical to cold"
    (render_layouts cold) (render_layouts warm);
  Alcotest.(check bool) "warm batch answered from cache" true
    (List.for_all (fun r -> r.Sigrec.Engine.layout_from_cache) warm);
  Alcotest.(check int) "no re-analysis on the warm run"
    (List.length distinct)
    (Sigrec.Stats.layouts_recovered (Sigrec.Engine.stats engine));
  (* the single-code entry point shares the same cache *)
  let single = Sigrec.Engine.layout engine (List.hd distinct) in
  Alcotest.(check bool) "single lookup hits the batch-filled cache" true
    single.Sigrec.Engine.layout_from_cache

let test_layout_cache_independent_of_reports () =
  (* the two products cache independently: filling one LRU does not
     evict or pollute the other *)
  let code =
    Solc.Compile.compile
      (Solc.Compile.contract_of_sigs
         ~storage:[ Solc.Lang.svalue 0 ]
         [ Abi.Funsig.make "x" [ Uint 256 ] ])
  in
  let engine = engine () in
  let l1 = Sigrec.Engine.layout engine code in
  let _report = Sigrec.Engine.recover engine code in
  let r2 = Sigrec.Engine.recover engine code in
  let l2 = Sigrec.Engine.layout engine code in
  Alcotest.(check bool) "layout still cached after recover" true
    l2.Sigrec.Engine.layout_from_cache;
  Alcotest.(check bool) "report still cached after layout" true
    r2.Sigrec.Engine.from_cache;
  Alcotest.(check bool) "fresh first layout" false
    l1.Sigrec.Engine.layout_from_cache

(* -- per-product counter consistency --------------------------------- *)

(* Every product through the same batch path must count the same way:
   fresh answers are its miss counter, [from_cache] answers its hit
   counter, in-batch duplicates move [inputs_deduped], and the engine's
   eviction counter is the total over all its LRUs. *)
let test_product_counters () =
  let distinct = layout_codes ~seed:23 4 in
  let codes = distinct @ [ List.nth distinct 1; List.hd distinct ] in
  let dups = List.length codes - List.length distinct in
  (* each product: its from_cache flags over [codes], then its miss and
     hit counters *)
  let products =
    [
      ( "reports",
        (fun e ->
          List.map
            (fun r -> r.Sigrec.Engine.from_cache)
            (Sigrec.Engine.recover_all e codes)),
        Sigrec.Stats.cache_misses,
        Sigrec.Stats.cache_hits );
      ( "layouts",
        (fun e ->
          List.map
            (fun r -> r.Sigrec.Engine.layout_from_cache)
            (Sigrec.Engine.layout_all e codes)),
        Sigrec.Stats.layouts_recovered,
        Sigrec.Stats.layout_cache_hits );
      ( "verdicts",
        (fun e ->
          List.map
            (fun r -> r.Sigrec.Engine.classify_from_cache)
            (Sigrec.Engine.classify_all e codes)),
        Sigrec.Stats.classifications,
        Sigrec.Stats.classify_cache_hits );
    ]
  in
  List.iter
    (fun (name, run, misses, hits) ->
      let batch what e =
        let stats = Sigrec.Engine.stats e in
        let m0 = misses stats
        and h0 = hits stats
        and d0 = Sigrec.Stats.inputs_deduped stats in
        let cached = run e in
        let n_cached = List.length (List.filter Fun.id cached) in
        let label s = Printf.sprintf "%s, %s: %s" name what s in
        Alcotest.(check int) (label "fresh answers = misses")
          (List.length cached - n_cached) (misses stats - m0);
        Alcotest.(check int) (label "cached answers = hits") n_cached
          (hits stats - h0);
        Alcotest.(check int) (label "in-batch duplicates") dups
          (Sigrec.Stats.inputs_deduped stats - d0);
        let evictions =
          List.fold_left
            (fun acc (_, _, _, ev) -> acc + ev)
            0 (Sigrec.Engine.cache_stats e)
        in
        Alcotest.(check int) (label "evictions = LRU total") evictions
          (Sigrec.Stats.cache_evictions stats);
        (n_cached, evictions)
      in
      let e = engine ~jobs:2 () in
      let cold_cached, _ = batch "cold" e in
      Alcotest.(check int) (name ^ ": cold batch caches only duplicates") dups
        cold_cached;
      let warm_cached, _ = batch "warm" e in
      Alcotest.(check int) (name ^ ": warm batch fully cached")
        (List.length codes) warm_cached;
      let small =
        Sigrec.Engine.make
          Sigrec.Engine.Config.(default |> with_jobs 2 |> with_cache_capacity 2)
      in
      let _, evictions = batch "capacity 2" small in
      Alcotest.(check bool) (name ^ ": capacity 2 evicts") true (evictions > 0))
    products

let suite =
  [
    Alcotest.test_case "parallel = sequential" `Slow
      test_parallel_matches_sequential;
    Alcotest.test_case "warm cache = cold run" `Slow
      test_cache_identical_to_cold;
    Alcotest.test_case "one analysis per distinct bytecode" `Quick
      test_one_analysis_per_distinct_bytecode;
    Alcotest.test_case "batch duplicates counted" `Quick
      test_batch_dedup_counted;
    Alcotest.test_case "interner traffic recorded" `Quick
      test_interner_traffic_recorded;
    Alcotest.test_case "budget exhaustion surfaces" `Quick
      test_budget_exhaustion_surfaces;
    Alcotest.test_case "no functions /= failure" `Quick
      test_no_functions_is_empty_not_failed;
    Alcotest.test_case "concurrent counters exact" `Quick
      test_concurrent_counters;
    Alcotest.test_case "stats scalar descriptor sync" `Quick
      test_stats_scalar_sync;
    Alcotest.test_case "engine = Recover.recover" `Quick
      test_engine_matches_recover;
    Alcotest.test_case "stream = batch" `Quick test_stream_matches_batch;
    Alcotest.test_case "stream dedup counted" `Quick
      test_stream_dedup_counted;
    Alcotest.test_case "stream counters in descriptor list" `Quick
      test_stream_counters_in_descriptor_list;
    Alcotest.test_case "layout: parallel = sequential" `Quick
      test_layout_parallel_matches_sequential;
    Alcotest.test_case "layout: cache and dedup" `Quick
      test_layout_cache_and_dedup;
    Alcotest.test_case "layout: caches are per-product" `Quick
      test_layout_cache_independent_of_reports;
    Alcotest.test_case "per-product counters agree" `Quick
      test_product_counters;
  ]
