(* The metric registry's contract: histograms place and merge exactly,
   quantiles stay within one bucket of the truth, and the OpenMetrics
   exposition is byte-stable and self-consistent.

   - Bucket bounds are strictly ascending and observations land in the
     first bucket whose bound covers them (cumulative `le` semantics).
   - Per-domain shards merged at read equal a single-domain reference,
     and merge_snapshots is associative/commutative.
   - The quantile estimate is the upper bound of the bucket holding the
     exact sample quantile — within one bucket by construction.
   - A fresh registry renders a hand-checked exposition golden, which
     also parses back line by line (families typed once, a labelled
     family's samples together even when its members were created
     apart, cumulative buckets, `# EOF` terminator).
   - The serve metrics op answers the exposition of the process-wide
     and the engine's registries: the hardware-clamped worker count,
     the LRU figures and the engine's counter families. *)

module Mx = Sigrec_metrics.Metrics

let compile fsig = Solc.Compile.compile_fn (Solc.Lang.fn_of_sig fsig)

(* -- buckets ----------------------------------------------------------- *)

let test_bucket_bounds_monotonic () =
  let ascending a =
    let ok = ref true in
    for i = 1 to Array.length a - 1 do
      if a.(i) <= a.(i - 1) then ok := false
    done;
    !ok
  in
  Alcotest.(check bool) "default latency bounds ascend" true
    (ascending Mx.default_latency_buckets);
  Alcotest.(check bool) "default bounds non-empty" true
    (Array.length Mx.default_latency_buckets > 4);
  let b = Mx.log_buckets ~base:10 ~lo:5 ~count:6 in
  Alcotest.(check bool) "log bounds ascend" true (ascending b);
  Alcotest.(check int) "log lo" 5 b.(0);
  Alcotest.(check int) "log growth" 50 b.(1);
  Alcotest.(check int) "log count" 6 (Array.length b)

let test_observe_placement () =
  let reg = Mx.create_registry () in
  let h =
    Mx.histogram ~registry:reg ~buckets:[| 10; 100; 1000 |] ~scale:1.0
      "placement"
  in
  (* one value per region: each bucket holds v <= bound, > previous *)
  List.iter (Mx.observe h) [ 1; 10; 11; 100; 1000; 1001 ];
  let s = Mx.snapshot h in
  Alcotest.(check (array int)) "per-bucket counts" [| 2; 2; 1; 1 |] s.buckets;
  Alcotest.(check int) "count" 6 s.Mx.count;
  Alcotest.(check int) "sum" 2123 s.Mx.sum;
  Alcotest.(check (array int)) "bounds preserved" [| 10; 100; 1000 |]
    s.Mx.bounds

(* -- shard merge ------------------------------------------------------- *)

(* java.util.Random's LCG multiplier — 6364136223846793005 would
   overflow OCaml's 63-bit int *)
let lcg seed =
  let st = ref seed in
  fun () ->
    st := (!st * 25214903917) + 11;
    !st land max_int mod 100_000_000

let test_shard_merge_matches_sequential () =
  let n = 100_000 and shards = 4 in
  let reg = Mx.create_registry () in
  let seq = Mx.histogram ~registry:reg "seq" in
  let par = Mx.histogram ~registry:reg "par" in
  let next = lcg 42 in
  let values = Array.init n (fun _ -> next ()) in
  Array.iter (Mx.observe seq) values;
  let chunk = n / shards in
  Sigrec.Pool.ensure shards;
  let tasks =
    List.init shards (fun s () ->
        for i = s * chunk to ((s + 1) * chunk) - 1 do
          Mx.observe par values.(i)
        done)
  in
  Sigrec.Pool.await (Sigrec.Pool.submit tasks);
  let a = Mx.snapshot seq and b = Mx.snapshot par in
  Alcotest.(check (array int)) "buckets merge exactly" a.Mx.buckets b.Mx.buckets;
  Alcotest.(check int) "sums equal" a.Mx.sum b.Mx.sum;
  Alcotest.(check int) "counts equal" a.Mx.count b.Mx.count

let test_merge_snapshots_associative () =
  let reg = Mx.create_registry () in
  let mk name vals =
    let h = Mx.histogram ~registry:reg ~buckets:[| 10; 100 |] name in
    List.iter (Mx.observe h) vals;
    Mx.snapshot h
  in
  let a = mk "a" [ 1; 5; 200 ]
  and b = mk "b" [ 50; 60 ]
  and c = mk "c" [ 2; 101; 300; 7 ] in
  let l = Mx.merge_snapshots (Mx.merge_snapshots a b) c in
  let r = Mx.merge_snapshots a (Mx.merge_snapshots b c) in
  Alcotest.(check (array int)) "associative buckets" l.Mx.buckets r.Mx.buckets;
  Alcotest.(check int) "associative sum" l.Mx.sum r.Mx.sum;
  let ab = Mx.merge_snapshots a b and ba = Mx.merge_snapshots b a in
  Alcotest.(check (array int)) "commutative buckets" ab.Mx.buckets ba.Mx.buckets;
  Alcotest.(check int) "total count" 9 l.Mx.count

(* -- hot path ---------------------------------------------------------- *)

(* A disabled probe is one atomic load and a branch, and an enabled
   observe is a bucket scan and three stores: over 10M calls each, both
   stay under 0.01 minor words per call, so a chain-scale census never
   feeds the GC from the metrics layer. *)
let test_hot_path_allocates_nothing () =
  let h = Mx.histogram ~registry:(Mx.create_registry ()) "hot_path" in
  let words_per_call f =
    let ops = 10_000_000 in
    let m0 = Gc.minor_words () in
    for i = 0 to ops - 1 do
      f i
    done;
    (Gc.minor_words () -. m0) /. float_of_int ops
  in
  Mx.disable ();
  let disabled =
    words_per_call (fun i -> if Mx.enabled () then Mx.observe h i)
  in
  let observe = words_per_call (Mx.observe h) in
  if disabled >= 0.01 then
    Alcotest.failf "disabled probe: %.5f minor words per call" disabled;
  if observe >= 0.01 then
    Alcotest.failf "enabled observe: %.5f minor words per call" observe

(* -- quantiles --------------------------------------------------------- *)

let test_quantile_within_one_bucket () =
  let reg = Mx.create_registry () in
  let bounds = Mx.log_buckets ~base:4 ~lo:16 ~count:10 in
  let h = Mx.histogram ~registry:reg ~buckets:bounds "q" in
  let next = lcg 7 in
  let n = 5_000 in
  let values = Array.init n (fun _ -> (next () mod 1_000_000) + 1) in
  Array.iter (Mx.observe h) values;
  let sorted = Array.copy values in
  Array.sort compare sorted;
  let s = Mx.snapshot h in
  (* the bucket that holds a value v: first bound >= v, else overflow *)
  let bucket_of v =
    let rec go i =
      if i >= Array.length bounds then i
      else if v <= bounds.(i) then i
      else go (i + 1)
    in
    go 0
  in
  List.iter
    (fun q ->
      let rank = Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
      let exact = sorted.(rank - 1) in
      (* quantile answers in the conventional ns→s scale *)
      let estimate_ns = Mx.quantile s q *. 1e9 in
      let est_bucket =
        if Float.is_integer estimate_ns then bucket_of (int_of_float estimate_ns)
        else Array.length bounds
      in
      Alcotest.(check int)
        (Printf.sprintf "q=%.2f estimate is the exact sample's bucket" q)
        (bucket_of exact) est_bucket)
    [ 0.5; 0.9; 0.99; 1.0 ];
  Alcotest.(check bool) "empty snapshot answers nan" true
    (Float.is_nan
       (Mx.quantile
          (Mx.snapshot (Mx.histogram ~registry:reg ~buckets:bounds "empty"))
          0.5))

(* -- exposition -------------------------------------------------------- *)

let exposition_golden =
  String.concat "\n"
    [
      "# HELP t_requests handled requests";
      "# TYPE t_requests counter";
      "t_requests_total 3";
      "# TYPE t_fired counter";
      "t_fired_total{rule=\"R1\"} 1";
      "t_fired_total{rule=\"R2\"} 0";
      "# TYPE t_temp gauge";
      "t_temp{k=\"v\\\"w\"} 1.5";
      "# TYPE t_sizes histogram";
      "t_sizes_bucket{le=\"10\"} 1";
      "t_sizes_bucket{le=\"100\"} 2";
      "t_sizes_bucket{le=\"+Inf\"} 3";
      "t_sizes_sum 555";
      "t_sizes_count 3";
      "# EOF";
      "";
    ]

let test_exposition_golden () =
  let reg = Mx.create_registry () in
  let c = Mx.counter ~registry:reg ~help:"handled requests" "t_requests" in
  Mx.inc c;
  Mx.add c 2;
  let fired rule =
    Mx.counter ~registry:reg ~labels:[ ("rule", rule) ] "t_fired"
  in
  Mx.inc (fired "R1");
  (* a label value with a quote renders escaped *)
  Mx.set_gauge
    (Mx.gauge ~registry:reg ~labels:[ ("k", "v\"w") ] "t_temp")
    1.5;
  (* created after another family: still rendered with its family *)
  ignore (fired "R2" : Mx.counter);
  let h =
    Mx.histogram ~registry:reg ~buckets:[| 10; 100 |] ~scale:1.0 "t_sizes"
  in
  List.iter (Mx.observe h) [ 5; 50; 500 ];
  Alcotest.(check string) "exposition byte-stable" exposition_golden
    (Mx.expose [ reg ]);
  (* parse it back: every family typed exactly once, buckets cumulative *)
  let lines = String.split_on_char '\n' (Mx.expose [ reg ]) in
  let type_lines =
    List.filter (fun l -> String.length l > 7 && String.sub l 0 7 = "# TYPE ")
      lines
  in
  Alcotest.(check int) "four families typed" 4 (List.length type_lines);
  Alcotest.(check int) "families typed once" 4
    (List.length (List.sort_uniq compare type_lines));
  Alcotest.(check string) "terminator" "# EOF"
    (List.nth lines (List.length lines - 2))

(* -- top-K ring -------------------------------------------------------- *)

let test_top_ring () =
  Mx.Top.reset ();
  for i = 1 to Mx.Top.capacity + 5 do
    Mx.Top.record
      ~key:(Printf.sprintf "c%02d" i)
      ~elapsed_ns:(i * 100)
      ~detail:[ ("lift_ns", i) ]
  done;
  let entries = Mx.Top.slowest () in
  Alcotest.(check int) "bounded at capacity" Mx.Top.capacity
    (List.length entries);
  Alcotest.(check string) "slowest first"
    (Printf.sprintf "c%02d" (Mx.Top.capacity + 5))
    (List.hd entries).Mx.Top.key;
  (* duplicate keys keep the slower observation *)
  Mx.Top.record ~key:"c21" ~elapsed_ns:1 ~detail:[];
  Alcotest.(check int) "slower duplicate kept" 2100
    (List.hd (Mx.Top.slowest ())).Mx.Top.elapsed_ns;
  Mx.Top.reset ()

(* -- serve surface ----------------------------------------------------- *)

let handle t line = (Sigrec.Serve.handle_line t line).Sigrec.Serve.response

let parse_exn line =
  match Sigrec.Json.parse line with
  | Ok v -> v
  | Error e -> Alcotest.failf "unparseable response: %s" e

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let exposition reply =
  match Sigrec.Json.member "exposition" reply with
  | Some (Sigrec.Json.Str s) -> s
  | _ -> Alcotest.fail "no exposition string in reply"

let test_serve_workers_field () =
  let t = Sigrec.Serve.create Sigrec.Engine.Config.default in
  let lines =
    String.split_on_char '\n'
      (exposition (parse_exn (handle t {|{"id":1,"op":"metrics"}|})))
  in
  let has what line = Alcotest.(check bool) what true (List.mem line lines) in
  has "workers = effective, hardware-clamped jobs"
    (Printf.sprintf "sigrec_engine_workers %d"
       (Sigrec.Engine.effective_jobs (Sigrec.Serve.engine t)));
  has "unbounded cache capacity reported"
    "sigrec_lru_capacity{cache=\"reports\"} 0";
  (* "format" may be omitted or "openmetrics"; anything else is refused *)
  let refused =
    parse_exn (handle t {|{"id":2,"op":"metrics","format":"json"}|})
  in
  Alcotest.(check bool) "unknown format refused" true
    (Sigrec.Json.member "ok" refused = Some (Sigrec.Json.Bool false))

let test_serve_openmetrics () =
  let t = Sigrec.Serve.create Sigrec.Engine.Config.default in
  Mx.enable ();
  Fun.protect
    ~finally:(fun () ->
      Mx.disable ();
      Mx.reset ())
    (fun () ->
      let code = compile (Abi.Funsig.make "transfer" [ Abi.Abity.Address ]) in
      let (_ : string) =
        handle t
          (Printf.sprintf {|{"id":1,"op":"recover","codes":["0x%s"]}|}
             (Evm.Hex.encode code))
      in
      let reply =
        parse_exn (handle t {|{"id":2,"op":"metrics","format":"openmetrics"}|})
      in
      let exposition = exposition reply in
      List.iter
        (fun family ->
          Alcotest.(check bool)
            (Printf.sprintf "exposition carries %s" family)
            true
            (contains family exposition))
        [
          "sigrec_phase_duration_seconds";
          "sigrec_request_duration_seconds";
          "sigrec_gc_heap_bytes";
          "sigrec_lru_entries";
          "sigrec_pool_workers";
          "sigrec_serve_requests_total";
          "sigrec_cache_misses_total";
          "sigrec_cache_hits_total";
          "sigrec_rule_fired_total{rule=";
          "sigrec_engine_workers";
          "# EOF";
        ];
      (* the top ring saw the analysis the recover request ran *)
      let top = parse_exn (handle t {|{"id":3,"op":"metrics","top":true}|}) in
      match Sigrec.Json.member "slowest" top with
      | Some (Sigrec.Json.Arr (_ :: _)) -> ()
      | _ -> Alcotest.fail "top ring empty after a fresh analysis")

let suite =
  [
    Alcotest.test_case "bucket bounds monotonic" `Quick
      test_bucket_bounds_monotonic;
    Alcotest.test_case "observe placement" `Quick test_observe_placement;
    Alcotest.test_case "shard merge matches sequential" `Quick
      test_shard_merge_matches_sequential;
    Alcotest.test_case "merge snapshots associative" `Quick
      test_merge_snapshots_associative;
    Alcotest.test_case "quantile within one bucket" `Quick
      test_quantile_within_one_bucket;
    Alcotest.test_case "exposition golden" `Quick test_exposition_golden;
    Alcotest.test_case "top-K ring" `Quick test_top_ring;
    Alcotest.test_case "serve workers field" `Quick test_serve_workers_field;
    Alcotest.test_case "serve openmetrics exposition" `Quick
      test_serve_openmetrics;
    Alcotest.test_case "hot path allocates nothing" `Quick
      test_hot_path_allocates_nothing;
  ]
