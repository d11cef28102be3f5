(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5) and the three application studies (§6).

   Each experiment prints the same rows/series the paper reports;
   EXPERIMENTS.md records paper-vs-measured. One Bechamel
   micro-benchmark per table/figure times the experiment's unit of
   work. Dataset sizes are scaled so the full run finishes in minutes
   (see DESIGN.md: proportions, not absolute counts, are the target). *)

let seed = 20230704

let section title =
  Printf.printf "\n=== %s %s\n%!" title
    (String.make (Stdlib.max 1 (66 - String.length title)) '=')

(* ---------------------------------------------------------------- *)
(* Shared evaluation plumbing                                        *)
(* ---------------------------------------------------------------- *)

type breakdown = {
  mutable correct : int;
  mutable not_recovered : int;
  mutable aborted : int;
  mutable wrong_types : int;
  mutable wrong_count : int;
  mutable total : int;
}

let fresh_breakdown () =
  {
    correct = 0;
    not_recovered = 0;
    aborted = 0;
    wrong_types = 0;
    wrong_count = 0;
    total = 0;
  }

let classify_outcome b (truth : Abi.Funsig.t) outcome =
  b.total <- b.total + 1;
  match outcome with
  | Tools.Baseline.Aborted -> b.aborted <- b.aborted + 1
  | Tools.Baseline.Not_recovered -> b.not_recovered <- b.not_recovered + 1
  | Tools.Baseline.Recovered tys ->
    if List.length tys <> List.length truth.Abi.Funsig.params then
      b.wrong_count <- b.wrong_count + 1
    else if List.for_all2 Abi.Abity.equal tys truth.Abi.Funsig.params then
      b.correct <- b.correct + 1
    else b.wrong_types <- b.wrong_types + 1

let pct part total =
  100.0 *. float_of_int part /. float_of_int (Stdlib.max 1 total)

(* every bench engine goes through the one Config record *)
let engine_with ?(jobs = 1) ?(static_prune = true) ?(cache_capacity = 0) () =
  Sigrec.Engine.make
    Sigrec.Engine.Config.(
      default |> with_jobs jobs
      |> with_static_prune static_prune
      |> with_cache_capacity cache_capacity)

(* SigRec packaged with the same interface as the baselines. Routed
   through a batch engine so that the repeated per-tool queries of the
   same bytecode hit the content-addressed cache instead of re-running
   the analysis. *)
let sigrec_tool ?engine () =
  let engine =
    match engine with Some e -> e | None -> engine_with ()
  in
  let run ~bytecode ~selector =
    let report = Sigrec.Engine.recover engine bytecode in
    match
      List.find_opt
        (fun r -> r.Sigrec.Recover.selector = selector)
        (Sigrec.Engine.signatures report)
    with
    | Some r -> Tools.Baseline.Recovered r.Sigrec.Recover.params
    | None -> Tools.Baseline.Not_recovered
  in
  { Tools.Baseline.name = "SigRec"; run }

let eval_tools tools samples =
  List.map
    (fun (tool : Tools.Baseline.t) ->
      let b = fresh_breakdown () in
      List.iter
        (fun s ->
          let truth = Solc.Corpus.truth s in
          let outcome =
            tool.Tools.Baseline.run ~bytecode:s.Solc.Corpus.code
              ~selector:(Abi.Funsig.selector truth)
          in
          classify_outcome b truth outcome)
        samples;
      (tool.Tools.Baseline.name, b))
    tools

let print_breakdown_table rows =
  Printf.printf "%-11s %9s %9s %9s %9s %9s\n" "tool" "correct" "norecov"
    "aborted" "wrongty" "wrongcnt";
  List.iter
    (fun (name, b) ->
      Printf.printf "%-11s %8.1f%% %8.1f%% %8.1f%% %8.1f%% %8.1f%%\n" name
        (pct b.correct b.total)
        (pct b.not_recovered b.total)
        (pct b.aborted b.total)
        (pct b.wrong_types b.total)
        (pct b.wrong_count b.total))
    rows

let standard_tools db =
  Tools.Baseline.[ osd db; ebd db; jeb db; eveem db; gigahorse db ]

(* ---------------------------------------------------------------- *)
(* Bechamel micro-benchmarks: one per table/figure                   *)
(* ---------------------------------------------------------------- *)

let bechamel_tests : (string * (unit -> unit)) list ref = ref []
let register_bench name f = bechamel_tests := (name, f) :: !bechamel_tests

let run_bechamel () =
  section "Bechamel micro-benchmarks (ns per experiment unit)";
  let open Bechamel in
  let tests =
    List.rev_map
      (fun (name, f) -> Test.make ~name (Staged.stage f))
      !bechamel_tests
  in
  let grouped = Test.make_grouped ~name:"sigrec" tests in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.4) () in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  List.iter
    (fun elt ->
      let raw = Benchmark.run cfg [ Toolkit.Instance.monotonic_clock ] elt in
      let result = Analyze.one ols Toolkit.Instance.monotonic_clock raw in
      let estimate =
        match Analyze.OLS.estimates result with
        | Some (e :: _) -> e
        | _ -> nan
      in
      Printf.printf "%-40s %12.0f ns/run\n" (Test.Elt.name elt) estimate)
    (Test.elements grouped)

(* ---------------------------------------------------------------- *)
(* Table 1: closed-source contracts                                  *)
(* ---------------------------------------------------------------- *)

let table1 () =
  section "Table 1: closed-source contracts (agreement with SigRec)";
  let samples = Solc.Corpus.dataset1 ~seed ~n:1200 in
  (* closed-source: a smaller share of their signatures ever made it
     into public databases *)
  let db = Tools.Efsd.create () in
  Tools.Efsd.populate db ~coverage:0.38 ~seed
    (List.map Solc.Corpus.truth samples);
  let sigrec = sigrec_tool () in
  let tools = standard_tools db in
  Printf.printf "%-11s %16s %9s\n" "tool" "same-as-SigRec" "aborted";
  List.iter
    (fun (tool : Tools.Baseline.t) ->
      let same = ref 0 and aborted = ref 0 and total = ref 0 in
      List.iter
        (fun s ->
          let truth = Solc.Corpus.truth s in
          let selector = Abi.Funsig.selector truth in
          let bytecode = s.Solc.Corpus.code in
          incr total;
          match
            ( sigrec.Tools.Baseline.run ~bytecode ~selector,
              tool.Tools.Baseline.run ~bytecode ~selector )
          with
          | Tools.Baseline.Recovered a, Tools.Baseline.Recovered b
            when List.length a = List.length b
                 && List.for_all2 Abi.Abity.equal a b ->
            incr same
          | _, Tools.Baseline.Aborted -> incr aborted
          | _ -> ())
        samples;
      Printf.printf "%-11s %15.1f%% %8.1f%%\n" tool.Tools.Baseline.name
        (pct !same !total) (pct !aborted !total))
    tools;
  let sample = List.hd samples in
  register_bench "table1:recover-closed-source" (fun () ->
      ignore (Sigrec.Recover.recover sample.Solc.Corpus.code))

(* ---------------------------------------------------------------- *)
(* Table 2: 1000 synthesized functions                               *)
(* ---------------------------------------------------------------- *)

let table2 () =
  section "Table 2: 1000 synthesized function signatures";
  let samples = Solc.Corpus.dataset2 ~seed ~n:1000 in
  (* none of the synthesized signatures exist in any database *)
  let empty_db = Tools.Efsd.create () in
  let eveem_rules_only =
    {
      Tools.Baseline.name = "Eveem";
      run =
        (fun ~bytecode ~selector ->
          Tools.Baseline.eveem_heuristic ~bytecode ~selector);
    }
  in
  let tools =
    [ sigrec_tool () ]
    @ Tools.Baseline.[ osd empty_db; ebd empty_db; jeb empty_db ]
    @ [ eveem_rules_only ]
  in
  print_breakdown_table (eval_tools tools samples);
  let sample = List.hd samples in
  register_bench "table2:recover-synthesized" (fun () ->
      ignore (Sigrec.Recover.recover sample.Solc.Corpus.code))

(* ---------------------------------------------------------------- *)
(* Table 3: open-source contracts                                    *)
(* ---------------------------------------------------------------- *)

let table3 () =
  section "Table 3: open-source contracts";
  let samples = Solc.Corpus.dataset3 ~seed ~n:2000 in
  (* the paper finds >49% of open-source signatures missing from EFSD *)
  let db = Tools.Efsd.create () in
  Tools.Efsd.populate db ~coverage:0.509 ~seed
    (List.map Solc.Corpus.truth samples);
  let tools = sigrec_tool () :: standard_tools db in
  print_breakdown_table (eval_tools tools samples);
  let sample = List.hd samples in
  register_bench "table3:recover-open-source" (fun () ->
      ignore (Sigrec.Recover.recover sample.Solc.Corpus.code))

(* ---------------------------------------------------------------- *)
(* Table 4: struct and nested arrays (ABIEncoderV2)                  *)
(* ---------------------------------------------------------------- *)

let table4 () =
  section "Table 4: struct and nested array parameters";
  let samples = Solc.Corpus.abiv2_set ~seed ~n:1104 in
  (* the paper: 10.1% of these signatures are recorded in EFSD *)
  let db = Tools.Efsd.create () in
  Tools.Efsd.populate db ~coverage:0.101 ~seed
    (List.map Solc.Corpus.truth samples);
  let tools = sigrec_tool () :: standard_tools db in
  print_breakdown_table (eval_tools tools samples);
  let sample = List.hd samples in
  register_bench "table4:recover-abiv2" (fun () ->
      ignore (Sigrec.Recover.recover sample.Solc.Corpus.code))

(* ---------------------------------------------------------------- *)
(* Table 5: Vyper contracts                                          *)
(* ---------------------------------------------------------------- *)

let table5 () =
  section "Table 5: Vyper contracts";
  let samples = Solc.Corpus.vyper_set ~seed ~n:1076 in
  let db = Tools.Efsd.create () in
  Tools.Efsd.populate db ~coverage:0.35 ~seed
    (List.map Solc.Corpus.truth samples);
  let tools = sigrec_tool () :: standard_tools db in
  print_breakdown_table (eval_tools tools samples);
  let sample = List.hd samples in
  register_bench "table5:recover-vyper" (fun () ->
      ignore (Sigrec.Recover.recover sample.Solc.Corpus.code))

(* ---------------------------------------------------------------- *)
(* Fig. 15 / Fig. 16: accuracy per compiler version                  *)
(* ---------------------------------------------------------------- *)

let fig15_16 () =
  section "Fig. 15/16: accuracy per compiler version";
  let per_version = 80 in
  let groups = Solc.Corpus.versioned ~seed ~per_version in
  let min_sol = ref 100.0 and min_vy = ref 100.0 in
  List.iter
    (fun ((version : Solc.Version.t), samples) ->
      let ok = ref 0 in
      List.iter
        (fun s ->
          let truth = Solc.Corpus.truth s in
          match Sigrec.Recover.recover s.Solc.Corpus.code with
          | [ r ]
            when r.Sigrec.Recover.selector = Abi.Funsig.selector truth
                 && List.length r.Sigrec.Recover.params
                    = List.length truth.Abi.Funsig.params
                 && List.for_all2 Abi.Abity.equal r.Sigrec.Recover.params
                      truth.Abi.Funsig.params ->
            incr ok
          | _ -> ())
        samples;
      let acc = pct !ok per_version in
      let lang =
        match version.Solc.Version.lang with
        | Abi.Abity.Solidity ->
          if acc < !min_sol then min_sol := acc;
          "solidity"
        | Abi.Abity.Vyper ->
          if acc < !min_vy then min_vy := acc;
          "vyper"
      in
      Printf.printf "%-9s %-12s %6.1f%%  %s\n" lang version.Solc.Version.name
        acc
        (String.make (int_of_float (acc /. 2.5)) '#'))
    groups;
  Printf.printf
    "\nminimum accuracy: Solidity %.1f%% (paper: never below 96%%), Vyper \
     %.1f%%\n"
    !min_sol !min_vy;
  let _, samples = List.hd groups in
  let sample = List.hd samples in
  register_bench "fig15:recover-per-version" (fun () ->
      ignore (Sigrec.Recover.recover sample.Solc.Corpus.code))

(* ---------------------------------------------------------------- *)
(* Fig. 17: time to recover a signature                              *)
(* ---------------------------------------------------------------- *)

let fig17 () =
  section "Fig. 17: recovery time distribution";
  let samples = Solc.Corpus.dataset3 ~seed:(seed + 1) ~n:600 in
  let times =
    List.map
      (fun s ->
        let t0 = Sys.time () in
        ignore (Sigrec.Recover.recover s.Solc.Corpus.code);
        Sys.time () -. t0)
      samples
  in
  let sorted = List.sort compare times in
  let n = List.length sorted in
  let nth p = List.nth sorted (Stdlib.min (n - 1) (p * n / 100)) in
  let avg = List.fold_left ( +. ) 0.0 times /. float_of_int n in
  let buckets =
    [ (0.001, "<= 1 ms"); (0.01, "<= 10 ms"); (0.1, "<= 100 ms");
      (1.0, "<= 1 s"); (infinity, "> 1 s") ]
  in
  let prev = ref 0.0 in
  List.iter
    (fun (ub, label) ->
      let c =
        List.length (List.filter (fun t -> t <= ub && t > !prev) times)
      in
      Printf.printf "%-10s %6d functions  %s\n" label c
        (String.make (60 * c / n) '#');
      prev := ub)
    buckets;
  Printf.printf
    "\naverage %.4f s; median %.4f s; p99 %.4f s; %.1f%% within 1 s\n\
     (paper: average 0.074 s, 99.7%% within 1 s)\n"
    avg (nth 50) (nth 99)
    (pct (List.length (List.filter (fun t -> t <= 1.0) times)) n);
  let sample = List.hd samples in
  register_bench "fig17:recover-one-signature" (fun () ->
      ignore (Sigrec.Recover.recover sample.Solc.Corpus.code))

(* ---------------------------------------------------------------- *)
(* Fig. 18: recovery time vs array dimension                         *)
(* ---------------------------------------------------------------- *)

let fig18 () =
  section "Fig. 18: recovery time vs array dimension (1-20)";
  let time_for dim =
    (* an n-dimensional dynamic uint256 array parameter, lower
       dimensions of size 1, in an external function *)
    let rec build d =
      if d = 0 then Abi.Abity.Uint 256
      else Abi.Abity.Sarray (build (d - 1), 1)
    in
    let ty = Abi.Abity.Darray (build (dim - 1)) in
    let fsig =
      Abi.Funsig.make ~visibility:Abi.Funsig.External "deep" [ ty ]
    in
    let code = Solc.Compile.compile_fn (Solc.Lang.fn_of_sig fsig) in
    let t0 = Sys.time () in
    let reps = 5 in
    for _ = 1 to reps do
      ignore (Sigrec.Recover.recover code)
    done;
    (Sys.time () -. t0) /. float_of_int reps
  in
  let base = ref 1e-9 in
  List.iter
    (fun dim ->
      let t = time_for dim in
      if dim = 1 then base := Stdlib.max t 1e-9;
      Printf.printf "dim %2d: %8.4f s  %s\n" dim t
        (String.make (Stdlib.min 60 (int_of_float (t /. !base *. 3.0))) '#'))
    [ 1; 2; 3; 4; 5; 6; 8; 10; 12; 14; 16; 18; 20 ];
  Printf.printf
    "(paper: time grows linearly with the dimension; deployed arrays have \
     dimension <= 3)\n";
  register_bench "fig18:recover-dim8-array" (fun () ->
      let rec build d =
        if d = 0 then Abi.Abity.Uint 256
        else Abi.Abity.Sarray (build (d - 1), 1)
      in
      let fsig =
        Abi.Funsig.make ~visibility:Abi.Funsig.External "deep"
          [ Abi.Abity.Darray (build 7) ]
      in
      let code = Solc.Compile.compile_fn (Solc.Lang.fn_of_sig fsig) in
      ignore (Sigrec.Recover.recover code))

(* ---------------------------------------------------------------- *)
(* Fig. 19: rule usage frequency                                     *)
(* ---------------------------------------------------------------- *)

let fig19 () =
  section "Fig. 19: rule usage frequency";
  let stats = Sigrec.Stats.create () in
  let samples =
    Solc.Corpus.dataset3 ~seed ~n:1200
    @ Solc.Corpus.vyper_set ~seed ~n:300
    @ Solc.Corpus.abiv2_set ~seed ~n:300
  in
  List.iter
    (fun s -> ignore (Sigrec.Recover.recover ~stats s.Solc.Corpus.code))
    samples;
  let counts = Sigrec.Stats.rule_counts stats in
  let maxc = List.fold_left (fun acc (_, c) -> Stdlib.max acc c) 1 counts in
  List.iter
    (fun (name, c) ->
      Printf.printf "%-4s %7d  %s\n" name c (String.make (55 * c / maxc) '#'))
    counts;
  let most, _ =
    List.fold_left
      (fun (bn, bc) (n, c) -> if c > bc then (n, c) else (bn, bc))
      ("-", -1) counts
  in
  Printf.printf "\nmost used: %s (paper: R4); all rules exercised: %b\n" most
    (List.for_all (fun (_, c) -> c > 0) counts);
  let sample = List.hd samples in
  register_bench "fig19:recover-with-stats" (fun () ->
      ignore (Sigrec.Recover.recover ~stats sample.Solc.Corpus.code))

(* ---------------------------------------------------------------- *)
(* §6.1: ParChecker                                                  *)
(* ---------------------------------------------------------------- *)

let app_parchecker () =
  section "Application 6.1: ParChecker (invalid arguments, short addresses)";
  let samples = Solc.Corpus.dataset3 ~seed:(seed + 2) ~n:120 in
  let sigs =
    List.filter_map
      (fun s ->
        let t = Solc.Corpus.truth s in
        if List.exists Abi.Abity.is_dynamic t.Abi.Funsig.params then None
        else Some t)
      samples
    @ [ Abi.Funsig.make "transfer" [ Abi.Abity.Address; Abi.Abity.Uint 256 ] ]
  in
  let n = 30_000 in
  let txs = Tools.Parchecker.gen_tx_stream ~seed ~n sigs in
  let invalid = ref 0 and attacks_found = ref 0 and attacks_planted = ref 0 in
  List.iter
    (fun (tx : Tools.Parchecker.tx) ->
      let params = tx.Tools.Parchecker.fsig.Abi.Funsig.params in
      (match
         Tools.Parchecker.check_call params tx.Tools.Parchecker.calldata
       with
      | Tools.Parchecker.Invalid _ -> incr invalid
      | Tools.Parchecker.Valid -> ());
      if tx.Tools.Parchecker.label = Tools.Parchecker.Short_address then
        incr attacks_planted;
      if
        Tools.Parchecker.is_short_address_attack params
          tx.Tools.Parchecker.calldata
      then incr attacks_found)
    txs;
  Printf.printf
    "transactions analysed: %d\n\
     invalid actual arguments: %d (%.2f%%; paper: 1%% of transactions)\n\
     short address attacks: %d found / %d planted (paper: 73 attacks found)\n"
    n !invalid (pct !invalid n) !attacks_found !attacks_planted;
  let tx = List.hd txs in
  register_bench "app6.1:parcheck-one-tx" (fun () ->
      ignore
        (Tools.Parchecker.check_call tx.Tools.Parchecker.fsig.Abi.Funsig.params
           tx.Tools.Parchecker.calldata))

(* ---------------------------------------------------------------- *)
(* §6.2: fuzzing                                                     *)
(* ---------------------------------------------------------------- *)

let app_fuzzer () =
  section "Application 6.2: ContractFuzzer with recovered signatures";
  let n = 600 in
  let samples = Solc.Corpus.fuzz_set ~seed ~n in
  let aware = ref 0 and raw = ref 0 and cov = ref 0 in
  List.iteri
    (fun i s ->
      let truth = Solc.Corpus.truth s in
      let selector = Abi.Funsig.selector truth in
      let code = s.Solc.Corpus.code in
      (* ContractFuzzer consumes SigRec's recovered signature *)
      let params =
        match Sigrec.Recover.recover code with
        | r :: _ -> r.Sigrec.Recover.params
        | [] -> truth.Abi.Funsig.params
      in
      let rng = Random.State.make [| seed; i |] in
      let a =
        Tools.Fuzzer.run_campaign ~rng ~code ~selector
          (Tools.Fuzzer.Signature_aware params)
      in
      let rng = Random.State.make [| seed; i |] in
      let b =
        Tools.Fuzzer.run_campaign ~rng ~code ~selector Tools.Fuzzer.Raw
      in
      if a.Tools.Fuzzer.bug_found then incr aware;
      if b.Tools.Fuzzer.bug_found then incr raw;
      let rng = Random.State.make [| seed; i |] in
      let c =
        Tools.Fuzzer.run_coverage_campaign ~rng ~code ~selector params
      in
      if c.Tools.Fuzzer.bug_found then incr cov)
    samples;
  Printf.printf
    "vulnerable contracts found:\n\
    \  ContractFuzzer      (with recovered signatures): %d/%d\n\
    \  ContractFuzzer-cov  (+ coverage feedback):       %d/%d\n\
    \  ContractFuzzer-     (raw byte sequences):        %d/%d\n\
     improvement: +%.1f%% (paper: +23%% bugs, +25%% vulnerable contracts)\n"
    !aware n !cov n !raw n
    (100.0
    *. float_of_int (!aware - !raw)
    /. float_of_int (Stdlib.max 1 !raw));
  let s = List.hd samples in
  register_bench "app6.2:fuzz-one-campaign" (fun () ->
      let truth = Solc.Corpus.truth s in
      let rng = Random.State.make [| 1 |] in
      ignore
        (Tools.Fuzzer.run_campaign ~budget:8 ~rng ~code:s.Solc.Corpus.code
           ~selector:(Abi.Funsig.selector truth) Tools.Fuzzer.Raw))

(* ---------------------------------------------------------------- *)
(* §6.3: Erays+                                                      *)
(* ---------------------------------------------------------------- *)

let app_erays () =
  section "Application 6.3: Erays+ readability improvement";
  let samples = Solc.Corpus.dataset3 ~seed:(seed + 3) ~n:400 in
  let types = ref 0 and names = ref 0 and nums = ref 0 and removed = ref 0 in
  let count = ref 0 in
  List.iter
    (fun s ->
      List.iter
        (fun (e : Tools.Eraysplus.enhanced) ->
          incr count;
          types := !types + e.Tools.Eraysplus.added_types;
          names := !names + e.Tools.Eraysplus.added_arg_names;
          nums := !nums + e.Tools.Eraysplus.added_num_names;
          removed := !removed + e.Tools.Eraysplus.removed_lines)
        (Tools.Eraysplus.enhance s.Solc.Corpus.code))
    samples;
  let avg x = float_of_int !x /. float_of_int (Stdlib.max 1 !count) in
  Printf.printf
    "functions enhanced: %d\n\
     average added types:           %5.1f (paper: 5.5)\n\
     average added parameter names: %5.1f (paper: 15)\n\
     average added num names:       %5.1f (paper: 3.4)\n\
     average removed access lines:  %5.1f (paper: 15)\n"
    !count (avg types) (avg names) (avg nums) (avg removed);
  let s = List.hd samples in
  register_bench "app6.3:lift-and-enhance" (fun () ->
      ignore (Tools.Eraysplus.enhance s.Solc.Corpus.code))

(* ---------------------------------------------------------------- *)
(* Ablation: contribution of each rule group                         *)
(* ---------------------------------------------------------------- *)

let ablation () =
  section "Ablation: rule-group contributions (extension)";
  let samples =
    Solc.Corpus.dataset3 ~seed:(seed + 4) ~n:400
    @ Solc.Corpus.vyper_set ~seed:(seed + 4) ~n:150
    @ Solc.Corpus.abiv2_set ~seed:(seed + 4) ~n:150
  in
  let correct config =
    List.length
      (List.filter
         (fun s ->
           let truth = Solc.Corpus.truth s in
           match
             List.find_opt
               (fun r ->
                 r.Sigrec.Recover.selector = Abi.Funsig.selector truth)
               (Sigrec.Recover.recover ~config s.Solc.Corpus.code)
           with
           | Some r ->
             List.length r.Sigrec.Recover.params
             = List.length truth.Abi.Funsig.params
             && List.for_all2 Abi.Abity.equal r.Sigrec.Recover.params
                  truth.Abi.Funsig.params
           | None -> false)
         samples)
  in
  let total = List.length samples in
  let open Sigrec.Rules in
  List.iter
    (fun (name, config) ->
      let ok = correct config in
      Printf.printf "%-36s %5.1f%%  %s\n" name (pct ok total)
        (String.make (40 * ok / total) '#'))
    [
      ("full rule set", default_config);
      ("without fine masks (R11-R18/R26-R31)",
       { default_config with fine_masks = false });
      ("without bound-check dims (R2/R3/R9/R10)",
       { default_config with guard_dims = false });
      ("without struct/nested (R19/R21/R22)",
       { default_config with nested = false });
      ("without Vyper rules (R20/R23-R31)",
       { default_config with vyper = false });
    ];
  let s = List.hd samples in
  register_bench "ablation:recover-no-masks" (fun () ->
      ignore
        (Sigrec.Recover.recover
           ~config:{ default_config with fine_masks = false }
           s.Solc.Corpus.code))

(* ---------------------------------------------------------------- *)
(* Obfuscation study (paper Â§7)                                      *)
(* ---------------------------------------------------------------- *)

let obfuscation () =
  section "Obfuscation resistance (extension; paper sec. 7)";
  let base = Solc.Corpus.dataset3 ~seed:(seed + 5) ~n:300 in
  Printf.printf "%-8s %22s %22s\n" "level" "SigRec (TASE)" "Eveem (patterns)";
  List.iter
    (fun level ->
      let samples =
        List.map
          (fun s ->
            let code =
              if level = 0 then s.Solc.Corpus.code
              else
                Solc.Obfuscate.compile_obfuscated ~level ~seed
                  {
                    Solc.Compile.fns = [ s.Solc.Corpus.fn ];
                    version = s.Solc.Corpus.version;
                    storage = [];
                  }
            in
            (code, Solc.Corpus.truth s))
          base
      in
      let count recover_fn =
        List.length
          (List.filter
             (fun (code, truth) ->
               match recover_fn code truth with
               | Some tys ->
                 List.length tys = List.length truth.Abi.Funsig.params
                 && List.for_all2 Abi.Abity.equal tys
                      truth.Abi.Funsig.params
               | None -> false)
             samples)
      in
      let sig_ok =
        count (fun code truth ->
            match
              List.find_opt
                (fun r ->
                  r.Sigrec.Recover.selector = Abi.Funsig.selector truth)
                (Sigrec.Recover.recover code)
            with
            | Some r -> Some r.Sigrec.Recover.params
            | None -> None)
      in
      let eveem_ok =
        count (fun code truth ->
            match
              Tools.Baseline.eveem_heuristic ~bytecode:code
                ~selector:(Abi.Funsig.selector truth)
            with
            | Tools.Baseline.Recovered tys -> Some tys
            | _ -> None)
      in
      let n = List.length samples in
      Printf.printf "%-8d %20.1f%% %20.1f%%\n" level (pct sig_ok n)
        (pct eveem_ok n))
    [ 0; 1; 2; 3 ];
  Printf.printf
    "(levels: 1 junk insertion, 2 +constant splitting, 3 +semantic mask\n\
    \ rewriting; TASE survives syntactic obfuscation, pattern matching\n\
    \ does not -- the gradient motivating sec. 7's future-work rules)\n";
  let s = List.hd base in
  register_bench "obfuscation:recover-level2" (fun () ->
      let code =
        Solc.Obfuscate.compile_obfuscated ~level:2 ~seed
          { Solc.Compile.fns = [ s.Solc.Corpus.fn ];
            version = s.Solc.Corpus.version;
            storage = [] }
      in
      ignore (Sigrec.Recover.recover code))

(* ---------------------------------------------------------------- *)
(* Batch engine: multicore fan-out + content-addressed cache         *)
(* ---------------------------------------------------------------- *)

let engine_batch () =
  section "Batch engine: multicore fan-out and content-addressed cache";
  let samples = Solc.Corpus.dataset3 ~seed:(seed + 7) ~n:160 in
  let codes = List.map (fun s -> s.Solc.Corpus.code) samples in
  let render reports =
    String.concat "\n"
      (List.map (Format.asprintf "%a" Sigrec.Engine.pp_report) reports)
  in
  let wall f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let seq, t_seq =
    wall (fun () -> Sigrec.Engine.recover_all (engine_with ()) codes)
  in
  let jobs = Domain.recommended_domain_count () in
  let par, t_par =
    wall (fun () ->
        Sigrec.Engine.recover_all (engine_with ~jobs ()) codes)
  in
  Printf.printf
    "recover_all over %d contracts:\n\
    \  sequential (jobs=1):  %6.2f s\n\
    \  parallel   (jobs=%d): %6.2f s   speedup %.2fx\n\
    \  parallel output byte-identical to sequential: %b\n"
    (List.length codes) t_seq jobs t_par
    (t_seq /. Stdlib.max 1e-9 t_par)
    (render seq = render par);
  (* main net is dominated by byte-identical duplicates: each distinct
     bytecode must be analyzed exactly once *)
  let dup_codes = codes @ codes @ List.rev codes in
  let engine = engine_with ~jobs () in
  let _, t_dup =
    wall (fun () -> Sigrec.Engine.recover_all engine dup_codes)
  in
  let stats = Sigrec.Engine.stats engine in
  Printf.printf
    "duplicate-heavy corpus: %d inputs -> %d analyses, %d cache hits \
     (%.2f s)\n"
    (List.length dup_codes)
    (Sigrec.Stats.cache_misses stats)
    (Sigrec.Stats.cache_hits stats)
    t_dup;
  let outcomes =
    List.concat_map (fun r -> r.Sigrec.Engine.outcomes) seq
  in
  let count p = List.length (List.filter p outcomes) in
  Printf.printf
    "outcomes: %d recovered, %d budget-exhausted, %d failed\n"
    (count (function Sigrec.Engine.Recovered _ -> true | _ -> false))
    (count (function Sigrec.Engine.Budget_exhausted _ -> true | _ -> false))
    (count (function Sigrec.Engine.Failed _ -> true | _ -> false));
  let one = [ List.hd codes ] in
  register_bench "engine:recover-one-cached" (fun () ->
      ignore (Sigrec.Engine.recover_all engine one))

(* ---------------------------------------------------------------- *)
(* Static pass: jump resolution, fork pruning, differential lint     *)
(* ---------------------------------------------------------------- *)

let static_pass () =
  section "Static pass: jump resolution, fork pruning, differential lint";
  let samples = Solc.Corpus.dataset3 ~seed:(seed + 8) ~n:200 in
  (* plain corpus plus obfuscated variants: junk insertion separates the
     PUSH from its JUMP, so only the abstract interpreter can resolve
     those targets (the single-block peephole cannot) *)
  let obf =
    List.filteri (fun i _ -> i < 50) samples
    |> List.map (fun s ->
           Solc.Obfuscate.compile_obfuscated ~level:2 ~seed
             {
               Solc.Compile.fns = [ s.Solc.Corpus.fn ];
               version = s.Solc.Corpus.version;
               storage = [];
             })
  in
  let codes = List.map (fun s -> s.Solc.Corpus.code) samples @ obf in
  let wall f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  (* abstract-interpretation throughput, measured alone *)
  let contracts, t_static =
    wall (fun () -> List.map Sigrec.Contract.make codes)
  in
  let resolved =
    List.fold_left (fun acc c -> acc + Sigrec.Contract.jumps_resolved c) 0
      contracts
  in
  let unresolved_after =
    List.fold_left
      (fun acc (c : Sigrec.Contract.t) ->
        acc + Evm.Cfg.unresolved_count c.Sigrec.Contract.cfg)
      0 contracts
  in
  let bytes =
    List.fold_left (fun acc c -> acc + String.length c) 0 codes
  in
  let throughput = float_of_int bytes /. Stdlib.max 1e-9 t_static in
  Printf.printf
    "static analysis of %d contracts (%d bytes): %.3f s (%.0f bytes/s)\n\
     unresolved jump edges: %d resolved by the abstract interpreter, %d left\n"
    (List.length codes) bytes t_static throughput resolved unresolved_after;
  (* symbolic paths with and without the static prune *)
  let run_engine ~static_prune =
    let engine = engine_with ~static_prune () in
    let _, t = wall (fun () -> Sigrec.Engine.recover_all engine codes) in
    (Sigrec.Engine.stats engine, t)
  in
  let stats_off, t_off = run_engine ~static_prune:false in
  let stats_on, t_on = run_engine ~static_prune:true in
  let paths_off = Sigrec.Stats.paths_explored stats_off in
  let paths_on = Sigrec.Stats.paths_explored stats_on in
  let pruned = Sigrec.Stats.forks_pruned stats_on in
  Printf.printf
    "symbolic paths: %d without pruning -> %d with pruning (%d forks \
     skipped)\n\
     recover_all: %.2f s unpruned, %.2f s pruned\n"
    paths_off paths_on pruned t_off t_on;
  (* cache behaviour, cold and warm measured separately: folding the
     warm-up pass into one number used to report a meaningless 50% *)
  let engine = engine_with () in
  let _ = Sigrec.Engine.recover_all engine codes in
  let cstats = Sigrec.Engine.stats engine in
  let cold_hits = Sigrec.Stats.cache_hits cstats in
  let cold_misses = Sigrec.Stats.cache_misses cstats in
  let _ = Sigrec.Engine.recover_all engine codes in
  let warm_hits = Sigrec.Stats.cache_hits cstats - cold_hits in
  let warm_misses = Sigrec.Stats.cache_misses cstats - cold_misses in
  let cold_rate = pct cold_hits (cold_hits + cold_misses) in
  let warm_rate = pct warm_hits (warm_hits + warm_misses) in
  Printf.printf
    "cache: cold %d hits / %d misses (%.1f%%), warm %d hits / %d misses \
     (%.1f%%)\n"
    cold_hits cold_misses cold_rate warm_hits warm_misses warm_rate;
  (* differential lint: clean configuration, then a mutated rule set *)
  let lint_stats = Sigrec.Stats.create () in
  List.iter
    (fun code -> ignore (Sigrec.Lint.check ~stats:lint_stats code))
    codes;
  let agree = Sigrec.Stats.lint_agreements lint_stats in
  let disagree = Sigrec.Stats.lint_disagreements lint_stats in
  let mutated = { Sigrec.Rules.default_config with fine_masks = false } in
  let mut_stats = Sigrec.Stats.create () in
  List.iter
    (fun code ->
      ignore (Sigrec.Lint.check ~stats:mut_stats ~config:mutated code))
    codes;
  let mut_disagree = Sigrec.Stats.lint_disagreements mut_stats in
  Printf.printf
    "lint: %d agree / %d disagree on the default rules\n\
     lint with fine masks disabled: %d functions flagged (injected \
     mutation)\n"
    agree disagree mut_disagree;
  (* machine-readable summary for CI trend tracking *)
  let json =
    Printf.sprintf
      "{\"contracts\":%d,\"bytes\":%d,\"static_seconds\":%.6f,\
       \"throughput_bytes_per_s\":%.0f,\"jumps_resolved\":%d,\
       \"unresolved_after\":%d,\"paths_without_pruning\":%d,\
       \"paths_with_pruning\":%d,\"forks_pruned\":%d,\
       \"seconds_without_pruning\":%.3f,\"seconds_with_pruning\":%.3f,\
       \"cache_cold_hits\":%d,\"cache_cold_misses\":%d,\
       \"cache_cold_hit_rate\":%.3f,\
       \"cache_warm_hits\":%d,\"cache_warm_misses\":%d,\
       \"cache_warm_hit_rate\":%.3f,\
       \"lint_agree\":%d,\"lint_disagree\":%d,\
       \"mutated_config_disagreements\":%d}"
      (List.length codes) bytes t_static throughput resolved unresolved_after
      paths_off paths_on pruned t_off t_on cold_hits cold_misses
      (cold_rate /. 100.0) warm_hits warm_misses (warm_rate /. 100.0)
      agree disagree mut_disagree
  in
  Out_channel.with_open_text "BENCH_static.json" (fun oc ->
      output_string oc json;
      output_char oc '\n');
  Printf.printf "wrote BENCH_static.json\n";
  let one = List.hd codes in
  register_bench "static:abstract-interpretation" (fun () ->
      ignore (Sigrec.Contract.make one));
  register_bench "static:lint-one-contract" (fun () ->
      ignore (Sigrec.Lint.check one))

(* ---------------------------------------------------------------- *)
(* Symbolic core: hash-consing wall-clock and allocation profile     *)
(* ---------------------------------------------------------------- *)

(* A structural mirror of the symbolic expression nodes as they stood
   before hash-consing: every construction allocates a fresh block and
   equality walks both trees. The micro-benchmark below pushes the same
   offset-arithmetic shapes through both representations; the ratio of
   the two measurements is the honest pre/post comparison recorded in
   BENCH_perf.json. *)
module Structural = struct
  type t =
    | Const of Evm.U256.t
    | CDLoad of int
    | Bin of int * t * t
    | Un of int * t

  let rec equal a b =
    match (a, b) with
    | Const x, Const y -> Evm.U256.equal x y
    | CDLoad i, CDLoad j -> i = j
    | Bin (o1, a1, b1), Bin (o2, a2, b2) ->
      o1 = o2 && equal a1 a2 && equal b1 b2
    | Un (o1, a1), Un (o2, a2) -> o1 = o2 && equal a1 a2
    | _ -> false
end

(* Wall time plus per-domain Gc deltas. The allocation numbers are
   meaningful only when [f] runs entirely in this domain (jobs=1). *)
let measured f =
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let v = f () in
  let t = Unix.gettimeofday () -. t0 in
  let g1 = Gc.quick_stat () in
  ( v,
    t,
    g1.Gc.minor_words -. g0.Gc.minor_words,
    g1.Gc.major_words -. g0.Gc.major_words )

let symex_core ?(emit = true) ?(n = 120) () =
  section "Symbolic core: hash-consed expressions";
  let extra = Stdlib.max 4 (n / 4) in
  let samples =
    Solc.Corpus.dataset3 ~seed:(seed + 9) ~n
    @ Solc.Corpus.vyper_set ~seed:(seed + 9) ~n:extra
    @ Solc.Corpus.abiv2_set ~seed:(seed + 9) ~n:extra
  in
  let codes = List.map (fun s -> s.Solc.Corpus.code) samples in
  let render reports =
    String.concat "\n"
      (List.map
         (fun r ->
           Format.asprintf "%a" Sigrec.Engine.pp_report
             { r with Sigrec.Engine.from_cache = false })
         reports)
  in
  (* stage 1: sequential recovery with allocation accounting *)
  let engine1 = engine_with () in
  let seq, t_seq, minor1, major1 =
    measured (fun () -> Sigrec.Engine.recover_all engine1 codes)
  in
  let stats1 = Sigrec.Engine.stats engine1 in
  let paths = Sigrec.Stats.paths_explored stats1 in
  let ih = Sigrec.Stats.intern_hits stats1 in
  let im = Sigrec.Stats.intern_misses stats1 in
  let nc = List.length codes in
  Printf.printf
    "recover_all jobs=1 over %d contracts: %.2f s, %d paths\n\
     allocation: %.2e minor words (%.0f/contract), %.2e major words\n\
     interner: %d hits / %d misses (%.1f%% hit rate, %d live nodes)\n"
    nc t_seq paths minor1
    (minor1 /. float_of_int nc)
    major1 ih im
    (pct ih (ih + im))
    (Symex.Sexpr.interner_size ());
  (* stage 2: a warm re-run answers everything from the cache and the
     reports must render identically *)
  let warm = Sigrec.Engine.recover_all engine1 codes in
  let warm_same = render seq = render warm in
  (* stage 3: parallel fan-out must stay byte-identical *)
  let jobs = Stdlib.max 2 (Domain.recommended_domain_count ()) in
  let par, t_par, _, _ =
    measured (fun () ->
        Sigrec.Engine.recover_all (engine_with ~jobs ()) codes)
  in
  let par_same = render seq = render par in
  Printf.printf
    "recover_all jobs=%d: %.2f s (speedup %.2fx); byte-identical: %b\n"
    jobs t_par
    (t_seq /. Stdlib.max 1e-9 t_par)
    par_same;
  (* stage 4: the static prune must not change output either *)
  let unpruned, t_unpruned, _, _ =
    measured (fun () ->
        Sigrec.Engine.recover_all (engine_with ~static_prune:false ()) codes)
  in
  let prune_same = render seq = render unpruned in
  Printf.printf
    "pruning off: %.2f s; byte-identical to pruned run: %b; warm cache \
     byte-identical: %b\n"
    t_unpruned prune_same warm_same;
  (* stage 5: representation micro-benchmark. Both builders produce the
     same tree shapes, so the pairwise-equality counts must agree; the
     structural side re-allocates and deep-compares where the interned
     side reuses nodes and compares pointers. *)
  let classes = 4 and micro_trees = 240 and reps = 25 in
  let build_structural i =
    let open Structural in
    let t = ref (CDLoad (4 + (32 * (i mod classes)))) in
    for k = 1 to 6 do
      t :=
        Bin
          ( 0,
            Bin (1, !t, Const (Evm.U256.of_int 32)),
            Const (Evm.U256.of_int (k * 32)) )
    done;
    Un (0, !t)
  in
  let build_interned i =
    let open Symex.Sexpr in
    let t = ref (cdload (4 + (32 * (i mod classes)))) in
    for k = 1 to 6 do
      t := bin Badd (bin Bmul !t (of_int 32)) (of_int (k * 32))
    done;
    un Uiszero !t
  in
  let pairwise build equal =
    let eqs = ref 0 in
    for _ = 1 to reps do
      let trees = Array.init micro_trees build in
      Array.iter
        (fun a -> Array.iter (fun b -> if equal a b then incr eqs) trees)
        trees
    done;
    !eqs
  in
  let s_eqs, t_struct, _, _ =
    measured (fun () -> pairwise build_structural Structural.equal)
  in
  let i_eqs, t_intern, _, _ =
    measured (fun () -> pairwise build_interned Symex.Sexpr.equal)
  in
  let eq_agree = s_eqs = i_eqs in
  let eq_speedup = t_struct /. Stdlib.max 1e-9 t_intern in
  (* the recorder's hot loop: deduplicate every access event by a key
     derived from its expression. Pre hash-consing that key was a
     rendered string; with interned nodes it is the node id. *)
  let rec structural_render t =
    let open Structural in
    match t with
    | Const v -> "0x" ^ Evm.U256.to_hex v
    | CDLoad i -> Printf.sprintf "cd[%d]" i
    | Bin (o, a, b) ->
      Printf.sprintf "(%d %s %s)" o (structural_render a)
        (structural_render b)
    | Un (o, a) -> Printf.sprintf "(%d %s)" o (structural_render a)
  in
  let dedup build key =
    let seen = Hashtbl.create 64 in
    for _ = 1 to reps do
      for i = 0 to micro_trees - 1 do
        Hashtbl.replace seen (key (build i)) ()
      done
    done;
    Hashtbl.length seen
  in
  let s_classes, t_sdedup, minor_s, _ =
    measured (fun () ->
        dedup build_structural (fun t -> `S (structural_render t)))
  in
  let i_classes, t_idedup, minor_i, _ =
    measured (fun () -> dedup build_interned (fun t -> `I (Symex.Sexpr.id t)))
  in
  let dedup_agree = s_classes = i_classes in
  let dedup_speedup = t_sdedup /. Stdlib.max 1e-9 t_idedup in
  let alloc_ratio = minor_s /. Stdlib.max 1.0 minor_i in
  let micro_agree = eq_agree && dedup_agree in
  Printf.printf
    "micro (%d trees x %d reps):\n\
    \  pairwise equality: structural %.4f s, interned %.4f s (%.1fx)\n\
    \  event dedup keys:  structural %.4f s / %.2e minor words,\n\
    \                     interned   %.4f s / %.2e minor words\n\
    \                     (%.1fx faster, %.1fx fewer words)\n\
    \  same equality/dedup classes: %b\n"
    micro_trees reps t_struct t_intern eq_speedup t_sdedup minor_s t_idedup
    minor_i dedup_speedup alloc_ratio micro_agree;
  let ok = warm_same && par_same && prune_same && micro_agree in
  if emit then begin
    let json =
      Printf.sprintf
        "{\"corpus_contracts\":%d,\"paths\":%d,\
         \"wall_seconds_jobs1\":%.3f,\"jobs\":%d,\
         \"wall_seconds_parallel\":%.3f,\"parallel_identical\":%b,\
         \"wall_seconds_unpruned\":%.3f,\"prune_identical\":%b,\
         \"warm_cache_identical\":%b,\
         \"minor_words\":%.0f,\"minor_words_per_contract\":%.0f,\
         \"major_words\":%.0f,\
         \"intern_hits\":%d,\"intern_misses\":%d,\"intern_hit_rate\":%.3f,\
         \"interner_nodes\":%d,\
         \"micro_equality_structural_seconds\":%.6f,\
         \"micro_equality_interned_seconds\":%.6f,\
         \"micro_equality_speedup\":%.2f,\
         \"micro_dedup_structural_seconds\":%.6f,\
         \"micro_dedup_interned_seconds\":%.6f,\
         \"micro_dedup_speedup\":%.2f,\
         \"micro_dedup_structural_minor_words\":%.0f,\
         \"micro_dedup_interned_minor_words\":%.0f,\
         \"micro_allocation_ratio\":%.2f}"
        nc paths t_seq jobs t_par par_same t_unpruned prune_same warm_same
        minor1
        (minor1 /. float_of_int nc)
        major1 ih im
        (pct ih (ih + im) /. 100.0)
        (Symex.Sexpr.interner_size ())
        t_struct t_intern eq_speedup t_sdedup t_idedup dedup_speedup minor_s
        minor_i alloc_ratio
    in
    Out_channel.with_open_text "BENCH_perf.json" (fun oc ->
        output_string oc json;
        output_char oc '\n');
    Printf.printf "wrote BENCH_perf.json\n";
    register_bench "symex:interned-pairwise-equality" (fun () ->
        ignore (pairwise build_interned Symex.Sexpr.equal))
  end;
  ok

(* ---------------------------------------------------------------- *)
(* Aggregation across contracts (paper sec. 7 proposal)              *)
(* ---------------------------------------------------------------- *)

let aggregation () =
  section "Cross-contract aggregation (extension; paper sec. 7)";
  let groups = Solc.Corpus.multi_body ~seed:(seed + 6) ~n:250 ~bodies:5 in
  let matches truth tys =
    List.length tys = List.length truth.Abi.Funsig.params
    && List.for_all2 Abi.Abity.equal tys truth.Abi.Funsig.params
  in
  let single_ok = ref 0 and single_total = ref 0 and agg_ok = ref 0 in
  List.iter
    (fun (truth, codes) ->
      let recoveries =
        List.filter_map
          (fun code ->
            match
              List.find_opt
                (fun r ->
                  r.Sigrec.Recover.selector = Abi.Funsig.selector truth)
                (Sigrec.Recover.recover code)
            with
            | Some r -> Some r.Sigrec.Recover.params
            | None -> None)
          codes
      in
      List.iter
        (fun tys ->
          incr single_total;
          if matches truth tys then incr single_ok)
        recoveries;
      match Sigrec.Aggregate.join_all recoveries with
      | Some joined when matches truth joined -> incr agg_ok
      | _ -> ())
    groups;
  Printf.printf
    "bodies per signature: 5 (varying parameter usage and compiler)\n\
     single-body recovery accuracy:   %5.1f%%\n\
     aggregated recovery accuracy:    %5.1f%%\n\
     (the paper's sec. 7 proposal: combine the clues different function\n\
    \ bodies expose to resolve case-5 ambiguities)\n"
    (pct !single_ok !single_total)
    (pct !agg_ok (List.length groups));
  let _, codes = List.hd groups in
  register_bench "aggregation:join-five-bodies" (fun () ->
      ignore (Sigrec.Aggregate.recover_many codes))

let proptest_volume () =
  section "Property harness at volume (lib/proptest)";
  let stats = Sigrec.Stats.create () in
  let wall f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let count = 2000 in
  let rt, t_rt =
    wall (fun () ->
        Proptest.Prop.run ~seed ~count ~max_size:20 ~name:"round_trip"
          Proptest.Oracle.arb_case
          (Proptest.Oracle.round_trip ~stats))
  in
  let diff, t_diff =
    wall (fun () ->
        Proptest.Prop.run ~seed:(seed + 1) ~count:400 ~max_size:20
          ~name:"differential" Proptest.Oracle.arb_case
          (Proptest.Oracle.differential ~stats))
  in
  let verdict r arb =
    if Proptest.Prop.is_pass r then "pass"
    else "FAIL\n" ^ Proptest.Prop.report arb r
  in
  Printf.printf
    "round-trip: %d generated signatures in %.2f s (%.0f cases/s): %s\n\
     differential: 400 cases in %.2f s: %s\n\
     rule coverage over the sweep: %s\n"
    count t_rt
    (float_of_int count /. Stdlib.max 1e-9 t_rt)
    (verdict rt Proptest.Oracle.arb_case)
    t_diff
    (verdict diff Proptest.Oracle.arb_case)
    (match Proptest.Oracle.rule_gate stats with
    | Ok () -> "all 31 rules fired"
    | Error e -> "INCOMPLETE — " ^ e);
  register_bench "proptest:generate-compile-one-case" (fun () ->
      ignore
        (Proptest.Sig_gen.compile
           (Proptest.Gen.run ~size:16 ~seed:[| seed; 11 |] Proptest.Sig_gen.case)))

(* ---------------------------------------------------------------- *)
(* Trace overhead: the observability layer must be free when off     *)
(* ---------------------------------------------------------------- *)

module Tr = Sigrec_trace.Trace

(* Two gates, both emitted to BENCH_trace.json and enforced in --smoke:

   - disabled: with tracing off, a probe at a hot call site costs one
     atomic load and a branch — measured directly as ns/op and minor
     words/op over 10M iterations, and indirectly as byte-identical
     recovery output.
   - enabled: full tracing slows the end-to-end batch by less than 10%
     (or 3x the measured run-to-run noise plus 2%, whichever is larger,
     so a noisy CI machine doesn't produce false alarms). *)
let trace_overhead ?(emit = true) ?(n = 48) () =
  section "Trace overhead: spans and rule instants vs. tracing off";
  let samples = Solc.Corpus.dataset3 ~seed:(seed + 9) ~n in
  let codes = List.map (fun s -> s.Solc.Corpus.code) samples in
  let render reports =
    String.concat "\n"
      (List.map (Format.asprintf "%a" Sigrec.Engine.pp_report) reports)
  in
  let wall f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  (* a fresh engine per run: the content-addressed cache would otherwise
     turn every run after the first into a lookup benchmark *)
  let run () = Sigrec.Engine.recover_all (engine_with ()) codes in
  ignore (run ());
  Tr.disable ();
  (* min-of-3 / min-of-2: single samples at this scale (a few ms) are
     at the mercy of the scheduler, especially with other domains
     alive in the process *)
  let out_off, t_off1 = wall run in
  let _, t_off2 = wall run in
  let _, t_off3 = wall run in
  (* warm the enabled path untimed — the first event after {!enable}
     allocates the per-domain ring, which is setup cost, not per-event
     overhead — then drop the warm-up events before the timed run *)
  Tr.enable ();
  ignore (run ());
  Tr.reset ();
  let out_on, t_on1 = wall run in
  Tr.reset ();
  let _, t_on2 = wall run in
  let events = List.length (Tr.collect ()) in
  let dropped = Tr.dropped () in
  Tr.disable ();
  Tr.reset ();
  let identical = render out_off = render out_on in
  let t_off = Stdlib.min t_off1 (Stdlib.min t_off2 t_off3) in
  let t_on = Stdlib.min t_on1 t_on2 in
  let noise =
    (Stdlib.max t_off1 (Stdlib.max t_off2 t_off3) -. t_off)
    /. Stdlib.max 1e-9 t_off
  in
  let ratio = t_on /. Stdlib.max 1e-9 t_off in
  let budget = Stdlib.max 0.10 ((3.0 *. noise) +. 0.02) in
  let enabled_ok = ratio -. 1.0 < budget in
  (* per-op micro cost of a disabled probe *)
  let ops = 10_000_000 in
  let m0 = Gc.minor_words () in
  let mt0 = Unix.gettimeofday () in
  for i = 0 to ops - 1 do
    if Tr.enabled () then Tr.counter Tr.Bench "noop" i
  done;
  let micro_ns =
    (Unix.gettimeofday () -. mt0) *. 1e9 /. float_of_int ops
  in
  let micro_words = (Gc.minor_words () -. m0) /. float_of_int ops in
  let disabled_ok = micro_ns < 50.0 && micro_words < 0.01 in
  let ok = identical && enabled_ok && disabled_ok in
  Printf.printf
    "recover_all over %d contracts (jobs=1):\n\
    \  tracing off: %.3f s / %.3f s / %.3f s  (run-to-run noise %.1f%%)\n\
    \  tracing on:  %.3f s  (%+.1f%% vs off, budget %.1f%%; %d events, \
     %d dropped)\n\
    \  rendered output byte-identical on/off: %b\n\
     disabled probe: %.2f ns/op, %.5f minor words/op (gate: <50 ns, no \
     allocation)\n\
     gates: disabled %s, enabled %s\n"
    (List.length codes) t_off1 t_off2 t_off3 (noise *. 100.) t_on
    ((ratio -. 1.0) *. 100.)
    (budget *. 100.) events dropped identical micro_ns micro_words
    (if disabled_ok then "ok" else "FAIL")
    (if enabled_ok then "ok" else "FAIL");
  if emit then begin
    let json =
      Printf.sprintf
        "{\"corpus_contracts\":%d,\
         \"wall_seconds_disabled\":%.4f,\"wall_seconds_disabled2\":%.4f,\
         \"wall_seconds_disabled3\":%.4f,\
         \"wall_seconds_enabled\":%.4f,\"wall_seconds_enabled2\":%.4f,\
         \"noise_fraction\":%.4f,\"overhead_fraction\":%.4f,\
         \"overhead_budget_fraction\":%.4f,\
         \"events\":%d,\"events_dropped\":%d,\
         \"disabled_ns_per_op\":%.2f,\"disabled_minor_words_per_op\":%.5f,\
         \"output_identical\":%b,\"disabled_gate\":%b,\"enabled_gate\":%b}"
        (List.length codes) t_off1 t_off2 t_off3 t_on1 t_on2 noise
        (ratio -. 1.0) budget
        events dropped micro_ns micro_words identical disabled_ok enabled_ok
    in
    Out_channel.with_open_text "BENCH_trace.json" (fun oc ->
        output_string oc json;
        output_char oc '\n');
    Printf.printf "wrote BENCH_trace.json\n"
  end;
  ok

(* ---------------------------------------------------------------- *)
(* Metrics overhead: the registry must be free when off, cheap when on *)
(* ---------------------------------------------------------------- *)

module Mx = Sigrec_metrics.Metrics

(* Five gates, emitted to BENCH_obs.json and enforced in --smoke:

   - disabled: a metrics probe at a hot call site (one atomic load and
     a branch) costs a few ns and allocates nothing — 10M-op micro
     measurement, same shape as the trace probe gate;
   - enabled observe: the full shard update (bucket scan + three
     stores) allocates nothing — the hot path must survive a
     chain-scale census without feeding the GC;
   - enabled end-to-end: metrics collection (span observer feeding the
     per-phase histograms) slows the batch by less than the
     noise-widened 10% budget, and the rendered recovery output stays
     byte-identical;
   - shard merge: observations spread over pool domains snapshot to
     exactly the bucket counts of a sequential reference — the merge
     is lossless, not just approximately right;
   - exposition golden: a fixed registry renders to a byte-stable
     OpenMetrics document.

   The section also records per-phase duration p50/p99 over the corpus
   (through the public quantile estimator) so BENCH_obs.json doubles as
   the committed latency profile. *)
let metrics_overhead ?(emit = true) ?(n = 48) () =
  section "Metrics overhead: registry and span observer vs. metrics off";
  let samples = Solc.Corpus.dataset3 ~seed:(seed + 13) ~n in
  let codes = List.map (fun s -> s.Solc.Corpus.code) samples in
  let render reports =
    String.concat "\n"
      (List.map (Format.asprintf "%a" Sigrec.Engine.pp_report) reports)
  in
  let wall f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let run () = Sigrec.Engine.recover_all (engine_with ()) codes in
  ignore (run ());
  Mx.disable ();
  let out_off, t_off1 = wall run in
  let _, t_off2 = wall run in
  let _, t_off3 = wall run in
  (* warm the enabled path untimed (first observe per domain builds the
     shard and the span-histogram memo), then zero the shards so the
     quantiles below describe only the timed runs *)
  Mx.enable ();
  ignore (run ());
  Mx.reset ();
  let out_on, t_on1 = wall run in
  let _, t_on2 = wall run in
  let identical = render out_off = render out_on in
  let t_off = Stdlib.min t_off1 (Stdlib.min t_off2 t_off3) in
  let t_on = Stdlib.min t_on1 t_on2 in
  let noise =
    (Stdlib.max t_off1 (Stdlib.max t_off2 t_off3) -. t_off)
    /. Stdlib.max 1e-9 t_off
  in
  let ratio = t_on /. Stdlib.max 1e-9 t_off in
  let budget = Stdlib.max 0.10 ((3.0 *. noise) +. 0.02) in
  let enabled_ok = ratio -. 1.0 < budget in
  (* per-phase latency profile from the timed enabled runs *)
  let phases =
    List.filter_map
      (fun (name, labels, _scale, snap) ->
        if name = "sigrec_phase_duration_seconds" && snap.Mx.count > 0 then
          Some
            ( String.concat "/" (List.map snd labels),
              snap.Mx.count,
              Mx.quantile snap 0.5,
              Mx.quantile snap 0.99 )
        else None)
      (Mx.histograms ())
  in
  (* micro gates against a private registry so the probes don't pollute
     the default surface *)
  let reg = Mx.create_registry () in
  let mh = Mx.histogram ~registry:reg "bench_probe_ns" in
  Mx.disable ();
  let ops = 10_000_000 in
  let m0 = Gc.minor_words () in
  let mt0 = Unix.gettimeofday () in
  for i = 0 to ops - 1 do
    if Mx.enabled () then Mx.observe mh i
  done;
  let micro_ns = (Unix.gettimeofday () -. mt0) *. 1e9 /. float_of_int ops in
  let micro_words = (Gc.minor_words () -. m0) /. float_of_int ops in
  let disabled_ok = micro_ns < 50.0 && micro_words < 0.01 in
  let o0 = Gc.minor_words () in
  let ot0 = Unix.gettimeofday () in
  for i = 0 to ops - 1 do
    Mx.observe mh i
  done;
  let observe_ns = (Unix.gettimeofday () -. ot0) *. 1e9 /. float_of_int ops in
  let observe_words = (Gc.minor_words () -. o0) /. float_of_int ops in
  let observe_ok = observe_words < 0.01 in
  (* shard-merge oracle: the same seeded observations through pool
     domains and through plain sequential code must agree bucket for
     bucket *)
  let oracle_n = 100_000 in
  let value st =
    (* LCG (java.util.Random multiplier) over the histogram's range *)
    st := (!st * 25214903917) + 11;
    !st land max_int mod 100_000_000
  in
  let bounds = Mx.default_latency_buckets in
  let expect_buckets = Array.make (Array.length bounds + 1) 0 in
  let expect_sum = ref 0 in
  let st = ref (seed + 17) in
  for _ = 1 to oracle_n do
    let v = value st in
    expect_sum := !expect_sum + v;
    let rec idx i =
      if i < Array.length bounds && v > bounds.(i) then idx (i + 1) else i
    in
    expect_buckets.(idx 0) <- expect_buckets.(idx 0) + 1
  done;
  let oh = Mx.histogram ~registry:reg "bench_oracle" in
  let shards = 4 in
  Sigrec.Pool.ensure (shards - 1);
  (* pre-split the value stream so each task is deterministic whatever
     domain runs it *)
  let chunks =
    let st = ref (seed + 17) in
    List.init shards (fun _ ->
        Array.init (oracle_n / shards) (fun _ -> value st))
  in
  let batch =
    Sigrec.Pool.submit
      (List.map
         (fun chunk () -> Array.iter (fun v -> Mx.observe oh v) chunk)
         chunks)
  in
  Sigrec.Pool.await batch;
  let snap = Mx.snapshot oh in
  let merge_ok =
    snap.Mx.buckets = expect_buckets
    && snap.Mx.sum = !expect_sum
    && snap.Mx.count = shards * (oracle_n / shards)
  in
  (* exposition golden: byte-stable rendering of a fixed registry *)
  let greg = Mx.create_registry () in
  let gc = Mx.counter ~registry:greg ~help:"test counter" "golden_requests" in
  Mx.add gc 3;
  let gg =
    Mx.gauge ~registry:greg ~help:"test gauge"
      ~labels:[ ("k", "v\"w") ]
      "golden_temp"
  in
  Mx.set_gauge gg 1.5;
  let gh =
    Mx.histogram ~registry:greg ~buckets:[| 10; 100 |] ~scale:1.0
      "golden_sizes"
  in
  Mx.observe gh 5;
  Mx.observe gh 50;
  Mx.observe gh 500;
  let golden = Mx.expose [ greg ] in
  let expected_golden =
    "# HELP golden_requests test counter\n\
     # TYPE golden_requests counter\n\
     golden_requests_total 3\n\
     # HELP golden_temp test gauge\n\
     # TYPE golden_temp gauge\n\
     golden_temp{k=\"v\\\"w\"} 1.5\n\
     # TYPE golden_sizes histogram\n\
     golden_sizes_bucket{le=\"10\"} 1\n\
     golden_sizes_bucket{le=\"100\"} 2\n\
     golden_sizes_bucket{le=\"+Inf\"} 3\n\
     golden_sizes_sum 555\n\
     golden_sizes_count 3\n\
     # EOF\n"
  in
  let golden_ok = golden = expected_golden in
  Mx.disable ();
  Mx.reset ();
  let ok = identical && enabled_ok && disabled_ok && observe_ok && merge_ok
           && golden_ok
  in
  Printf.printf
    "recover_all over %d contracts (jobs=1):\n\
    \  metrics off: %.3f s / %.3f s / %.3f s  (run-to-run noise %.1f%%)\n\
    \  metrics on:  %.3f s  (%+.1f%% vs off, budget %.1f%%)\n\
    \  rendered output byte-identical on/off: %b\n\
     disabled probe: %.2f ns/op, %.5f minor words/op (gate: <50 ns, no \
     allocation)\n\
     enabled observe: %.2f ns/op, %.5f minor words/op (gate: no allocation)\n\
     shard merge (%d pool domains, %d obs): %s\n\
     exposition golden: %s\n"
    (List.length codes) t_off1 t_off2 t_off3 (noise *. 100.) t_on
    ((ratio -. 1.0) *. 100.)
    (budget *. 100.) identical micro_ns micro_words observe_ns observe_words
    shards
    (shards * (oracle_n / shards))
    (if merge_ok then "exact" else "MISMATCH")
    (if golden_ok then "stable" else "DRIFTED");
  List.iter
    (fun (phase, count, p50, p99) ->
      Printf.printf "  phase %-24s %6d spans  p50 %8.1f us  p99 %8.1f us\n"
        phase count (p50 *. 1e6) (p99 *. 1e6))
    phases;
  Printf.printf "gates: disabled %s, observe %s, enabled %s, merge %s, \
                 golden %s\n"
    (if disabled_ok then "ok" else "FAIL")
    (if observe_ok then "ok" else "FAIL")
    (if enabled_ok then "ok" else "FAIL")
    (if merge_ok then "ok" else "FAIL")
    (if golden_ok then "ok" else "FAIL");
  if emit then begin
    let phases_json =
      String.concat ","
        (List.map
           (fun (phase, count, p50, p99) ->
             Printf.sprintf
               "{\"phase\":\"%s\",\"spans\":%d,\"p50_seconds\":%.9f,\
                \"p99_seconds\":%.9f}"
               phase count p50 p99)
           phases)
    in
    let json =
      Printf.sprintf
        "{\"corpus_contracts\":%d,\
         \"wall_seconds_disabled\":%.4f,\"wall_seconds_disabled2\":%.4f,\
         \"wall_seconds_disabled3\":%.4f,\
         \"wall_seconds_enabled\":%.4f,\"wall_seconds_enabled2\":%.4f,\
         \"noise_fraction\":%.4f,\"overhead_fraction\":%.4f,\
         \"overhead_budget_fraction\":%.4f,\
         \"disabled_ns_per_op\":%.2f,\"disabled_minor_words_per_op\":%.5f,\
         \"observe_ns_per_op\":%.2f,\"observe_minor_words_per_op\":%.5f,\
         \"shard_merge_exact\":%b,\"exposition_golden_stable\":%b,\
         \"output_identical\":%b,\
         \"disabled_gate\":%b,\"observe_gate\":%b,\"enabled_gate\":%b,\
         \"phase_latency\":[%s]}"
        (List.length codes) t_off1 t_off2 t_off3 t_on1 t_on2 noise
        (ratio -. 1.0) budget micro_ns micro_words observe_ns observe_words
        merge_ok golden_ok identical disabled_ok observe_ok enabled_ok
        phases_json
    in
    Out_channel.with_open_text "BENCH_obs.json" (fun oc ->
        output_string oc json;
        output_char oc '\n');
    Printf.printf "wrote BENCH_obs.json\n"
  end;
  ok

(* ---------------------------------------------------------------- *)
(* Resident service: pooled multicore scaling and warm cache         *)
(* ---------------------------------------------------------------- *)

(* Four gates, emitted to BENCH_serve.json and enforced in --smoke:

   - parallel output stays byte-identical to sequential (drift);
   - jobs=2 over the corpus is at least as fast as sequential (the
     budget is 3x the measured sequential run-to-run noise plus 2%,
     floored at 10%, the same noise-aware shape as the trace gate).
     The engine clamps worker domains to the hardware count, so on a
     one-core machine this measures graceful degradation (jobs=2 IS
     the sequential engine — before the clamp, oversubscribed domains
     timesharing one core were ~1.7x slower than jobs=1 because every
     minor GC must rendezvous a descheduled domain), and on a
     multicore machine it measures real fan-out;
   - a pooled submit/await round-trip is cheaper than a raw
     Domain.spawn/join round-trip — the machine-independent measure of
     what the persistent pool saves a resident daemon per batch;
   - a resident serve session answers a repeated batch request from
     the cross-request report cache (hits recorded in Stats).

   [big] > 0 additionally measures jobs=2 scaling on a [big]-contract
   corpus (the full bench uses 1000); when the hardware has >= 2
   domains the win must be real, not just break-even, otherwise the
   clamp must hold the loss within the noise budget. *)
let serve_scaling ?(emit = true) ?(n = 180) ?(big = 0) () =
  section "Resident service: pooled multicore scaling and warm cache";
  let corpus n off =
    List.map
      (fun s -> s.Solc.Corpus.code)
      (Solc.Corpus.dataset3 ~seed:(seed + 11 + off) ~n)
  in
  let codes = corpus n 0 in
  let render reports =
    String.concat "\n"
      (List.map
         (fun r ->
           Format.asprintf "%a" Sigrec.Engine.pp_report
             { r with Sigrec.Engine.from_cache = false })
         reports)
  in
  let wall f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let hw = Stdlib.max 1 (Domain.recommended_domain_count ()) in
  (* deliberately request more jobs than the hardware has: the engine
     clamps, and the gate below checks the clamp holds the line *)
  let jobs_n = Stdlib.max 2 hw in
  (* warm the pool (domain spawn + interner snapshot adoption) untimed:
     a resident daemon pays this once at startup, so the measurement
     excludes it the same way the trace bench excludes ring setup *)
  ignore (Sigrec.Engine.recover_all (engine_with ~jobs:jobs_n ()) codes);
  let seq, t_seq1 =
    wall (fun () -> Sigrec.Engine.recover_all (engine_with ()) codes)
  in
  let _, t_seq2 =
    wall (fun () -> Sigrec.Engine.recover_all (engine_with ()) codes)
  in
  let t_seq = Stdlib.min t_seq1 t_seq2 in
  let noise = Float.abs (t_seq1 -. t_seq2) /. Stdlib.max 1e-9 t_seq in
  let par2, t_par2 =
    wall (fun () -> Sigrec.Engine.recover_all (engine_with ~jobs:2 ()) codes)
  in
  let parn, t_parn =
    wall (fun () ->
        Sigrec.Engine.recover_all (engine_with ~jobs:jobs_n ()) codes)
  in
  let identical = render seq = render par2 && render seq = render parn in
  let budget = Stdlib.max 0.10 ((3.0 *. noise) +. 0.02) in
  let pool_gate = t_par2 <= t_seq *. (1.0 +. budget) in
  Printf.printf
    "recover_all over %d contracts (%d hardware domains, %d pooled \
     workers):\n\
    \  sequential (jobs=1): %6.3f s / %6.3f s  (noise %.1f%%)\n\
    \  parallel   (jobs=2): %6.3f s  speedup %.2fx (gate: >= %.2fx)\n\
    \  parallel   (jobs=%d): %6.3f s  speedup %.2fx\n\
    \  parallel output byte-identical to sequential: %b\n"
    n hw
    (Sigrec.Pool.workers ())
    t_seq1 t_seq2 (noise *. 100.) t_par2
    (t_seq /. Stdlib.max 1e-9 t_par2)
    (1.0 /. (1.0 +. budget))
    jobs_n t_parn
    (t_seq /. Stdlib.max 1e-9 t_parn)
    identical;
  (* what the persistent pool saves per batch, independent of core
     count: a submit/await round-trip through an already-spawned
     worker vs paying Domain.spawn/join every batch (the old
     recover_all fan-out). Round-trips, not throughput: the daemon
     pays one hand-off per batch. *)
  Sigrec.Pool.ensure 1;
  let iters = 200 in
  let (), t_pool_rt =
    wall (fun () ->
        for _ = 1 to iters do
          Sigrec.Pool.await (Sigrec.Pool.submit [ (fun () -> ()) ])
        done)
  in
  let (), t_spawn_rt =
    wall (fun () ->
        for _ = 1 to iters do
          Domain.join (Domain.spawn (fun () -> ()))
        done)
  in
  let pool_us = t_pool_rt /. float_of_int iters *. 1e6 in
  let spawn_us = t_spawn_rt /. float_of_int iters *. 1e6 in
  let handoff_gate = t_pool_rt < t_spawn_rt in
  Printf.printf
    "pooled hand-off: %.1f us/round-trip vs Domain.spawn %.1f \
     us/round-trip (%.1fx cheaper; gate: cheaper)\n"
    pool_us spawn_us
    (spawn_us /. Stdlib.max 1e-3 pool_us);
  (* optional large corpus: with real cores break-even is not enough,
     the fan-out must actually win; on a one-core machine the clamp
     must hold jobs=2 within the noise budget of jobs=1 *)
  let big_seq, big_par2, big_gate =
    if big <= 0 then (0., 0., true)
    else begin
      let bcodes = corpus big 1 in
      let _, tbs =
        wall (fun () -> Sigrec.Engine.recover_all (engine_with ()) bcodes)
      in
      let _, tbp =
        wall (fun () ->
            Sigrec.Engine.recover_all (engine_with ~jobs:2 ()) bcodes)
      in
      let gate =
        if hw >= 2 then tbp < tbs else tbp <= tbs *. (1.0 +. budget)
      in
      Printf.printf
        "large corpus (%d contracts): jobs=1 %.3f s, jobs=2 %.3f s \
         (speedup %.2fx, gate: %s)\n"
        big tbs tbp
        (tbs /. Stdlib.max 1e-9 tbp)
        (if hw >= 2 then "faster" else "break-even, one-core hardware");
      (tbs, tbp, gate)
    end
  in
  (* resident serve session: the same batch request twice; the second
     must be answered from the cross-request report cache *)
  let t =
    Sigrec.Serve.create
      Sigrec.Engine.Config.(
        default |> with_jobs jobs_n |> with_cache_capacity 4096)
  in
  let request =
    Printf.sprintf {|{"id":1,"op":"recover","codes":[%s]}|}
      (String.concat ","
         (List.map (fun c -> "\"" ^ Evm.Hex.encode c ^ "\"") codes))
  in
  let r1, t_req1 = wall (fun () -> Sigrec.Serve.handle_line t request) in
  let r2, t_req2 = wall (fun () -> Sigrec.Serve.handle_line t request) in
  let stats = Sigrec.Engine.stats (Sigrec.Serve.engine t) in
  let hits = Sigrec.Stats.cache_hits stats in
  let distinct = Sigrec.Stats.cache_misses stats in
  let serve_gate =
    hits >= n
    && (not r1.Sigrec.Serve.shutdown)
    && not r2.Sigrec.Serve.shutdown
  in
  Printf.printf
    "serve session: first request %.3f s (%d analyses), repeat %.3f s \
     (%d cross-request cache hits; gate: >= %d)\n\
     gates: drift %s, pool %s, serve %s%s\n"
    t_req1 distinct t_req2 hits n
    (if identical then "ok" else "FAIL")
    (if pool_gate then "ok" else "FAIL")
    (if serve_gate then "ok" else "FAIL")
    ((if handoff_gate then ", hand-off ok" else ", hand-off FAIL")
    ^
    if big > 0 then
      if big_gate then ", large-corpus ok" else ", large-corpus FAIL"
    else "");
  let ok = identical && pool_gate && handoff_gate && serve_gate && big_gate in
  if emit then begin
    let json =
      Printf.sprintf
        "{\"corpus_contracts\":%d,\"hardware_domains\":%d,\
         \"wall_seconds_jobs1\":%.4f,\"wall_seconds_jobs1_2\":%.4f,\
         \"wall_seconds_jobs2\":%.4f,\
         \"jobs_n\":%d,\"wall_seconds_jobsn\":%.4f,\
         \"speedup_jobs2\":%.3f,\"speedup_jobsn\":%.3f,\
         \"noise_fraction\":%.4f,\"budget_fraction\":%.4f,\
         \"parallel_identical\":%b,\"pool_workers\":%d,\
         \"pool_roundtrip_us\":%.1f,\"spawn_roundtrip_us\":%.1f,\
         \"big_corpus_contracts\":%d,\
         \"big_wall_seconds_jobs1\":%.4f,\"big_wall_seconds_jobs2\":%.4f,\
         \"serve_first_request_seconds\":%.4f,\
         \"serve_repeat_request_seconds\":%.4f,\
         \"serve_cross_request_cache_hits\":%d,\
         \"drift_gate\":%b,\"pool_gate\":%b,\"handoff_gate\":%b,\
         \"serve_gate\":%b,\"big_gate\":%b}"
        n hw t_seq1 t_seq2 t_par2 jobs_n t_parn
        (t_seq /. Stdlib.max 1e-9 t_par2)
        (t_seq /. Stdlib.max 1e-9 t_parn)
        noise budget identical (Sigrec.Pool.workers ()) pool_us spawn_us big
        big_seq big_par2 t_req1 t_req2 hits identical pool_gate handoff_gate
        serve_gate big_gate
    in
    Out_channel.with_open_text "BENCH_serve.json" (fun oc ->
        output_string oc json;
        output_char oc '\n');
    Printf.printf "wrote BENCH_serve.json\n"
  end;
  ok

(* ---------------------------------------------------------------- *)
(* Storage-layout pass: the second recovery product                  *)
(* ---------------------------------------------------------------- *)

(* Three gates, emitted to BENCH_layout.json and enforced in --smoke:

   - precision: the recovered layout matches the generator's declared
     storage exactly — slots, kinds, packed lane boundaries — on every
     contract of the seeded layout corpus, with zero unresolved
     storage ops;
   - drift: the batch fan-out output is byte-identical across jobs=1
     and jobs=2;
   - cache: a repeated batch is answered from the layout LRU without
     re-analysis.

   Throughput (layouts/sec) is reported for tracking but not gated:
   absolute timing is machine-dependent. *)
let layout_pass ?(emit = true) ?(n = 150) () =
  section "Storage-layout pass: precision and batch fan-out";
  let samples = Solc.Corpus.layout_set ~seed:(seed + 17) ~n in
  let codes = List.map (fun s -> s.Solc.Corpus.lcode) samples in
  let module Layout = Sigrec_layout.Layout in
  let expected_decl (v : Solc.Lang.svar) =
    match v.Solc.Lang.kind with
    | Solc.Lang.Svalue [ 256 ] -> Layout.Word
    | Solc.Lang.Svalue widths ->
      Layout.Packed
        (List.map
           (fun (bit_offset, bit_width) -> { Layout.bit_offset; bit_width })
           (Option.get (Solc.Storage.truth_members widths)))
    | Solc.Lang.Smapping -> Layout.Mapping
    | Solc.Lang.Sarray -> Layout.Dyn_array
  in
  let shape_string entries =
    String.concat "; "
      (List.map
         (fun (slot, decl) ->
           Printf.sprintf "0x%s:%s"
             (Evm.U256.to_hex slot)
             (Layout.decl_to_string decl))
         entries)
  in
  let render reports =
    String.concat "\n"
      (List.map
         (fun (r : Sigrec.Engine.layout_report) ->
           Format.asprintf "0x%s %a" r.Sigrec.Engine.layout_code_hash
             Layout.pp r.Sigrec.Engine.layout)
         reports)
  in
  let wall f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let seq, t_seq =
    wall (fun () -> Sigrec.Engine.layout_all (engine_with ()) codes)
  in
  let par, t_par =
    wall (fun () -> Sigrec.Engine.layout_all (engine_with ~jobs:2 ()) codes)
  in
  let drift_gate = render seq = render par in
  (* precision against the declared ground truth *)
  let declared = ref 0 and exact = ref 0 and unresolved = ref 0 in
  let total_slots = ref 0 in
  List.iter2
    (fun (s : Solc.Corpus.layout_sample)
         (r : Sigrec.Engine.layout_report) ->
      let want =
        List.sort
          (fun (a, _) (b, _) -> Evm.U256.compare a b)
          (List.map
             (fun (v : Solc.Lang.svar) ->
               (Evm.U256.of_int v.Solc.Lang.slot, expected_decl v))
             s.Solc.Corpus.svars)
      in
      let got =
        List.map
          (fun (e : Layout.entry) -> (e.Layout.slot, e.Layout.decl))
          r.Sigrec.Engine.layout.Layout.entries
      in
      incr declared;
      total_slots := !total_slots + List.length want;
      unresolved :=
        !unresolved + r.Sigrec.Engine.layout.Layout.unknown_ops;
      if
        shape_string got = shape_string want
        && r.Sigrec.Engine.layout.Layout.complete
      then incr exact)
    samples seq;
  let precision_gate = !exact = !declared && !unresolved = 0 in
  (* a repeated batch must be answered from the layout LRU *)
  let engine = engine_with ~jobs:2 () in
  let _ = Sigrec.Engine.layout_all engine codes in
  let warm = Sigrec.Engine.layout_all engine codes in
  let cache_gate =
    List.for_all (fun r -> r.Sigrec.Engine.layout_from_cache) warm
    && render warm = render seq
  in
  let per_sec = float_of_int n /. Stdlib.max 1e-9 t_seq in
  Printf.printf
    "layout recovery over %d contracts (%d declared slots):\n\
    \  exact layouts: %d/%d  unresolved storage ops: %d\n\
    \  sequential: %.3f s (%.0f layouts/s)   jobs=2: %.3f s\n\
    \  parallel output byte-identical: %b   warm batch cached: %b\n\
     gates: precision %s, drift %s, cache %s\n"
    n !total_slots !exact !declared !unresolved t_seq per_sec t_par
    drift_gate cache_gate
    (if precision_gate then "ok" else "FAIL")
    (if drift_gate then "ok" else "FAIL")
    (if cache_gate then "ok" else "FAIL");
  let ok = precision_gate && drift_gate && cache_gate in
  if emit then begin
    let json =
      Printf.sprintf
        "{\"corpus_contracts\":%d,\"declared_slots\":%d,\
         \"exact_layouts\":%d,\"unresolved_ops\":%d,\
         \"wall_seconds_jobs1\":%.4f,\"wall_seconds_jobs2\":%.4f,\
         \"layouts_per_second\":%.1f,\
         \"precision_gate\":%b,\"drift_gate\":%b,\"cache_gate\":%b}"
        n !total_slots !exact !unresolved t_seq t_par per_sec
        precision_gate drift_gate cache_gate
    in
    Out_channel.with_open_text "BENCH_layout.json" (fun oc ->
        output_string oc json;
        output_char oc '\n');
    Printf.printf "wrote BENCH_layout.json\n"
  end;
  ok

(* ---------------------------------------------------------------- *)
(* Token-standard classification: ground-truth accuracy harness      *)
(* ---------------------------------------------------------------- *)

(* Three gates, emitted to BENCH_classify.json and enforced in
   --smoke — ratios and booleans only, never absolute timing:

   - accuracy: over the labeled token corpus, precision on exact
     verdicts must be 1.0 — every contract classified as an exact
     standard really carries the full required member set, so the
     planted negatives (dropped members, selector collisions,
     non-tokens) never classify exact — and recall over the exact
     positives must reach 0.95;
   - overhead: scoring is a thin layer over recovery. classify_all on
     a warm engine repeats the hash-and-lookup pass recover_all runs
     on the same warm engine, so the difference of the two isolates
     what classification itself adds; that must stay under 10% of the
     cold recovery wall-clock, widened to the measured cold-run noise
     when the machine is too jittery to resolve 10% (same convention
     as the serve-scaling budget);
   - serve: a resident session answers a repeated classify request
     from the cross-request verdict LRU (classify_cache_hits > 0). *)
let classify_pass ?(emit = true) ?(n = 150) () =
  section "Token-standard classification: ground-truth accuracy";
  let samples = Solc.Corpus.token_set ~seed:(seed + 19) ~n in
  let codes = List.map (fun s -> s.Solc.Corpus.tcode) samples in
  let module C = Sigrec_classify.Classify in
  let wall f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let engine = engine_with () in
  let _, t_rec = wall (fun () -> Sigrec.Engine.recover_all engine codes) in
  let _, t_rec_b =
    wall (fun () -> Sigrec.Engine.recover_all (engine_with ()) codes)
  in
  let noise = abs_float (t_rec -. t_rec_b) /. Stdlib.max 1e-9 t_rec in
  let _, t_warm = wall (fun () -> Sigrec.Engine.recover_all engine codes) in
  let verdicts, t_cls =
    wall (fun () -> Sigrec.Engine.classify_all engine codes)
  in
  let t_scoring = Stdlib.max 0.0 (t_cls -. t_warm) in
  let overhead = t_scoring /. Stdlib.max 1e-9 (Stdlib.min t_rec t_rec_b) in
  let budget = Stdlib.max 0.10 noise in
  let overhead_gate = overhead < budget in
  (* accuracy against the generator's ground truth *)
  let exact_positives = ref 0 and exact_hits = ref 0 in
  let exact_claims = ref 0 and exact_correct = ref 0 in
  let partial_hits = ref 0 in
  List.iter2
    (fun (s : Solc.Corpus.token_sample) (r : Sigrec.Engine.classify_report) ->
      let v = r.Sigrec.Engine.verdict in
      let is_exact =
        match v.C.best with Some b -> b.C.level = C.Exact | None -> false
      in
      let lbl = C.label v in
      if s.Solc.Corpus.texact then incr exact_positives;
      if is_exact then begin
        incr exact_claims;
        if s.Solc.Corpus.texact && lbl = s.Solc.Corpus.tlabel then begin
          incr exact_correct;
          incr exact_hits
        end
      end
      else if
        s.Solc.Corpus.tlabel <> "none"
        && lbl = s.Solc.Corpus.tlabel ^ " (partial)"
      then incr partial_hits)
    samples verdicts;
  let precision =
    if !exact_claims = 0 then 1.0
    else float_of_int !exact_correct /. float_of_int !exact_claims
  in
  let recall =
    if !exact_positives = 0 then 1.0
    else float_of_int !exact_hits /. float_of_int !exact_positives
  in
  let accuracy_gate = precision = 1.0 && recall >= 0.95 in
  (* a resident session must answer a repeated classify request from
     the verdict LRU *)
  let t =
    Sigrec.Serve.create
      Sigrec.Engine.Config.(default |> with_cache_capacity 4096)
  in
  let request =
    Printf.sprintf {|{"id":1,"op":"classify","codes":[%s]}|}
      (String.concat ","
         (List.map
            (fun c -> "\"" ^ Evm.Hex.encode c ^ "\"")
            (List.filteri (fun i _ -> i < 12) codes)))
  in
  let r1 = Sigrec.Serve.handle_line t request in
  let r2 = Sigrec.Serve.handle_line t request in
  let serve_hits =
    Sigrec.Stats.classify_cache_hits
      (Sigrec.Engine.stats (Sigrec.Serve.engine t))
  in
  let serve_gate =
    serve_hits > 0
    && (not r1.Sigrec.Serve.shutdown)
    && not r2.Sigrec.Serve.shutdown
  in
  let per_sec = float_of_int n /. Stdlib.max 1e-9 (t_rec +. t_scoring) in
  Printf.printf
    "classification over %d labeled contracts (%d exact positives):\n\
    \  precision %.3f (%d/%d exact claims correct)  recall %.3f \
     (%d/%d)  partials caught: %d\n\
    \  recovery %.3f s, scoring +%.3f s (%.1f%% overhead, budget \
     %.0f%%, %.0f contracts/s end to end)\n\
    \  serve verdict-LRU hits on repeat request: %d\n\
     gates: accuracy %s, overhead %s, serve %s\n"
    n !exact_positives precision !exact_correct !exact_claims recall
    !exact_hits !exact_positives !partial_hits t_rec t_scoring
    (overhead *. 100.0) (budget *. 100.0) per_sec serve_hits
    (if accuracy_gate then "ok" else "FAIL")
    (if overhead_gate then "ok" else "FAIL")
    (if serve_gate then "ok" else "FAIL");
  let ok = accuracy_gate && overhead_gate && serve_gate in
  if emit then begin
    let json =
      Printf.sprintf
        "{\"corpus_contracts\":%d,\"exact_positives\":%d,\
         \"exact_claims\":%d,\"exact_correct\":%d,\
         \"precision\":%.4f,\"recall\":%.4f,\"partials_caught\":%d,\
         \"wall_seconds_recovery\":%.4f,\"wall_seconds_scoring\":%.4f,\
         \"scoring_overhead_fraction\":%.4f,\"budget_fraction\":%.4f,\
         \"contracts_per_second\":%.1f,\
         \"serve_verdict_cache_hits\":%d,\
         \"accuracy_gate\":%b,\"overhead_gate\":%b,\"serve_gate\":%b}"
        n !exact_positives !exact_claims !exact_correct precision recall
        !partial_hits t_rec t_scoring overhead budget per_sec serve_hits
        accuracy_gate overhead_gate serve_gate
    in
    Out_channel.with_open_text "BENCH_classify.json" (fun oc ->
        output_string oc json;
        output_char oc '\n');
    Printf.printf "wrote BENCH_classify.json\n"
  end;
  ok

(* ---------------------------------------------------------------- *)
(* Chain-scale streaming (10^5-contract corpora)                     *)
(* ---------------------------------------------------------------- *)

(* Four gates, emitted to BENCH_scale.json and enforced in --smoke —
   ratios and booleans only, never absolute timing:

   - identity: recover_stream emits the same reports as recover_all
     over the same codes (renders compared with from_cache normalized
     away — which batch first analyzes a bytecode depends on batch
     boundaries);
   - memory: streaming a generated corpus (default ~90% byte-identical
     duplicates, the mainnet profile) must cost less peak heap than the
     non-streaming path, which materializes every input line before
     recovering — the high-water growth of the whole cold streamed run
     must stay below what merely materializing the same corpus adds on
     top of it (the gap widens with n: the streamed side is bounded by
     distinct contracts, the materialized side grows with the stream);
   - dedup: the duplicated stream must run at a higher contracts/sec
     than a duplicate-free stream of the same pipeline (the cache is
     doing its job);
   - allocation: the jobs=1 engine's minor words per contract over the
     symex_core corpus must stay at least 25% below the pre-diet
     baseline (54,613 words/contract, committed in BENCH_perf.json
     before the scratch-buffer work). *)

let alloc_baseline_words_per_contract = 54_613.0

let scale ?(emit = true) ?(n = 10_000) ?(alloc_n = 120) () =
  section "Chain-scale streaming recovery";
  let dup_rate = 0.9 in
  let domains = Domain.recommended_domain_count () in
  let render_normalized reports =
    String.concat "\n"
      (List.map
         (fun r ->
           Format.asprintf "%a" Sigrec.Engine.pp_report
             { r with Sigrec.Engine.from_cache = false })
         reports)
  in
  (* gate 1: stream/batch identity on a prefix-sized corpus *)
  let k = Stdlib.min n 400 in
  let ident_codes = ref [] in
  Solc.Corpus.stream ~seed:(seed + 13) ~n:k ~dup_rate (fun code ->
      ident_codes := code :: !ident_codes);
  let ident_codes = List.rev !ident_codes in
  let batch_reports = Sigrec.Engine.recover_all (engine_with ()) ident_codes in
  let stream_reports = ref [] in
  let fed =
    Sigrec.Engine.recover_stream (engine_with ()) ~batch:64
      (List.to_seq ident_codes) ~emit:(fun r ->
        stream_reports := r :: !stream_reports)
  in
  let identity_gate =
    fed = k
    && render_normalized batch_reports
       = render_normalized (List.rev !stream_reports)
  in
  Printf.printf
    "stream vs batch over %d contracts: %d emitted, identical: %b\n" k fed
    identity_gate;
  (* gates 2+3: stream the full corpus; generation happens inside the
     feed loop (as it would from a pipe), so both the duplicated and
     the duplicate-free run pay it identically *)
  let top_heap_bytes () =
    (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)
  in
  let run_streamed ~engine ~dup_rate ~n =
    let bytes_seen = ref 0 in
    let emitted = ref 0 in
    let h0 = top_heap_bytes () in
    let t0 = Unix.gettimeofday () in
    let session =
      Sigrec.Engine.Stream.start engine ~emit:(fun _ -> incr emitted)
    in
    Solc.Corpus.stream ~seed:(seed + 13) ~n ~dup_rate (fun code ->
        bytes_seen := !bytes_seen + String.length code;
        Sigrec.Engine.Stream.feed session code);
    let contracts = Sigrec.Engine.Stream.finish session in
    let t = Unix.gettimeofday () -. t0 in
    let heap_growth_bytes = top_heap_bytes () - h0 in
    let stats = Sigrec.Engine.stats engine in
    ( contracts,
      float_of_int contracts /. Stdlib.max 1e-9 t,
      !bytes_seen,
      heap_growth_bytes,
      Sigrec.Stats.cache_misses stats,
      Sigrec.Stats.stream_dedup_hits stats )
  in
  let stream_engine = engine_with ~jobs:domains () in
  let contracts, rate_dedup, corpus_bytes, heap_growth, distinct, dedup_hits
      =
    run_streamed ~engine:stream_engine ~dup_rate ~n
  in
  (* memory baseline: what the non-streaming path pays before analysis
     even starts — every line of the same corpus materialized as its
     own string (duplicates included, exactly as a file read does) plus
     a full-corpus report list. The engine is the warm one from the
     streamed run, so the delta isolates materialization: it must
     exceed what the entire cold streamed run added to the high-water
     mark. *)
  let h0 = top_heap_bytes () in
  let materialized = ref [] in
  Solc.Corpus.stream ~seed:(seed + 13) ~n ~dup_rate (fun code ->
      materialized := String.sub code 0 (String.length code) :: !materialized);
  let batch_reports =
    Sigrec.Engine.recover_all stream_engine (List.rev !materialized)
  in
  let batch_growth = top_heap_bytes () - h0 in
  let batch_count = List.length batch_reports in
  materialized := [];
  let memory_gate = batch_count = n && heap_growth < batch_growth in
  let n_cold = Stdlib.max 25 (n / 20) in
  let _, rate_cold, _, _, _, _ =
    run_streamed ~engine:(engine_with ~jobs:domains ()) ~dup_rate:0.0
      ~n:n_cold
  in
  let dedup_gate = rate_dedup > rate_cold in
  Printf.printf
    "streamed %d contracts (%d distinct analyses, %d dedup hits, %.1f MB \
     corpus):\n\
    \  deduped (%.0f%% duplicates): %.0f contracts/s on %d domains\n\
    \  duplicate-free (%d contracts): %.0f contracts/s\n\
    \  peak-heap growth: streamed %.2f MB vs materialized corpus %.2f MB\n"
    contracts distinct dedup_hits
    (float_of_int corpus_bytes /. 1e6)
    (dup_rate *. 100.0) rate_dedup domains n_cold rate_cold
    (float_of_int heap_growth /. 1e6)
    (float_of_int batch_growth /. 1e6);
  (* gate 4: the allocation diet, measured the same way BENCH_perf.json
     measures it (jobs=1 recover_all, symex_core corpus shape) so the
     number is comparable to the committed pre-diet baseline *)
  let extra = Stdlib.max 4 (alloc_n / 4) in
  let alloc_samples =
    Solc.Corpus.dataset3 ~seed:(seed + 9) ~n:alloc_n
    @ Solc.Corpus.vyper_set ~seed:(seed + 9) ~n:extra
    @ Solc.Corpus.abiv2_set ~seed:(seed + 9) ~n:extra
  in
  let alloc_codes = List.map (fun s -> s.Solc.Corpus.code) alloc_samples in
  (* flush the young generation around the run: the allocated-words
     counter only advances at minor collections, so without the flush
     the delta is quantized to whole minor-heap units — far too coarse
     for a small corpus *)
  Gc.minor ();
  let g0 = Gc.quick_stat () in
  let (_ : Sigrec.Engine.report list) =
    Sigrec.Engine.recover_all (engine_with ()) alloc_codes
  in
  Gc.minor ();
  let g1 = Gc.quick_stat () in
  let minor = g1.Gc.minor_words -. g0.Gc.minor_words in
  let words_per_contract =
    minor /. float_of_int (List.length alloc_codes)
  in
  let reduction = 1.0 -. (words_per_contract /. alloc_baseline_words_per_contract) in
  let alloc_gate =
    words_per_contract <= 0.75 *. alloc_baseline_words_per_contract
  in
  Printf.printf
    "allocation: %.0f minor words/contract (baseline %.0f, %.0f%% \
     reduction)\n\
     gates: identity %s, memory %s, dedup %s, allocation %s\n"
    words_per_contract alloc_baseline_words_per_contract
    (reduction *. 100.0)
    (if identity_gate then "ok" else "FAIL")
    (if memory_gate then "ok" else "FAIL")
    (if dedup_gate then "ok" else "FAIL")
    (if alloc_gate then "ok" else "FAIL");
  let ok = identity_gate && memory_gate && dedup_gate && alloc_gate in
  if emit then begin
    let json =
      Printf.sprintf
        "{\"corpus_contracts\":%d,\"distinct_analyses\":%d,\
         \"dup_rate\":%.2f,\"stream_dedup_hits\":%d,\
         \"hardware_domains\":%d,\
         \"contracts_per_sec_deduped\":%.1f,\
         \"contracts_per_sec_cold\":%.1f,\
         \"corpus_bytes\":%d,\"stream_heap_growth_bytes\":%d,\
         \"materialized_heap_growth_bytes\":%d,\
         \"minor_words_per_contract\":%.0f,\
         \"baseline_minor_words_per_contract\":%.0f,\
         \"minor_words_reduction\":%.3f,\
         \"identity_gate\":%b,\"memory_gate\":%b,\
         \"dedup_gate\":%b,\"allocation_gate\":%b}"
        contracts distinct dup_rate dedup_hits domains rate_dedup rate_cold
        corpus_bytes heap_growth batch_growth words_per_contract
        alloc_baseline_words_per_contract reduction identity_gate
        memory_gate dedup_gate alloc_gate
    in
    Out_channel.with_open_text "BENCH_scale.json" (fun oc ->
        output_string oc json;
        output_char oc '\n');
    Printf.printf "wrote BENCH_scale.json\n"
  end;
  ok

(* --smoke: the drift checks only, on a small corpus, fast enough for
   CI. Exit status 1 when any recovery output drifts (parallel vs
   sequential, pruned vs unpruned, warm vs cold, interned vs structural
   equality classes), when the tracing overhead gates fail, or when the
   resident-service gates fail (pooled jobs=2 slower than sequential,
   or a repeated serve request missing the cache); absolute timing is
   deliberately NOT checked, only ratios. *)
let smoke () =
  let ok = symex_core ~emit:false ~n:16 () in
  let trace_ok = trace_overhead ~emit:true ~n:32 () in
  let serve_ok = serve_scaling ~emit:true ~n:180 () in
  let layout_ok = layout_pass ~emit:true ~n:60 () in
  let classify_ok = classify_pass ~emit:true ~n:60 () in
  let scale_ok = scale ~emit:true ~n:8_000 ~alloc_n:120 () in
  (* last on purpose: the scale section's memory gate reads the
     process-wide top-heap high-water mark, and the serve section's
     timing gates are noise-sensitive — the metrics section's corpus
     runs and 100k-observation oracle must not shift their baselines *)
  let obs_ok = metrics_overhead ~emit:true ~n:32 () in
  if
    ok && trace_ok && obs_ok && serve_ok && layout_ok && classify_ok
    && scale_ok
  then
    Printf.printf
      "\nsmoke: recovery output stable, trace and metrics overhead in \
       budget, resident-service, layout, classification and chain-scale \
       gates hold\n"
  else begin
    if not ok then Printf.printf "\nsmoke: RECOVERY OUTPUT DRIFT DETECTED\n";
    if not trace_ok then
      Printf.printf "\nsmoke: TRACE OVERHEAD GATE FAILED (see BENCH_trace.json)\n";
    if not obs_ok then
      Printf.printf
        "\nsmoke: METRICS OVERHEAD GATE FAILED (see BENCH_obs.json)\n";
    if not serve_ok then
      Printf.printf
        "\nsmoke: RESIDENT SERVICE GATE FAILED (see BENCH_serve.json)\n";
    if not layout_ok then
      Printf.printf
        "\nsmoke: STORAGE-LAYOUT GATE FAILED (see BENCH_layout.json)\n";
    if not classify_ok then
      Printf.printf
        "\nsmoke: CLASSIFICATION GATE FAILED (see BENCH_classify.json)\n";
    if not scale_ok then
      Printf.printf
        "\nsmoke: CHAIN-SCALE STREAMING GATE FAILED (see BENCH_scale.json)\n";
    exit 1
  end

let () =
  if Array.exists (( = ) "--smoke") Sys.argv then smoke ()
  else begin
    let t0 = Sys.time () in
    table1 ();
    table2 ();
    table3 ();
    table4 ();
    table5 ();
    fig15_16 ();
    fig17 ();
    fig18 ();
    fig19 ();
    app_parchecker ();
    app_fuzzer ();
    app_erays ();
    ablation ();
    obfuscation ();
    engine_batch ();
    static_pass ();
    let (_ : bool) = symex_core () in
    let (_ : bool) = trace_overhead () in
    let (_ : bool) = serve_scaling ~big:1000 () in
    let (_ : bool) = layout_pass () in
    let (_ : bool) = classify_pass () in
    let (_ : bool) = scale ~n:100_000 () in
    (* last: must not perturb the serve timing or scale heap gates *)
    let (_ : bool) = metrics_overhead () in
    aggregation ();
    proptest_volume ();
    run_bechamel ();
    Printf.printf "\ntotal bench time: %.1f s\n" (Sys.time () -. t0)
  end
