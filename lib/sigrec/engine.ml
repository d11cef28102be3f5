module Tr = Sigrec_trace.Trace
module Mx = Sigrec_metrics.Metrics
module Layout = Sigrec_layout.Layout
module Classify = Sigrec_classify.Classify

module Config = struct
  type t = {
    rules : Rules.config;
    budget : Symex.Exec.budget option;
    static_prune : bool;
    jobs : int;
    cache_capacity : int;
  }

  let default =
    {
      rules = Rules.default_config;
      budget = None;
      static_prune = true;
      jobs = 0;
      cache_capacity = 0;
    }

  let with_rules rules t = { t with rules }
  let with_budget budget t = { t with budget = Some budget }
  let without_budget t = { t with budget = None }
  let with_static_prune static_prune t = { t with static_prune }
  let with_jobs jobs t = { t with jobs = Stdlib.max 0 jobs }

  let with_cache_capacity cache_capacity t =
    { t with cache_capacity = Stdlib.max 0 cache_capacity }
end

type error = {
  selector : string;
  selector_hex : string;
  entry_pc : int;
  message : string;
}

type outcome =
  | Recovered of { result : Recover.recovered; elapsed_ns : int }
  | Budget_exhausted of {
      partial : Recover.recovered;
      paths_explored : int;
      elapsed_ns : int;
    }
  | Failed of error

type report = {
  code_hash : string;
  outcomes : outcome list;
  from_cache : bool;
}

type layout_report = {
  layout_code_hash : string;
  layout : Layout.t;
  layout_from_cache : bool;
}

type classify_report = {
  classify_code_hash : string;
  verdict : Classify.verdict;
  classify_from_cache : bool;
}

(* One LRU per product, each keyed by the 32-byte code hash, so the
   products never evict each other's entries. *)
type t = {
  config : Config.t;
  reports : (string, report) Lru.t;
  layouts : (string, layout_report) Lru.t;
  verdicts : (string, classify_report) Lru.t;
  lock : Mutex.t; (* guards the LRUs *)
  stats : Stats.t; (* atomic counters: workers count straight in *)
}

let make config =
  let lru () = Lru.create ~capacity:config.Config.cache_capacity in
  {
    config;
    reports = lru ();
    layouts = lru ();
    verdicts = lru ();
    lock = Mutex.create ();
    stats = Stats.create ();
  }

let config t = t.config
let stats t = t.stats

let signatures report =
  List.filter_map
    (function
      | Recovered { result = r; _ } | Budget_exhausted { partial = r; _ } ->
        Some r
      | Failed _ -> None)
    report.outcomes

let outcome_elapsed_ns = function
  | Recovered { elapsed_ns; _ } | Budget_exhausted { elapsed_ns; _ } ->
    Some elapsed_ns
  | Failed _ -> None

(* [elapsed_ns] is deliberately absent here: the rendered report is the
   drift invariant the tests and lint compare byte-for-byte. *)
let pp_outcome fmt = function
  | Recovered { result = r; _ } -> Format.fprintf fmt "%a" Recover.pp r
  | Budget_exhausted { partial; paths_explored; _ } ->
    Format.fprintf fmt "%a [budget exhausted after %d paths]" Recover.pp
      partial paths_explored
  | Failed e ->
    Format.fprintf fmt "0x%s [failed: %s]" e.selector_hex e.message

let pp_report fmt report =
  Format.fprintf fmt "@[<v>code hash 0x%s%s@," report.code_hash
    (if report.from_cache then " (cached)" else "");
  (match report.outcomes with
  | [] -> Format.fprintf fmt "  no public/external functions@,"
  | outcomes ->
    List.iter
      (fun o -> Format.fprintf fmt "  %a@," pp_outcome o)
      outcomes);
  Format.fprintf fmt "@]"

(* Analyze one bytecode cold: build the shared context once, then run
   TASE per dispatcher entry. Every per-function failure mode is
   reified into the outcome instead of yielding a silently shorter
   list. *)
let analyze_uncounted ~cfg ~stats ~hash code =
  let lift0 = Tr.now_ns () in
  match Contract.make ~hash code with
  | exception e ->
    {
      code_hash = Evm.Hex.encode hash;
      outcomes =
        [
          Failed
            {
              selector = "";
              selector_hex = "";
              entry_pc = -1;
              message = Printexc.to_string e;
            };
        ];
      from_cache = false;
    }
  | contract ->
    let lift_ns = Tr.now_ns () - lift0 in
    let outcomes =
      List.map
        (fun { Ids.selector; entry_pc } ->
          (* wall clock per function, measured whether or not tracing is
             on: one clock pair against milliseconds of work *)
          let ns0 = Tr.now_ns () in
          let outcome =
            match
              Infer.infer ~stats ~config:cfg.Config.rules
                ~static_prune:cfg.Config.static_prune
                ?budget:cfg.Config.budget ~contract ~entry:entry_pc ()
            with
            | result ->
              let r = Recover.of_infer ~selector ~entry_pc result in
              let elapsed_ns = Tr.now_ns () - ns0 in
              if Symex.Trace.truncated result.Infer.trace then
                Budget_exhausted
                  {
                    partial = r;
                    paths_explored =
                      result.Infer.trace.Symex.Trace.paths_explored;
                    elapsed_ns;
                  }
              else Recovered { result = r; elapsed_ns }
            | exception e ->
              Failed
                {
                  selector;
                  selector_hex = Evm.Hex.encode selector;
                  entry_pc;
                  message = Printexc.to_string e;
                }
          in
          (* the span ends where [elapsed_ns] was read, so its duration
             is exactly the outcome's *)
          if Tr.enabled () then
            Tr.complete Tr.Engine "function" ~t0_ns:ns0
              ?t1_ns:(Option.map (( + ) ns0) (outcome_elapsed_ns outcome))
              [
                ("selector", Tr.Str ("0x" ^ Evm.Hex.encode selector));
                ("entry_pc", Tr.Int entry_pc);
                ( "outcome",
                  Tr.Str
                    (match outcome with
                    | Recovered _ -> "recovered"
                    | Budget_exhausted _ -> "budget_exhausted"
                    | Failed _ -> "failed") );
                ( "paths",
                  Tr.Int
                    (match outcome with
                    | Recovered { result = r; _ }
                    | Budget_exhausted { partial = r; _ } ->
                      r.Recover.paths_explored
                    | Failed _ -> 0) );
              ];
          outcome)
        contract.Contract.entries
    in
    Stats.add_functions stats
      (List.length
         (List.filter (function Recovered _ -> true | _ -> false) outcomes));
    let code_hash = Contract.code_hash_hex contract in
    if Mx.enabled () then begin
      (* top-K slowest ring: the adversarial tail by code hash, with
         enough phase breakdown to tell a slow lift from a slow TASE *)
      let analysis_ns =
        List.fold_left
          (fun acc o ->
            match outcome_elapsed_ns o with Some ns -> acc + ns | None -> acc)
          0 outcomes
      in
      Mx.Top.record ~key:code_hash ~elapsed_ns:(lift_ns + analysis_ns)
        ~detail:
          [
            ("lift_ns", lift_ns);
            ("analysis_ns", analysis_ns);
            ("functions", List.length outcomes);
          ]
    end;
    { code_hash; outcomes; from_cache = false }

let analyze ~cfg ~stats ~hash code =
  Stats.cache_miss stats;
  let t0_ns = if Tr.enabled () then Tr.now_ns () else 0 in
  (* interner traffic is domain-local and an analysis runs entirely in
     one domain, so the before/after delta is exactly this analysis's *)
  let ih0, im0 = Symex.Sexpr.interner_counters () in
  let report = analyze_uncounted ~cfg ~stats ~hash code in
  let ih1, im1 = Symex.Sexpr.interner_counters () in
  Stats.add_interner stats ~hits:(ih1 - ih0) ~misses:(im1 - im0);
  if Tr.enabled () then
    Tr.complete Tr.Engine "input" ~t0_ns
      [
        ("code_hash", Tr.Str report.code_hash);
        ("functions", Tr.Int (List.length report.outcomes));
        ("bytes", Tr.Int (String.length code));
      ];
  report

(* [Config.jobs] is a cap, not a demand: OCaml's stop-the-world minor
   collector makes domains that merely timeshare a core actively
   harmful (every minor GC must rendezvous a descheduled domain), so
   the engine never runs more workers than the hardware can schedule
   simultaneously. On a one-core machine jobs=8 and jobs=1 are the
   same engine. *)
let hardware_jobs =
  lazy (Stdlib.max 1 (Domain.recommended_domain_count ()))

let effective_jobs t =
  let hw = Lazy.force hardware_jobs in
  if t.config.Config.jobs > 0 then Stdlib.min t.config.Config.jobs hw
  else hw

(* ---- the content-addressed pipeline --------------------------------- *)

(* What the batch path needs to know about one recovery product. *)
type 'a product = {
  name : string; (* its LRU, as [cache_stats] and traces name it *)
  lru : t -> (string, 'a) Lru.t;
  analyze : t -> hash:string -> string -> 'a; (* the cold answer *)
  hit : Stats.t -> int -> unit; (* the counter a cached answer bumps *)
  cached : 'a -> 'a; (* the answer, marked as served from the cache *)
}

(* The one batch path every product runs: hash each input (unless the
   caller already holds the hashes), answer in-batch duplicates and LRU
   hits without re-analysis, fan the distinct misses out over the pool,
   fill the LRU counting its evictions, and assemble the answers in
   input order — byte-identical whatever [jobs] resolves to. Returns the
   answers and how many of them came from the cache or an earlier input
   of the batch. *)
let run_batch ?hashes p t codes =
  let n = Array.length codes in
  let hashes =
    match hashes with
    | Some h -> h
    | None -> Array.map Contract.hash_of_code codes
  in
  let lru = p.lru t in
  (* [answers] is filled at the first input of each distinct hash;
     [first.(i)] points input [i] there. Kept apart from the LRU so an
     eviction mid-batch can never lose an answer the batch needs. *)
  let answers = Array.make n None in
  let first = Array.make n 0 in
  let fresh = Array.make n false in
  let work = ref [] in
  let dups = ref 0 in
  Mutex.protect t.lock (fun () ->
      let seen = Hashtbl.create ((2 * n) + 1) in
      for i = 0 to n - 1 do
        match Hashtbl.find_opt seen hashes.(i) with
        | Some j ->
          first.(i) <- j;
          incr dups
        | None -> (
          Hashtbl.replace seen hashes.(i) i;
          first.(i) <- i;
          match Lru.find_opt lru hashes.(i) with
          | Some a -> answers.(i) <- Some a
          | None ->
            fresh.(i) <- true;
            work := i :: !work)
      done);
  if !dups > 0 then begin
    Stats.add_deduped t.stats !dups;
    if Tr.enabled () then
      Tr.instant Tr.Engine "dedup" [ ("duplicates", Tr.Int !dups) ]
  end;
  let work = Array.of_list (List.rev !work) in
  let work_n = Array.length work in
  let jobs = Stdlib.min (effective_jobs t) (Stdlib.max 1 work_n) in
  (* Workers claim chunks of contiguous indices from a shared counter —
     dynamic balancing like per-item claiming, but with fewer atomic
     operations and less false sharing on the answers array. No
     analysis state is shared and every counter update is atomic, so
     the answers and the totals are identical whatever the
     interleaving. *)
  let chunk = Stdlib.max 1 (Stdlib.min 16 (work_n / (jobs * 8))) in
  let next = Atomic.make 0 in
  let rec worker () =
    let k0 = Atomic.fetch_and_add next chunk in
    if k0 < work_n then begin
      for k = k0 to Stdlib.min (k0 + chunk) work_n - 1 do
        let i = work.(k) in
        answers.(i) <- Some (p.analyze t ~hash:hashes.(i) codes.(i))
      done;
      worker ()
    end
  in
  if jobs <= 1 then worker ()
  else begin
    (* Fan out over the persistent pool: helpers are pooled domains
       spawned once per process (warm interners), the calling domain
       takes the remaining share. *)
    Pool.ensure (jobs - 1);
    let helpers = Stdlib.min (jobs - 1) (Pool.workers ()) in
    let pending = Pool.submit (List.init helpers (fun _ -> worker)) in
    worker ();
    Pool.await pending
  end;
  let hits = n - work_n in
  (* the inserts are keyed by distinct hashes, so the LRU's state does
     not depend on which domain analyzed what *)
  Stats.add_evictions t.stats
    (Mutex.protect t.lock (fun () ->
         let ev0 = Lru.evictions lru in
         Array.iter
           (fun i -> Lru.add lru hashes.(i) (Option.get answers.(i)))
           work;
         Lru.evictions lru - ev0));
  if hits > 0 then p.hit t.stats hits;
  let answers =
    Array.init n (fun i ->
        let a = Option.get answers.(first.(i)) in
        if fresh.(i) then a
        else begin
          if Tr.enabled () then
            Tr.instant Tr.Engine "cache_hit"
              [
                ("cache", Tr.Str p.name);
                ("code_hash", Tr.Str (Evm.Hex.encode hashes.(i)));
              ];
          p.cached a
        end)
  in
  (* per-batch runtime-health sample: one Gc.quick_stat against a batch
     of analyses, so a scraping service sees heap growth between polls *)
  if Mx.enabled () then Mx.sample_gc ();
  (answers, hits)

(* A single code is a one-element batch. *)
let run ?hash p t code =
  let hashes = Option.map (fun h -> [| h |]) hash in
  (fst (run_batch ?hashes p t [| code |])).(0)

let run_all p t codes =
  Array.to_list (fst (run_batch p t (Array.of_list codes)))

let reports =
  {
    name = "reports";
    lru = (fun t -> t.reports);
    analyze =
      (fun t ~hash code -> analyze ~cfg:t.config ~stats:t.stats ~hash code);
    hit = Stats.add_cache_hits;
    cached = (fun r -> { r with from_cache = true });
  }

let layouts =
  {
    name = "layouts";
    lru = (fun t -> t.layouts);
    analyze =
      (fun t ~hash code ->
        let layout = Layout.recover code in
        Stats.add_layout t.stats
          ~slots:(List.length layout.Layout.entries)
          ~unknown:layout.Layout.unknown_ops;
        {
          layout_code_hash = Evm.Hex.encode hash;
          layout;
          layout_from_cache = false;
        });
    hit = Stats.add_layout_cache_hits;
    cached = (fun r -> { r with layout_from_cache = true });
  }

(* Everything a report knows that the classifier can use: full
   recoveries with their types, budget-exhausted partials flagged as
   such (they can lend partial credit, never an exact match), and the
   bare selector of a per-function failure (the dispatcher proved the
   id exists even though TASE crashed on the body). *)
let evidence_of_report report =
  List.filter_map
    (function
      | Recovered { result = r; _ } ->
        Some
          (Classify.evidence ~selector:r.Recover.selector r.Recover.params)
      | Budget_exhausted { partial = r; _ } ->
        Some
          (Classify.evidence ~partial:true ~selector:r.Recover.selector
             r.Recover.params)
      | Failed e when String.length e.selector = 4 ->
        Some (Classify.bare e.selector)
      | Failed _ -> None)
    report.outcomes

let verdict_outcome (v : Classify.verdict) =
  match v.Classify.best with
  | Some r when r.Classify.level = Classify.Exact -> `Exact
  | Some _ -> `Partial
  | None -> `Unknown

(* A cold verdict: the signatures come through the report cache and the
   layout thunk through the layout cache, both under the hash the
   verdict batch already computed — so the classifier pays for the
   storage pass only when the verdict needs the typed-state evidence,
   and at most once per bytecode. *)
let classify_cold t ~hash code =
  let report = run ~hash reports t code in
  let t0_ns = if Tr.enabled () then Tr.now_ns () else 0 in
  let verdict =
    Classify.run
      ~layout:(fun () -> (run ~hash layouts t code).layout)
      ~probe:(Classify.probe_dispatch ~code)
      (evidence_of_report report)
  in
  if Tr.enabled () then
    Tr.complete Tr.Engine "classify" ~t0_ns
      [
        ("code_hash", Tr.Str report.code_hash);
        ("label", Tr.Str (Classify.label verdict));
        ("probes", Tr.Int verdict.Classify.probes_run);
      ];
  Stats.add_classification t.stats ~outcome:(verdict_outcome verdict)
    ~probes:verdict.Classify.probes_run;
  {
    classify_code_hash = report.code_hash;
    verdict;
    classify_from_cache = false;
  }

let verdicts =
  {
    name = "verdicts";
    lru = (fun t -> t.verdicts);
    analyze = classify_cold;
    hit = Stats.add_classify_cache_hits;
    cached = (fun r -> { r with classify_from_cache = true });
  }

let recover t = run reports t
let recover_all t = run_all reports t
let layout t = run layouts t
let layout_all t = run_all layouts t
let classify t = run verdicts t
let classify_all t = run_all verdicts t

(* ---- streaming ------------------------------------------------------ *)

(* Push-style front end over [run_batch]: bytecodes accumulate into a
   bounded buffer, and each full buffer goes through the batch path —
   worker fan-out, in-batch dedup and the product's LRU all apply —
   with the answers handed to the caller in input order. Memory is
   bounded by the batch size, never the corpus: a million-line stream
   holds at most [batch] bytecodes plus whatever the LRU retains.
   Cross-batch duplicates are answered by the cache, so the stream
   exploits chain-scale duplication exactly like one huge batch
   would. *)
module Stream = struct
  type progress = {
    contracts : int;  (** bytecodes fed so far *)
    distinct : int;  (** contracts answered by a fresh analysis *)
    dedup_hits : int;  (** contracts answered from cache / in-batch dedup *)
    elapsed_ns : int;
    rate : float;  (** contracts per second since [start] *)
    heap_mb : float;  (** live major-heap size right now *)
    eta_ns : int option;  (** remaining time at current rate, when the
                              caller declared [expected] *)
  }

  type 'a session = {
    s_product : 'a product;
    s_engine : t;
    s_batch : int;
    s_emit : 'a -> unit;
    s_progress : (progress -> unit) option;
    s_every : int;
    s_expected : int option;
    mutable s_buf : string list; (* newest first *)
    mutable s_len : int;
    mutable s_total : int;
    mutable s_dedup : int;
    mutable s_last_report : int; (* s_total at the last heartbeat *)
    s_t0_ns : int;
  }

  let default_batch = 256

  let start_product p ?(batch = default_batch) ?(progress_every = 1000)
      ?progress ?expected engine ~emit =
    {
      s_product = p;
      s_engine = engine;
      s_batch = Stdlib.max 1 batch;
      s_emit = emit;
      s_progress = progress;
      s_every = Stdlib.max 1 progress_every;
      s_expected = expected;
      s_buf = [];
      s_len = 0;
      s_total = 0;
      s_dedup = 0;
      s_last_report = 0;
      s_t0_ns = Tr.now_ns ();
    }

  let start ?batch ?progress_every ?progress ?expected engine ~emit =
    start_product reports ?batch ?progress_every ?progress ?expected engine
      ~emit

  (* Heartbeats fire at flush boundaries, not per contract: the batch is
     the unit of work, so the rate and heap numbers describe completed
     analyses, and the callback can never observe a half-flushed
     buffer. *)
  let report_progress s report =
    match s.s_progress with
    | Some f when report ->
      s.s_last_report <- s.s_total;
      let elapsed_ns = Stdlib.max 1 (Tr.now_ns () - s.s_t0_ns) in
      let rate = float_of_int s.s_total /. (float_of_int elapsed_ns *. 1e-9) in
      let heap_mb =
        float_of_int ((Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8))
        /. 1048576.0
      in
      let eta_ns =
        match s.s_expected with
        | Some total when total > s.s_total && rate > 0.0 ->
          Some
            (int_of_float (float_of_int (total - s.s_total) /. rate *. 1e9))
        | _ -> None
      in
      f
        {
          contracts = s.s_total;
          distinct = s.s_total - s.s_dedup;
          dedup_hits = s.s_dedup;
          elapsed_ns;
          rate;
          heap_mb;
          eta_ns;
        }
    | _ -> ()

  let flush s =
    if s.s_len > 0 then begin
      let codes = Array.of_list (List.rev s.s_buf) in
      s.s_buf <- [];
      s.s_len <- 0;
      let answers, hits = run_batch s.s_product s.s_engine codes in
      s.s_dedup <- s.s_dedup + hits;
      Stats.add_stream_dedup s.s_engine.stats hits;
      Array.iter s.s_emit answers;
      report_progress s (s.s_total - s.s_last_report >= s.s_every)
    end

  let feed s code =
    s.s_buf <- code :: s.s_buf;
    s.s_len <- s.s_len + 1;
    s.s_total <- s.s_total + 1;
    if s.s_len >= s.s_batch then flush s

  let finish s =
    flush s;
    (* closing heartbeat, so a consumer always sees the final totals
       even when the stream length is not a multiple of the cadence *)
    if s.s_total > s.s_last_report then report_progress s true;
    s.s_total
end

let recover_stream ?batch t codes ~emit =
  let s = Stream.start ?batch t ~emit in
  Seq.iter (Stream.feed s) codes;
  Stream.finish s

let cache_stats t =
  let row p =
    let lru = p.lru t in
    (p.name, Lru.length lru, Lru.capacity lru, Lru.evictions lru)
  in
  Mutex.protect t.lock (fun () -> [ row reports; row layouts; row verdicts ])
