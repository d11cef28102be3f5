let rule_names = List.init 31 (fun i -> Printf.sprintf "R%d" (i + 1))

type t = {
  rules : (string, int) Hashtbl.t;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable paths : int;
  mutable functions : int;
  mutable pruned : int;
  mutable lint_agree : int;
  mutable lint_disagree : int;
  mutable deduped : int;
  mutable intern_hits : int;
  mutable intern_misses : int;
  mutable evictions : int;
  mutable layouts : int;
  mutable layout_slots : int;
  mutable layout_unknown : int;
  mutable layout_cache : int;
  mutable stream_lines : int;
  mutable stream_skipped : int;
  mutable stream_dedup : int;
  mutable classifications : int;
  mutable classify_exact : int;
  mutable classify_partial : int;
  mutable classify_unknown : int;
  mutable classify_probes : int;
  mutable classify_cache : int;
}

let create () =
  {
    rules = Hashtbl.create 31;
    cache_hits = 0;
    cache_misses = 0;
    paths = 0;
    functions = 0;
    pruned = 0;
    lint_agree = 0;
    lint_disagree = 0;
    deduped = 0;
    intern_hits = 0;
    intern_misses = 0;
    evictions = 0;
    layouts = 0;
    layout_slots = 0;
    layout_unknown = 0;
    layout_cache = 0;
    stream_lines = 0;
    stream_skipped = 0;
    stream_dedup = 0;
    classifications = 0;
    classify_exact = 0;
    classify_partial = 0;
    classify_unknown = 0;
    classify_probes = 0;
    classify_cache = 0;
  }

let hit_rule t name =
  let cur = Option.value ~default:0 (Hashtbl.find_opt t.rules name) in
  Hashtbl.replace t.rules name (cur + 1)

let rule_count t name =
  Option.value ~default:0 (Hashtbl.find_opt t.rules name)

let rule_counts t = List.map (fun name -> (name, rule_count t name)) rule_names
let unexercised t = List.filter (fun name -> rule_count t name = 0) rule_names

let add_cache_hits t n = t.cache_hits <- t.cache_hits + n
let cache_miss t = t.cache_misses <- t.cache_misses + 1
let cache_hits t = t.cache_hits
let cache_misses t = t.cache_misses
let add_paths t n = t.paths <- t.paths + n
let paths_explored t = t.paths
let functions_recovered t = t.functions
let add_functions t n = t.functions <- t.functions + n
let add_pruned t n = t.pruned <- t.pruned + n
let forks_pruned t = t.pruned
let lint_agree t = t.lint_agree <- t.lint_agree + 1
let lint_disagree t = t.lint_disagree <- t.lint_disagree + 1
let lint_agreements t = t.lint_agree
let lint_disagreements t = t.lint_disagree
let add_deduped t n = t.deduped <- t.deduped + n
let inputs_deduped t = t.deduped

let add_interner t ~hits ~misses =
  t.intern_hits <- t.intern_hits + hits;
  t.intern_misses <- t.intern_misses + misses

let intern_hits t = t.intern_hits
let intern_misses t = t.intern_misses
let add_evictions t n = t.evictions <- t.evictions + n
let cache_evictions t = t.evictions

let add_layout t ~slots ~unknown =
  t.layouts <- t.layouts + 1;
  t.layout_slots <- t.layout_slots + slots;
  t.layout_unknown <- t.layout_unknown + unknown

let add_stream_lines t ~lines ~skipped =
  t.stream_lines <- t.stream_lines + lines;
  t.stream_skipped <- t.stream_skipped + skipped

let add_stream_dedup t n = t.stream_dedup <- t.stream_dedup + n
let stream_lines t = t.stream_lines
let stream_skipped t = t.stream_skipped
let stream_dedup_hits t = t.stream_dedup

let add_classification t ~outcome ~probes =
  t.classifications <- t.classifications + 1;
  (match outcome with
  | `Exact -> t.classify_exact <- t.classify_exact + 1
  | `Partial -> t.classify_partial <- t.classify_partial + 1
  | `Unknown -> t.classify_unknown <- t.classify_unknown + 1);
  t.classify_probes <- t.classify_probes + probes

let add_classify_cache_hits t n = t.classify_cache <- t.classify_cache + n
let classifications t = t.classifications
let classify_exact t = t.classify_exact
let classify_partial t = t.classify_partial
let classify_unknown t = t.classify_unknown
let classify_probes t = t.classify_probes
let classify_cache_hits t = t.classify_cache

let add_layout_cache_hits t n = t.layout_cache <- t.layout_cache + n
let layouts_recovered t = t.layouts
let layout_slots t = t.layout_slots
let layout_unknown_ops t = t.layout_unknown
let layout_cache_hits t = t.layout_cache

let merge_into ~into src =
  List.iter
    (fun name ->
      let n = rule_count src name in
      if n > 0 then
        Hashtbl.replace into.rules name (rule_count into name + n))
    rule_names;
  (* rules outside the canonical numbering (future extensions) *)
  Hashtbl.iter
    (fun name n ->
      if not (List.mem name rule_names) then
        Hashtbl.replace into.rules name (rule_count into name + n))
    src.rules;
  into.cache_hits <- into.cache_hits + src.cache_hits;
  into.cache_misses <- into.cache_misses + src.cache_misses;
  into.paths <- into.paths + src.paths;
  into.functions <- into.functions + src.functions;
  into.pruned <- into.pruned + src.pruned;
  into.lint_agree <- into.lint_agree + src.lint_agree;
  into.lint_disagree <- into.lint_disagree + src.lint_disagree;
  into.deduped <- into.deduped + src.deduped;
  into.intern_hits <- into.intern_hits + src.intern_hits;
  into.intern_misses <- into.intern_misses + src.intern_misses;
  into.evictions <- into.evictions + src.evictions;
  into.layouts <- into.layouts + src.layouts;
  into.layout_slots <- into.layout_slots + src.layout_slots;
  into.layout_unknown <- into.layout_unknown + src.layout_unknown;
  into.layout_cache <- into.layout_cache + src.layout_cache;
  into.stream_lines <- into.stream_lines + src.stream_lines;
  into.stream_skipped <- into.stream_skipped + src.stream_skipped;
  into.stream_dedup <- into.stream_dedup + src.stream_dedup;
  into.classifications <- into.classifications + src.classifications;
  into.classify_exact <- into.classify_exact + src.classify_exact;
  into.classify_partial <- into.classify_partial + src.classify_partial;
  into.classify_unknown <- into.classify_unknown + src.classify_unknown;
  into.classify_probes <- into.classify_probes + src.classify_probes;
  into.classify_cache <- into.classify_cache + src.classify_cache

let merge a b =
  let t = create () in
  merge_into ~into:t a;
  merge_into ~into:t b;
  t

(* The one descriptor list both renderers draw from: [pp] reads every
   value it prints through [scalar], and [to_json] emits exactly these
   keys in exactly this order — adding a counter here extends both
   outputs at once, and forgetting one can't desynchronise them. *)
let scalars : (string * (t -> int)) list =
  [
    ("functions_recovered", fun t -> t.functions);
    ("paths_explored", fun t -> t.paths);
    ("forks_pruned", fun t -> t.pruned);
    ("cache_hits", fun t -> t.cache_hits);
    ("cache_misses", fun t -> t.cache_misses);
    ("inputs_deduped", fun t -> t.deduped);
    ("cache_evictions", fun t -> t.evictions);
    ("intern_hits", fun t -> t.intern_hits);
    ("intern_misses", fun t -> t.intern_misses);
    ("lint_agreements", fun t -> t.lint_agree);
    ("lint_disagreements", fun t -> t.lint_disagree);
    ("layouts_recovered", fun t -> t.layouts);
    ("layout_slots", fun t -> t.layout_slots);
    ("layout_unknown_ops", fun t -> t.layout_unknown);
    ("layout_cache_hits", fun t -> t.layout_cache);
    ("stream_lines", fun t -> t.stream_lines);
    ("stream_skipped", fun t -> t.stream_skipped);
    ("stream_dedup_hits", fun t -> t.stream_dedup);
    ("classifications", fun t -> t.classifications);
    ("classify_exact", fun t -> t.classify_exact);
    ("classify_partial", fun t -> t.classify_partial);
    ("classify_unknown", fun t -> t.classify_unknown);
    ("classify_probes", fun t -> t.classify_probes);
    ("classify_cache_hits", fun t -> t.classify_cache);
  ]

let scalar t key = (List.assoc key scalars) t
let scalar_counters t = List.map (fun (key, get) -> (key, get t)) scalars

let pp fmt t =
  let v key = scalar t key in
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun (name, n) ->
      if n > 0 then Format.fprintf fmt "%-4s %d@," name n)
    (rule_counts t);
  Format.fprintf fmt "functions recovered: %d@," (v "functions_recovered");
  Format.fprintf fmt "paths explored: %d@," (v "paths_explored");
  if v "forks_pruned" > 0 then
    Format.fprintf fmt "forks pruned statically: %d@," (v "forks_pruned");
  if v "lint_agreements" + v "lint_disagreements" > 0 then
    Format.fprintf fmt "lint: %d agree / %d disagree@," (v "lint_agreements")
      (v "lint_disagreements");
  let total = v "cache_hits" + v "cache_misses" in
  if total > 0 then
    Format.fprintf fmt "cache: %d hits / %d misses (%.1f%% hit rate)@,"
      (v "cache_hits") (v "cache_misses")
      (100.0 *. float_of_int (v "cache_hits") /. float_of_int total);
  if v "inputs_deduped" > 0 then
    Format.fprintf fmt "batch inputs deduplicated: %d@," (v "inputs_deduped");
  if v "cache_evictions" > 0 then
    Format.fprintf fmt "cache evictions: %d@," (v "cache_evictions");
  let itotal = v "intern_hits" + v "intern_misses" in
  if itotal > 0 then
    Format.fprintf fmt "interner: %d hits / %d misses (%.1f%% hit rate)@,"
      (v "intern_hits") (v "intern_misses")
      (100.0 *. float_of_int (v "intern_hits") /. float_of_int itotal);
  if v "layouts_recovered" + v "layout_cache_hits" > 0 then
    Format.fprintf fmt
      "layouts: %d recovered, %d slots (%d unresolved ops), %d cache hits@,"
      (v "layouts_recovered") (v "layout_slots") (v "layout_unknown_ops")
      (v "layout_cache_hits");
  if v "stream_lines" > 0 then
    Format.fprintf fmt "stream: %d lines (%d skipped, %d dedup hits)@,"
      (v "stream_lines") (v "stream_skipped") (v "stream_dedup_hits");
  if v "classifications" + v "classify_cache_hits" > 0 then
    Format.fprintf fmt
      "classify: %d verdicts (%d exact / %d partial / %d unknown), %d \
       probes, %d cache hits@,"
      (v "classifications") (v "classify_exact") (v "classify_partial")
      (v "classify_unknown") (v "classify_probes")
      (v "classify_cache_hits");
  Format.fprintf fmt "@]"

(* The third renderer off the same descriptor list: an OpenMetrics
   exposition chunk, so the metrics registry absorbs every stats
   counter (and the per-rule counts as one labelled family) without a
   second list to keep in sync. *)
let to_openmetrics ?(prefix = "sigrec_") t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (key, get) ->
      let name = prefix ^ key in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n" name);
      Buffer.add_string buf
        (Printf.sprintf "%s_total %d\n" name (get t)))
    scalars;
  let rule_family = prefix ^ "rule_fired" in
  Buffer.add_string buf
    (Printf.sprintf "# TYPE %s counter\n" rule_family);
  List.iter
    (fun (name, n) ->
      Buffer.add_string buf
        (Printf.sprintf "%s_total{rule=\"%s\"} %d\n" rule_family name n))
    (rule_counts t);
  Buffer.contents buf

let to_json t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\"rules\":{";
  List.iteri
    (fun i (name, n) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\"%s\":%d" name n))
    (rule_counts t);
  (* rules outside the canonical numbering, if any, in sorted order *)
  let extras =
    Hashtbl.fold
      (fun name n acc ->
        if List.mem name rule_names then acc else (name, n) :: acc)
      t.rules []
    |> List.sort compare
  in
  List.iter
    (fun (name, n) ->
      Buffer.add_string buf (Printf.sprintf ",\"%s\":%d" name n))
    extras;
  Buffer.add_char buf '}';
  List.iter
    (fun (key, get) ->
      Buffer.add_string buf (Printf.sprintf ",\"%s\":%d" key (get t)))
    scalars;
  Buffer.add_char buf '}';
  Buffer.contents buf
