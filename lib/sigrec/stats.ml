module Mx = Sigrec_metrics.Metrics

let rule_names = List.init 31 (fun i -> Printf.sprintf "R%d" (i + 1))

(* The one descriptor list: the registry holds these counters in this
   order (as [sigrec_<key>]), [pp] reads every value it prints through
   them, and [to_json] emits exactly these keys in exactly this order —
   adding a counter here extends every surface at once. *)
let keys =
  [|
    "functions_recovered";
    "paths_explored";
    "forks_pruned";
    "cache_hits";
    "cache_misses";
    "inputs_deduped";
    "cache_evictions";
    "intern_hits";
    "intern_misses";
    "lint_agreements";
    "lint_disagreements";
    "layouts_recovered";
    "layout_slots";
    "layout_unknown_ops";
    "layout_cache_hits";
    "stream_lines";
    "stream_skipped";
    "stream_dedup_hits";
    "classifications";
    "classify_exact";
    "classify_partial";
    "classify_unknown";
    "classify_probes";
    "classify_cache_hits";
  |]

let slot key =
  let rec go i = if keys.(i) = key then i else go (i + 1) in
  go 0

let rule_slots = Hashtbl.create 31
let () = List.iteri (fun i name -> Hashtbl.replace rule_slots name i) rule_names

type t = {
  registry : Mx.registry;
  scalars : Mx.counter array; (* [keys] order *)
  rules : Mx.counter array; (* [rule_names] order *)
}

let create () =
  let registry = Mx.create_registry () in
  let scalars =
    Array.map (fun key -> Mx.counter ~registry ("sigrec_" ^ key)) keys
  in
  let rules =
    Array.of_list
      (List.map
         (fun name ->
           Mx.counter ~registry ~labels:[ ("rule", name) ] "sigrec_rule_fired")
         rule_names)
  in
  { registry; scalars; rules }

let registry t = t.registry
let get t k = Mx.counter_value t.scalars.(k)

(* Accessors resolve their slot once, at module initialisation. *)
let read key =
  let k = slot key in
  fun t -> get t k

let bump key =
  let k = slot key in
  fun t n -> Mx.add t.scalars.(k) n

let hit_rule t name =
  match Hashtbl.find rule_slots name with
  | i -> Mx.inc t.rules.(i)
  | exception Not_found -> invalid_arg ("Stats.hit_rule: unknown rule " ^ name)

let rule_count t name =
  match Hashtbl.find rule_slots name with
  | i -> Mx.counter_value t.rules.(i)
  | exception Not_found -> 0

let rule_counts t = List.map (fun name -> (name, rule_count t name)) rule_names
let unexercised t = List.filter (fun name -> rule_count t name = 0) rule_names
let add_cache_hits = bump "cache_hits"
let cache_miss = let b = bump "cache_misses" in fun t -> b t 1
let cache_hits = read "cache_hits"
let cache_misses = read "cache_misses"
let add_paths = bump "paths_explored"
let paths_explored = read "paths_explored"
let functions_recovered = read "functions_recovered"
let add_functions = bump "functions_recovered"
let add_pruned = bump "forks_pruned"
let forks_pruned = read "forks_pruned"
let lint_agree = let b = bump "lint_agreements" in fun t -> b t 1
let lint_disagree = let b = bump "lint_disagreements" in fun t -> b t 1
let lint_agreements = read "lint_agreements"
let lint_disagreements = read "lint_disagreements"
let add_deduped = bump "inputs_deduped"
let inputs_deduped = read "inputs_deduped"

let add_interner =
  let h = bump "intern_hits" and m = bump "intern_misses" in
  fun t ~hits ~misses ->
    h t hits;
    m t misses

let intern_hits = read "intern_hits"
let intern_misses = read "intern_misses"
let add_evictions = bump "cache_evictions"
let cache_evictions = read "cache_evictions"

let add_layout =
  let n = bump "layouts_recovered"
  and s = bump "layout_slots"
  and u = bump "layout_unknown_ops" in
  fun t ~slots ~unknown ->
    n t 1;
    s t slots;
    u t unknown

let add_stream_lines =
  let l = bump "stream_lines" and s = bump "stream_skipped" in
  fun t ~lines ~skipped ->
    l t lines;
    s t skipped

let add_stream_dedup = bump "stream_dedup_hits"
let stream_lines = read "stream_lines"
let stream_skipped = read "stream_skipped"
let stream_dedup_hits = read "stream_dedup_hits"

let add_classification =
  let n = bump "classifications"
  and e = bump "classify_exact"
  and p = bump "classify_partial"
  and u = bump "classify_unknown"
  and probes = bump "classify_probes" in
  fun t ~outcome ~probes:k ->
    n t 1;
    (match outcome with `Exact -> e | `Partial -> p | `Unknown -> u) t 1;
    probes t k

let add_classify_cache_hits = bump "classify_cache_hits"
let classifications = read "classifications"
let classify_exact = read "classify_exact"
let classify_partial = read "classify_partial"
let classify_unknown = read "classify_unknown"
let classify_probes = read "classify_probes"
let classify_cache_hits = read "classify_cache_hits"
let add_layout_cache_hits = bump "layout_cache_hits"
let layouts_recovered = read "layouts_recovered"
let layout_slots = read "layout_slots"
let layout_unknown_ops = read "layout_unknown_ops"
let layout_cache_hits = read "layout_cache_hits"

let scalar_counters t =
  Array.to_list (Array.mapi (fun k key -> (key, get t k)) keys)

let pp fmt t =
  let v key = get t (slot key) in
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

let to_json t =
  let field (k, v) = Printf.sprintf "\"%s\":%d" k v in
  Printf.sprintf "{\"rules\":{%s},%s}"
    (String.concat "," (List.map field (rule_counts t)))
    (String.concat "," (List.map field (scalar_counters t)))
