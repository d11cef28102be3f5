module Tr = Sigrec_trace.Trace

(* -- the global switch ------------------------------------------------ *)

let on = Atomic.make false
let enabled () = Atomic.get on

(* -- histogram shards -------------------------------------------------- *)

(* One shard per (histogram, domain): a fixed counts array (one slot
   per bound plus overflow) and int sum/count. All fields are
   immediates, so concurrent snapshot reads are racy-but-sound exactly
   like the trace rings: no tearing, no locks on the write path. *)
type shard = {
  s_counts : int array;
  mutable s_sum : int;
  mutable s_count : int;
}

type histogram = {
  h_name : string;
  h_help : string;
  h_labels : (string * string) list;
  h_bounds : int array; (* ascending upper bounds *)
  h_scale : float;
  h_lock : Mutex.t; (* guards h_shards *)
  h_shards : shard list ref;
  h_key : shard Domain.DLS.key;
}

type counter = {
  c_name : string;
  c_help : string;
  c_labels : (string * string) list;
  c_v : int Atomic.t;
}

type gauge = {
  g_name : string;
  g_help : string;
  g_labels : (string * string) list;
  g_cell : float array; (* one slot: unboxed float store *)
}

type metric = MC of counter | MG of gauge | MH of histogram

type registry = {
  r_lock : Mutex.t;
  mutable r_metrics : metric list; (* newest first *)
}

let create_registry () = { r_lock = Mutex.create (); r_metrics = [] }

let default = create_registry ()

(* -- bucket schemes ---------------------------------------------------- *)

let log_buckets ~base ~lo ~count =
  let b = Array.make count lo in
  for i = 1 to count - 1 do
    b.(i) <- b.(i - 1) * base
  done;
  b

(* 1 µs … ~67 s in powers of 4: one cache line of counts per shard,
   and still a distinct bucket for a dispatcher probe (µs), a typical
   function analysis (ms) and an adversarial symex tail (s). *)
let default_latency_buckets = log_buckets ~base:4 ~lo:1_000 ~count:14

(* -- find-or-create ---------------------------------------------------- *)

(* The DLS initializer only needs the shard list and its lock, both of
   which exist before the record: a domain's first observe creates its
   shard and registers it, exactly like a trace ring buffer. *)
let make_histogram name help labels bounds scale =
  let nb = Array.length bounds + 1 in
  let lock = Mutex.create () in
  let shards = ref [] in
  let key =
    Domain.DLS.new_key (fun () ->
        let s = { s_counts = Array.make nb 0; s_sum = 0; s_count = 0 } in
        Mutex.protect lock (fun () -> shards := s :: !shards);
        s)
  in
  {
    h_name = name;
    h_help = help;
    h_labels = labels;
    h_bounds = bounds;
    h_scale = scale;
    h_lock = lock;
    h_shards = shards;
    h_key = key;
  }

let find_or_create reg key make =
  Mutex.protect reg.r_lock (fun () ->
      let found =
        List.find_map
          (fun m -> match key m with Some v -> Some v | None -> None)
          reg.r_metrics
      in
      match found with
      | Some v -> v
      | None ->
        let m, v = make () in
        reg.r_metrics <- m :: reg.r_metrics;
        v)

let counter ?(registry = default) ?(help = "") ?(labels = []) name =
  find_or_create registry
    (function
      | MC c when c.c_name = name && c.c_labels = labels -> Some c
      | _ -> None)
    (fun () ->
      let c =
        { c_name = name; c_help = help; c_labels = labels; c_v = Atomic.make 0 }
      in
      (MC c, c))

let gauge ?(registry = default) ?(help = "") ?(labels = []) name =
  find_or_create registry
    (function
      | MG g when g.g_name = name && g.g_labels = labels -> Some g
      | _ -> None)
    (fun () ->
      let g =
        {
          g_name = name;
          g_help = help;
          g_labels = labels;
          g_cell = Array.make 1 0.0;
        }
      in
      (MG g, g))

let histogram ?(registry = default) ?(help = "") ?(labels = [])
    ?(buckets = default_latency_buckets) ?(scale = 1e-9) name =
  find_or_create registry
    (function
      | MH h when h.h_name = name && h.h_labels = labels -> Some h
      | _ -> None)
    (fun () ->
      let h = make_histogram name help labels buckets scale in
      (MH h, h))

(* -- write paths -------------------------------------------------------- *)

let inc c = ignore (Atomic.fetch_and_add c.c_v 1 : int)
let add c n = ignore (Atomic.fetch_and_add c.c_v n : int)
let counter_value c = Atomic.get c.c_v
let set_gauge g v = g.g_cell.(0) <- v

(* Tail-recursive bound scan on immediates: no ref cell, no closure —
   the whole observe path allocates nothing (the shard itself is
   created once per domain by the DLS initializer). *)
let rec bucket_index bounds n v i =
  if i < n && v > Array.unsafe_get bounds i then bucket_index bounds n v (i + 1)
  else i

let observe h v =
  let s = Domain.DLS.get h.h_key in
  let i = bucket_index h.h_bounds (Array.length h.h_bounds) v 0 in
  let c = s.s_counts in
  Array.unsafe_set c i (Array.unsafe_get c i + 1);
  s.s_sum <- s.s_sum + v;
  s.s_count <- s.s_count + 1

(* -- snapshots ---------------------------------------------------------- *)

type hist_snapshot = {
  bounds : int array;
  buckets : int array;
  sum : int;
  count : int;
}

let shards_of h = Mutex.protect h.h_lock (fun () -> !(h.h_shards))

let snapshot h =
  let nb = Array.length h.h_bounds + 1 in
  let buckets = Array.make nb 0 in
  let sum = ref 0 and count = ref 0 in
  List.iter
    (fun s ->
      for i = 0 to nb - 1 do
        buckets.(i) <- buckets.(i) + s.s_counts.(i)
      done;
      sum := !sum + s.s_sum;
      count := !count + s.s_count)
    (shards_of h);
  { bounds = Array.copy h.h_bounds; buckets; sum = !sum; count = !count }

let merge_snapshots a b =
  if a.bounds <> b.bounds then
    invalid_arg "Metrics.merge_snapshots: bucket bounds differ";
  {
    bounds = a.bounds;
    buckets = Array.mapi (fun i v -> v + b.buckets.(i)) a.buckets;
    sum = a.sum + b.sum;
    count = a.count + b.count;
  }

let quantile_scaled s q scale =
  if s.count = 0 then nan
  else begin
    let rank =
      Stdlib.max 1
        (int_of_float (Float.ceil (q *. float_of_int s.count)))
    in
    let nb = Array.length s.buckets in
    let rec go i cum =
      if i >= nb then infinity
      else
        let cum = cum + s.buckets.(i) in
        if cum >= rank then
          if i < Array.length s.bounds then
            float_of_int s.bounds.(i) *. scale
          else infinity
        else go (i + 1) cum
    in
    go 0 0
  end

(* Snapshots carry no scale of their own; {!quantile} answers in the
   conventional 1e-9 (ns → s) unit, and the bench reads scaled values
   through {!histograms}. *)
let quantile s q = quantile_scaled s q 1e-9

let metrics_in_order reg =
  Mutex.protect reg.r_lock (fun () -> List.rev reg.r_metrics)

let histograms ?(registry = default) () =
  List.filter_map
    (function
      | MH h -> Some (h.h_name, h.h_labels, h.h_scale, snapshot h)
      | _ -> None)
    (metrics_in_order registry)

(* -- reset -------------------------------------------------------------- *)

let reset ?(registry = default) () =
  List.iter
    (function
      | MC c -> Atomic.set c.c_v 0
      | MG g -> g.g_cell.(0) <- 0.0
      | MH h ->
        List.iter
          (fun s ->
            Array.fill s.s_counts 0 (Array.length s.s_counts) 0;
            s.s_sum <- 0;
            s.s_count <- 0)
          (shards_of h))
    (metrics_in_order registry)

(* -- exposition --------------------------------------------------------- *)

let escape_label v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (function
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let labels_str labels =
  match labels with
  | [] -> ""
  | _ ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> k ^ "=\"" ^ escape_label v ^ "\"") labels)
    ^ "}"

let fmt_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let family = function MC c -> c.c_name | MG g -> g.g_name | MH h -> h.h_name

let render_header buf m =
  let mtype, help =
    match m with
    | MC c -> ("counter", c.c_help)
    | MG g -> ("gauge", g.g_help)
    | MH h -> ("histogram", h.h_help)
  in
  if help <> "" then
    Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" (family m) help);
  Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" (family m) mtype)

let render_samples buf = function
  | MC c ->
    Buffer.add_string buf
      (Printf.sprintf "%s_total%s %d\n" c.c_name (labels_str c.c_labels)
         (Atomic.get c.c_v))
  | MG g ->
    Buffer.add_string buf
      (Printf.sprintf "%s%s %s\n" g.g_name (labels_str g.g_labels)
         (fmt_float g.g_cell.(0)))
  | MH h ->
    let s = snapshot h in
    let cum = ref 0 in
    Array.iteri
      (fun i n ->
        cum := !cum + n;
        let le =
          if i < Array.length s.bounds then
            Printf.sprintf "%g" (float_of_int s.bounds.(i) *. h.h_scale)
          else "+Inf"
        in
        Buffer.add_string buf
          (Printf.sprintf "%s_bucket%s %d\n" h.h_name
             (labels_str (h.h_labels @ [ ("le", le) ]))
             !cum))
      s.buckets;
    Buffer.add_string buf
      (Printf.sprintf "%s_sum%s %s\n" h.h_name (labels_str h.h_labels)
         (fmt_float (float_of_int s.sum *. h.h_scale)));
    Buffer.add_string buf
      (Printf.sprintf "%s_count%s %d\n" h.h_name (labels_str h.h_labels)
         s.count)

(* A family's samples must be contiguous, but its members are created
   on demand (a phase histogram per new span name, a gauge per cache),
   interleaved with other families: render families in order of their
   first member, each with all of its members. *)
let expose registries =
  let buf = Buffer.create 4096 in
  let rec render = function
    | [] -> ()
    | m :: _ as metrics ->
      let mine, rest =
        List.partition (fun m' -> family m' = family m) metrics
      in
      render_header buf m;
      List.iter (render_samples buf) mine;
      render rest
  in
  render (List.concat_map metrics_in_order registries);
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

(* -- GC gauges ---------------------------------------------------------- *)

let sample_gc () =
  let st = Gc.quick_stat () in
  let g name help = gauge ~help name in
  set_gauge
    (g "sigrec_gc_minor_words" "cumulative minor-heap words allocated")
    st.Gc.minor_words;
  set_gauge
    (g "sigrec_gc_major_words" "cumulative major-heap words allocated")
    st.Gc.major_words;
  set_gauge
    (g "sigrec_gc_compactions" "heap compactions since program start")
    (float_of_int st.Gc.compactions);
  set_gauge
    (g "sigrec_gc_heap_bytes" "major-heap size in bytes")
    (float_of_int (st.Gc.heap_words * (Sys.word_size / 8)));
  set_gauge
    (g "sigrec_gc_top_heap_bytes" "peak major-heap size in bytes")
    (float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)))

(* -- per-phase span histograms (the trace observer) --------------------- *)

let phase_index = function
  | Tr.Engine -> 0
  | Tr.Lift -> 1
  | Tr.Absint -> 2
  | Tr.Symex -> 3
  | Tr.Rules -> 4
  | Tr.Lint -> 5
  | Tr.Layout -> 6
  | Tr.Bench -> 7

(* Domain-local memo from span name to histogram, one table per phase:
   the common case (span seen before on this domain) is a lock-free,
   allocation-free Hashtbl read; the miss path does the locked registry
   find-or-create once and caches the result. *)
let span_memo_key :
    (string, histogram) Hashtbl.t array Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      Array.init 8 (fun _ -> Hashtbl.create 8))

let span_histogram phase name =
  let memo = (Domain.DLS.get span_memo_key).(phase_index phase) in
  match Hashtbl.find memo name with
  | h -> h
  | exception Not_found ->
    let h =
      histogram
        ~help:"wall time of pipeline spans, by phase and span name"
        ~labels:[ ("phase", Tr.phase_name phase); ("span", name) ]
        "sigrec_phase_duration_seconds"
    in
    Hashtbl.replace memo name h;
    h

let span_observer phase name dur_ns =
  if Atomic.get on then observe (span_histogram phase name) dur_ns

let enable () =
  Atomic.set on true;
  Tr.set_observer (Some span_observer)

let disable () =
  Atomic.set on false;
  Tr.set_observer None

(* -- top-K slowest ------------------------------------------------------ *)

module Top = struct
  type entry = {
    key : string;
    elapsed_ns : int;
    detail : (string * int) list;
  }

  let capacity = 16
  let lock = Mutex.create ()
  let entries : entry list ref = ref [] (* slowest first, <= capacity *)

  let record ~key ~elapsed_ns ~detail =
    Mutex.protect lock (fun () ->
        let e =
          match List.find_opt (fun e -> e.key = key) !entries with
          | Some p when p.elapsed_ns >= elapsed_ns -> p
          | _ -> { key; elapsed_ns; detail }
        in
        let rest = List.filter (fun x -> x.key <> key) !entries in
        let merged =
          List.stable_sort
            (fun a b -> compare b.elapsed_ns a.elapsed_ns)
            (e :: rest)
        in
        entries := List.filteri (fun i _ -> i < capacity) merged)

  let slowest () = Mutex.protect lock (fun () -> !entries)
  let reset () = Mutex.protect lock (fun () -> entries := [])
end
