type phase = Engine | Lift | Absint | Symex | Rules | Lint | Layout | Bench

let phase_name = function
  | Engine -> "engine"
  | Lift -> "lift"
  | Absint -> "absint"
  | Symex -> "symex"
  | Rules -> "rules"
  | Lint -> "lint"
  | Layout -> "layout"
  | Bench -> "bench"

type value = Int of int | Str of string | Bool of bool | Float of float
type arg = string * value
type kind = Complete | Instant | Counter

type event = {
  ts_ns : int;
  dur_ns : int;
  dom : int;
  phase : phase;
  name : string;
  kind : kind;
  args : arg list;
}

type config = { capacity : int; sample_every : int }

let default_config = { capacity = 65536; sample_every = 1024 }

(* -- global switches ------------------------------------------------- *)

(* Two consumers share the span instrumentation: the ring buffers
   (tracing proper, gated by [on]) and an optional span-close observer
   (the metrics layer's histogram feed). [active] caches their
   disjunction so the hot-path guard stays a single atomic load
   whichever combination is live. *)
let on = Atomic.make false

let observer : (phase -> string -> int -> unit) option Atomic.t =
  Atomic.make None

let active = Atomic.make false

let refresh_active () =
  Atomic.set active (Atomic.get on || Atomic.get observer <> None)

let enabled () = Atomic.get active
let recording () = Atomic.get on

let set_observer f =
  Atomic.set observer f;
  refresh_active ()

(* Plain (non-atomic) reads: a torn read of an immutable int is
   impossible, and these only change under [enable]. *)
let capacity = ref default_config.capacity
let mask = ref (default_config.sample_every - 1)
let sample_mask () = !mask

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* -- per-domain ring buffers ------------------------------------------ *)

let dummy =
  {
    ts_ns = 0;
    dur_ns = 0;
    dom = 0;
    phase = Engine;
    name = "";
    kind = Instant;
    args = [];
  }

type buffer = {
  dom_id : int;
  mutable ring : event array;
  mutable next : int; (* monotone write count; slot = next mod capacity *)
  mutable lost : int;
}

let registry : buffer list ref = ref []
let registry_lock = Mutex.create ()

let make_buffer () =
  let b =
    {
      dom_id = (Domain.self () :> int);
      ring = Array.make !capacity dummy;
      next = 0;
      lost = 0;
    }
  in
  Mutex.protect registry_lock (fun () -> registry := b :: !registry);
  b

let key = Domain.DLS.new_key make_buffer
let buffer () = Domain.DLS.get key

let push b ev =
  let cap = Array.length b.ring in
  if b.next >= cap then b.lost <- b.lost + 1;
  b.ring.(b.next mod cap) <- ev;
  b.next <- b.next + 1

let record phase name kind ~ts ~dur args =
  let b = buffer () in
  push b
    { ts_ns = ts; dur_ns = dur; dom = b.dom_id; phase; name; kind; args }

(* -- emission --------------------------------------------------------- *)

(* Instants and counters only exist for the rings, so they gate on
   [recording]: with just the observer live, the probe costs the same
   two loads and still allocates nothing. *)
let instant phase name args =
  if recording () then record phase name Instant ~ts:(now_ns ()) ~dur:0 args

let counter phase name v =
  if recording () then
    record phase name Counter ~ts:(now_ns ()) ~dur:0 [ (name, Int v) ]

(* One clock reading serves the ring and the observer, so a span's ring
   duration and its histogram observation are the same integer. *)
let complete phase name ~t0_ns ?(t1_ns = now_ns ()) args =
  let dur = t1_ns - t0_ns in
  if recording () then record phase name Complete ~ts:t0_ns ~dur args;
  match Atomic.get observer with Some f -> f phase name dur | None -> ()

(* -- control and collection ------------------------------------------- *)

let reset_buffer b =
  if Array.length b.ring <> !capacity then b.ring <- Array.make !capacity dummy;
  b.next <- 0;
  b.lost <- 0

let reset () =
  Mutex.protect registry_lock (fun () -> List.iter reset_buffer !registry)

let enable ?(config = default_config) () =
  capacity := Stdlib.max 16 config.capacity;
  let rec pow2 n = if n >= config.sample_every then n else pow2 (2 * n) in
  mask := pow2 1 - 1;
  reset ();
  Atomic.set on true;
  refresh_active ()

let disable () =
  Atomic.set on false;
  refresh_active ()

let buffer_events b =
  let cap = Array.length b.ring in
  let first = if b.next > cap then b.next - cap else 0 in
  List.init (b.next - first) (fun i -> b.ring.((first + i) mod cap))

let collect () =
  let buffers = Mutex.protect registry_lock (fun () -> !registry) in
  List.concat_map buffer_events buffers
  |> List.stable_sort (fun a b -> Int.compare a.ts_ns b.ts_ns)

let dropped () =
  let buffers = Mutex.protect registry_lock (fun () -> !registry) in
  List.fold_left (fun acc b -> acc + b.lost) 0 buffers
