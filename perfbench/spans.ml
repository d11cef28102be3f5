(* Bench-side spans: kept in memory, reduced at the end.

   A span records its kind, the contract or request it works for, its
   parent, and clock and minor-heap readings at both ends. Spans nest
   strictly (the replay is sequential), so a span's self time is its
   duration minus its direct children's durations. Two kinds are not
   program work: [Calib] marks a measurement-only run, and [Overhead]
   a synthetic child standing for work a real call repeats only
   because the replay already did it once (its duration is that of a
   calibration run of the same work). Both are removed from the
   replay's wall time, so [trace.coverage] compares layer time with
   the time the program's own work took. *)

type kind =
  | Input
  | Keccak
  | Engine
  | Lift
  | Absint_contract
  | Absint_entry
  | Symex
  | Rules
  | Layout
  | Classify
  | Render
  | Serve
  | Callback  (** replay glue around one input line: not a layer *)
  | Calib
  | Overhead

let kinds =
  [|
    Input; Keccak; Engine; Lift; Absint_contract; Absint_entry; Symex; Rules;
    Layout; Classify; Render; Serve; Callback; Calib; Overhead;
  |]

let index = function
  | Input -> 0
  | Keccak -> 1
  | Engine -> 2
  | Lift -> 3
  | Absint_contract -> 4
  | Absint_entry -> 5
  | Symex -> 6
  | Rules -> 7
  | Layout -> 8
  | Classify -> 9
  | Render -> 10
  | Serve -> 11
  | Callback -> 12
  | Calib -> 13
  | Overhead -> 14

let is_layer = function
  | Callback | Calib | Overhead -> false
  | _ -> true

(* Analysis layers: the lift-to-last-function time of one contract. *)
let is_analysis = function
  | Lift | Absint_contract | Absint_entry | Symex | Rules -> true
  | _ -> false

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let words () = int_of_float (Gc.minor_words ())

(* One flat int array, [stride] slots per span, so recording a span
   touches one cache line rather than one per field. *)
let stride = 8
let f_kind = 0
let f_id = 1
let f_parent = 2
let f_t0 = 3
let f_t1 = 4
let f_w0 = 5
let f_w1 = 6

type t = { mutable a : int array; mutable n : int; mutable current : int }

let create () = { a = Array.make (stride * 65536) 0; n = 0; current = -1 }
let get t i f = Array.unsafe_get t.a ((i * stride) + f)
let set t i f v = Array.unsafe_set t.a ((i * stride) + f) v
let parent t i = get t i f_parent

let push t ~parent kind ~id =
  if (t.n + 1) * stride > Array.length t.a then begin
    let b = Array.make (2 * Array.length t.a) 0 in
    Array.blit t.a 0 b 0 (t.n * stride);
    t.a <- b
  end;
  let i = t.n in
  t.n <- i + 1;
  set t i f_kind (index kind);
  set t i f_id id;
  set t i f_parent parent;
  i

let enter t kind ~id =
  let i = push t ~parent:t.current kind ~id in
  t.current <- i;
  set t i f_w0 (words ());
  set t i f_t0 (now_ns ());
  i

let leave t i =
  set t i f_t1 (now_ns ());
  set t i f_w1 (words ());
  t.current <- get t i f_parent

let span t kind ~id f =
  let i = enter t kind ~id in
  match f () with
  | v ->
    leave t i;
    v
  | exception e ->
    leave t i;
    raise e

let duration t i = get t i f_t1 - get t i f_t0
let allocated t i = get t i f_w1 - get t i f_w0

(* A measurement-only run of [f] as a [Calib] span; returns its
   duration. *)
let calib t ~id f =
  let i = enter t Calib ~id in
  f ();
  leave t i;
  duration t i

(* A child of the open span that covers [dur] ns of its interval
   without a clock reading of its own. *)
let synthetic t kind ~id ~dur =
  let i = push t ~parent:t.current kind ~id in
  set t i f_t0 0;
  set t i f_t1 dur;
  set t i f_w0 0;
  set t i f_w1 0

(* Per-span self time and self words: duration minus the direct
   children's. *)
let self t =
  let st = Array.init t.n (duration t) in
  let sw = Array.init t.n (allocated t) in
  for i = 0 to t.n - 1 do
    let p = parent t i in
    if p >= 0 then begin
      st.(p) <- st.(p) - duration t i;
      sw.(p) <- sw.(p) - allocated t i
    end
  done;
  (st, sw)

type totals = {
  self_ns : int array;  (** by kind index *)
  self_words : int array;
  excluded_ns : int;  (** [Calib] and [Overhead] durations *)
  analysis_ns : (int, int) Hashtbl.t;  (** contract id -> analysis self time *)
}

let totals t =
  let st, sw = self t in
  let nk = Array.length kinds in
  let self_ns = Array.make nk 0 and self_words = Array.make nk 0 in
  let excluded = ref 0 in
  let analysis = Hashtbl.create 1024 in
  for i = 0 to t.n - 1 do
    let k = get t i f_kind in
    self_ns.(k) <- self_ns.(k) + st.(i);
    self_words.(k) <- self_words.(k) + sw.(i);
    (match kinds.(k) with
    | Calib | Overhead -> excluded := !excluded + duration t i
    | _ -> ());
    if is_analysis kinds.(k) then begin
      let id = get t i f_id in
      Hashtbl.replace analysis id
        (st.(i) + Option.value ~default:0 (Hashtbl.find_opt analysis id))
    end
  done;
  { self_ns; self_words; excluded_ns = !excluded; analysis_ns = analysis }
