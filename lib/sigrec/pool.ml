(* Process-wide pool of worker domains.

   [Engine.recover_all] used to spawn fresh domains for every batch and
   join them at the end; at sub-second batch sizes the spawn cost (and
   each new domain rebuilding its expression interner from cold)
   dominated the fan-out and made jobs>=2 *slower* than sequential. The
   pool spawns a worker domain once and keeps it alive, interner
   included, for the life of the process — so a resident [sigrec serve]
   daemon (or a test suite, or a bench loop) pays the spawn and warm-up
   cost once, not per batch.

   The pool is deliberately global rather than per-engine: OCaml caps
   live domains (Domain.spawn fails past ~128), and engines are cheap
   enough that test suites create hundreds. Workers are generic — they
   run closures — so any number of engines share them safely. *)

module Tr = Sigrec_trace.Trace
module Mx = Sigrec_metrics.Metrics

let max_workers = 30 (* hard cap, well under the runtime's domain limit *)

type batch = {
  bm : Mutex.t;
  bcv : Condition.t;
  mutable remaining : int;
  mutable failed : exn option; (* first task exception, re-raised by await *)
  submitted_ns : int; (* for the hand-off histogram; 0 when metrics off *)
}

type task = {
  run : unit -> unit;
  batch : batch;
  queued_ns : int; (* push time; 0 when metrics off *)
}

(* Health histograms for the resident-service story: how long tasks
   sit in the queue before a worker picks them up, and how long a full
   submit→await round trip takes (hand-off plus the work itself).
   Created lazily so a process that never enables metrics never builds
   them. *)
let queue_wait_hist =
  lazy
    (Mx.histogram
       ~help:"time a pool task waits in the queue before a worker dequeues it"
       "sigrec_pool_queue_wait_seconds")

let handoff_hist =
  lazy
    (Mx.histogram
       ~help:"pool submit-to-await round trip, including task run time"
       "sigrec_pool_handoff_seconds")

let lock = Mutex.create ()
let work_available = Condition.create ()
let queue : task Queue.t = Queue.create ()
let worker_count = ref 0

let workers () = Mutex.protect lock (fun () -> !worker_count)

let rec worker_main () =
  Mutex.lock lock;
  while Queue.is_empty queue do
    Condition.wait work_available lock
  done;
  let task = Queue.pop queue in
  Mutex.unlock lock;
  if task.queued_ns <> 0 && Mx.enabled () then
    Mx.observe (Lazy.force queue_wait_hist) (Tr.now_ns () - task.queued_ns);
  (try task.run ()
   with e ->
     Mutex.lock task.batch.bm;
     if task.batch.failed = None then task.batch.failed <- Some e;
     Mutex.unlock task.batch.bm);
  Mutex.lock task.batch.bm;
  task.batch.remaining <- task.batch.remaining - 1;
  if task.batch.remaining = 0 then Condition.broadcast task.batch.bcv;
  Mutex.unlock task.batch.bm;
  worker_main ()

(* Grow the pool to [n] workers (within the cap). Safe to call from any
   domain; spawning happens outside the pool lock so running workers
   keep draining the queue meanwhile. *)
let ensure n =
  let target = Stdlib.min n max_workers in
  let missing =
    Mutex.protect lock (fun () ->
        let missing = target - !worker_count in
        if missing > 0 then worker_count := target;
        missing)
  in
  (* workers live for the rest of the process; their Domain.t handles
     are never joined, so don't keep them *)
  for _ = 1 to missing do
    ignore (Domain.spawn worker_main : unit Domain.t)
  done

let submit tasks =
  let now = if Mx.enabled () then Tr.now_ns () else 0 in
  match tasks with
  | [] ->
    {
      bm = Mutex.create ();
      bcv = Condition.create ();
      remaining = 0;
      failed = None;
      submitted_ns = now;
    }
  | _ ->
    let batch =
      {
        bm = Mutex.create ();
        bcv = Condition.create ();
        remaining = List.length tasks;
        failed = None;
        submitted_ns = now;
      }
    in
    Mutex.protect lock (fun () ->
        List.iter
          (fun run -> Queue.push { run; batch; queued_ns = now } queue)
          tasks;
        Condition.broadcast work_available);
    batch

let await batch =
  Mutex.lock batch.bm;
  while batch.remaining > 0 do
    Condition.wait batch.bcv batch.bm
  done;
  let failed = batch.failed in
  Mutex.unlock batch.bm;
  if batch.submitted_ns <> 0 && Mx.enabled () then
    Mx.observe (Lazy.force handoff_hist) (Tr.now_ns () - batch.submitted_ns);
  match failed with Some e -> raise e | None -> ()
