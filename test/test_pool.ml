(* The persistent worker-domain pool, exercised directly: the engine
   clamps its fan-out to the hardware domain count, so on a one-core CI
   machine [Engine.recover_all] never reaches the pooled path — these
   cases cover the cross-domain machinery regardless of core count. *)

module Pool = Sigrec.Pool

let test_submit_runs_on_pool () =
  Pool.ensure 1;
  Alcotest.(check bool) "at least one worker" true (Pool.workers () >= 1);
  let self = Domain.self () in
  let ran_on = Atomic.make None in
  let counter = Atomic.make 0 in
  let batch =
    Pool.submit
      [
        (fun () ->
          Atomic.set ran_on (Some (Domain.self ()));
          Atomic.incr counter);
        (fun () -> Atomic.incr counter);
        (fun () -> Atomic.incr counter);
      ]
  in
  Pool.await batch;
  Alcotest.(check int) "all tasks ran" 3 (Atomic.get counter);
  (match Atomic.get ran_on with
  | None -> Alcotest.fail "task never recorded its domain"
  | Some d ->
    Alcotest.(check bool)
      "ran on a worker domain, not the caller" true (d <> self))

let test_await_reraises () =
  Pool.ensure 1;
  let survivor = Atomic.make false in
  let batch =
    Pool.submit
      [ (fun () -> failwith "boom"); (fun () -> Atomic.set survivor true) ]
  in
  (try
     Pool.await batch;
     Alcotest.fail "await should re-raise the task exception"
   with Failure msg -> Alcotest.(check string) "message" "boom" msg);
  Alcotest.(check bool)
    "other tasks of the batch still completed" true (Atomic.get survivor)

let test_pool_survives_failure () =
  (* a raising task must not kill its worker: the next batch still runs *)
  let batch = Pool.submit [ (fun () -> failwith "again") ] in
  (try Pool.await batch with Failure _ -> ());
  let ok = Atomic.make false in
  Pool.await (Pool.submit [ (fun () -> Atomic.set ok true) ]);
  Alcotest.(check bool) "pool alive after task failure" true (Atomic.get ok)

let test_ensure_is_monotone_and_capped () =
  Pool.ensure 1;
  let before = Pool.workers () in
  Pool.ensure 0;
  Pool.ensure (-3);
  Alcotest.(check int) "ensure never shrinks" before (Pool.workers ());
  Pool.ensure (Pool.max_workers + 100);
  Alcotest.(check bool)
    "capped at max_workers" true
    (Pool.workers () <= Pool.max_workers)

let test_worker_interner_adopted () =
  (* each worker interns into its own domain-local table, so building
     the same expression on a pooled domain yields a structurally equal
     (and locally hash-consed) node that renders the same *)
  Pool.ensure 1;
  let open Symex in
  let mk () = Sexpr.bin Sexpr.Badd (Sexpr.cdload 4) (Sexpr.of_int 32) in
  let e = mk () in
  let worker_repr = ref "" in
  Pool.await
    (Pool.submit
       [ (fun () -> worker_repr := Format.asprintf "%a" Sexpr.pp (mk ())) ]);
  Alcotest.(check string)
    "same rendering across domains"
    (Format.asprintf "%a" Sexpr.pp e)
    !worker_repr

let test_many_small_batches () =
  Pool.ensure 2;
  let total = Atomic.make 0 in
  for _ = 1 to 50 do
    Pool.await
      (Pool.submit [ (fun () -> Atomic.incr total); (fun () -> Atomic.incr total) ])
  done;
  Alcotest.(check int) "every task of every batch ran" 100 (Atomic.get total)

let suite =
  [
    Alcotest.test_case "submit runs on a worker domain" `Quick
      test_submit_runs_on_pool;
    Alcotest.test_case "await re-raises task exceptions" `Quick
      test_await_reraises;
    Alcotest.test_case "pool survives a failing task" `Quick
      test_pool_survives_failure;
    Alcotest.test_case "ensure is monotone and capped" `Quick
      test_ensure_is_monotone_and_capped;
    Alcotest.test_case "worker interner adopted from snapshot" `Quick
      test_worker_interner_adopted;
    Alcotest.test_case "many small batches" `Quick test_many_small_batches;
  ]
