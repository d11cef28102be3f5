(* Recovery output is byte-identical across every execution knob:
   parallel fan-out, static pruning and a warm cache, on a mixed corpus
   (Solidity across versions, Vyper, abiv2, obfuscated). The parallel
   case also runs the 180 dataset3 contracts the resident-service bench
   times at jobs 1 and 2. *)

let seed = 0x5d21f7

let corpus () =
  let samples =
    Solc.Corpus.dataset3 ~seed ~n:24
    @ Solc.Corpus.vyper_set ~seed ~n:6
    @ Solc.Corpus.abiv2_set ~seed ~n:6
  in
  let plain = List.map (fun s -> s.Solc.Corpus.code) samples in
  (* a few obfuscated bodies so the gate also covers the junk-insertion
     and constant-splitting paths *)
  let rng = Random.State.make [| seed; 1 |] in
  let obf =
    List.filteri (fun i _ -> i < 4) samples
    |> List.mapi (fun i (s : Solc.Corpus.sample) ->
           Solc.Obfuscate.compile_obfuscated
             ~level:(1 + (i mod 2))
             ~seed:(Random.State.int rng 1_000_000)
             {
               Solc.Compile.fns = [ s.Solc.Corpus.fn ];
               version = s.Solc.Corpus.version;
               storage = [];
             })
  in
  plain @ obf

let render reports =
  String.concat "\n"
    (List.map
       (fun r ->
         Format.asprintf "%a" Sigrec.Engine.pp_report
           { r with Sigrec.Engine.from_cache = false })
       reports)

let check_identical name base other =
  if base <> other then
    Alcotest.failf "recovery output drifted under %s" name

let engine ?(jobs = 1) ?(static_prune = true) () =
  Sigrec.Engine.make
    Sigrec.Engine.Config.(
      default |> with_jobs jobs |> with_static_prune static_prune)

let baseline codes =
  render (Sigrec.Engine.recover_all (engine ()) codes)

let parallel_identical () =
  let service_corpus =
    List.map
      (fun s -> s.Solc.Corpus.code)
      (Solc.Corpus.dataset3 ~seed:20230715 ~n:180)
  in
  List.iter
    (fun codes ->
      let base = baseline codes in
      List.iter
        (fun jobs ->
          check_identical
            (Printf.sprintf "jobs=%d" jobs)
            base
            (render (Sigrec.Engine.recover_all (engine ~jobs ()) codes)))
        [ 2; 4 ])
    [ corpus (); service_corpus ]

let prune_identical () =
  let codes = corpus () in
  check_identical "static_prune=false" (baseline codes)
    (render
       (Sigrec.Engine.recover_all (engine ~static_prune:false ()) codes))

let warm_cache_identical () =
  let codes = corpus () in
  let engine = engine ~jobs:2 () in
  let cold = render (Sigrec.Engine.recover_all engine codes) in
  let warm = render (Sigrec.Engine.recover_all engine codes) in
  check_identical "warm cache" cold warm;
  (* the warm run must actually have been answered from the cache *)
  let stats = Sigrec.Engine.stats engine in
  if Sigrec.Stats.cache_hits stats = 0 then
    Alcotest.fail "second run recorded no cache hits"

let suite =
  [
    ("parallel fan-out is byte-identical", `Quick, parallel_identical);
    ("static pruning does not change output", `Quick, prune_identical);
    ("warm cache replays identically", `Quick, warm_cache_identical);
  ]
