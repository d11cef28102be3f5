(* Failure injection: SigRec is meant to run on arbitrary deployed
   bytecode, so every product must terminate and never raise on
   garbage, truncated or bit-flipped input — and answer it the same
   way every time. *)

let no_exn name f =
  match f () with
  | _ -> ()
  | exception e ->
    Alcotest.failf "%s raised %s" name (Printexc.to_string e)

(* -- hostile inputs ------------------------------------------------------ *)

let garbage =
  [
    ("empty", "");
    ("single byte", "\xfe");
    ("all zeroes", String.make 200 '\000');
    ("all ff", String.make 200 '\xff');
    ("ascii", "hello, this is not bytecode");
  ]

(* every prefix of a compiled contract *)
let truncated () =
  let fsig =
    Abi.Funsig.make "t" [ Abi.Abity.Darray (Abi.Abity.Uint 8); Abi.Abity.Bytes ]
  in
  let code = Solc.Compile.compile_fn (Solc.Lang.fn_of_sig fsig) in
  let n = String.length code in
  List.map
    (fun k -> (Printf.sprintf "prefix %d0%%" k, String.sub code 0 (n * k / 10)))
    [ 1; 3; 5; 7; 9 ]

(* [count] copies of [code], each with one byte overwritten at random *)
let bit_flipped ~seed ~count code =
  let rng = Random.State.make [| seed |] in
  List.init count (fun _ ->
      let b = Bytes.of_string code in
      let pos = Random.State.int rng (Bytes.length b) in
      Bytes.set b pos (Char.chr (Random.State.int rng 256));
      ("bit flip", Bytes.to_string b))

let flipped_contract () =
  let fsig =
    Abi.Funsig.make "t"
      [ Abi.Abity.Uint 64; Abi.Abity.Sarray (Abi.Abity.Bool, 2) ]
  in
  bit_flipped ~seed:123 ~count:60
    (Solc.Compile.compile_fn (Solc.Lang.fn_of_sig fsig))

let random_bytes () =
  let rng = Random.State.make [| 321 |] in
  List.init 60 (fun _ ->
      let len = 20 + Random.State.int rng 400 in
      ( "random bytes",
        String.init len (fun _ -> Char.chr (Random.State.int rng 256)) ))

let recovers_all inputs =
  List.iter
    (fun (name, code) -> no_exn name (fun () -> Sigrec.Recover.recover code))
    inputs

(* -- every product ------------------------------------------------------- *)

(* The inputs above plus bit-flipped token and storage-layout contracts,
   through the layout and classification products and both lints: no
   exception, and a second fresh engine renders the same answer. *)
let test_every_product () =
  let flipped samples =
    List.concat
      (List.mapi
         (fun i code -> bit_flipped ~seed:(1000 + i) ~count:5 code)
         samples)
  in
  let inputs =
    garbage @ truncated () @ flipped_contract () @ random_bytes ()
    @ flipped
        (List.map
           (fun s -> s.Solc.Corpus.tcode)
           (Solc.Corpus.token_set ~seed:17 ~n:20))
    @ flipped
        (List.map
           (fun s -> s.Solc.Corpus.lcode)
           (Solc.Corpus.layout_set ~seed:17 ~n:20))
  in
  let fresh () = Sigrec.Engine.make Sigrec.Engine.Config.default in
  let products =
    [
      ( "layout",
        fun code ->
          Sigrec.Render.layout_report (Sigrec.Engine.layout (fresh ()) code) );
      ( "classify",
        fun code ->
          Sigrec.Render.classify_report (Sigrec.Engine.classify (fresh ()) code)
      );
      ( "lint",
        fun code ->
          Sigrec.Json.arr
            (List.map Sigrec.Render.verdict (Sigrec.Lint.check code)) );
      ( "layout lint",
        fun code ->
          Sigrec.Render.layout_verdict (Sigrec.Lint.check_layout code) );
    ]
  in
  List.iter
    (fun (name, code) ->
      List.iter
        (fun (product, answer) ->
          match (answer code, answer code) with
          | first, second ->
            if first <> second then
              Alcotest.failf "%s on %s: two fresh runs answer differently"
                product name
          | exception e ->
            Alcotest.failf "%s on %s raised %s" product name
              (Printexc.to_string e))
        products)
    inputs

(* -- tools and the symbolic core ----------------------------------------- *)

let test_interpreter_fuzz () =
  (* the concrete interpreter must also terminate on garbage *)
  let rng = Random.State.make [| 654 |] in
  for _ = 1 to 80 do
    let len = 10 + Random.State.int rng 300 in
    let junk = String.init len (fun _ -> Char.chr (Random.State.int rng 256)) in
    let cd = String.init 36 (fun _ -> Char.chr (Random.State.int rng 256)) in
    no_exn "interp junk" (fun () ->
        Evm.Interp.execute ~gas_limit:100_000 ~code:junk ~calldata:cd ())
  done

let test_parchecker_fuzz () =
  let rng = Random.State.make [| 987 |] in
  let tys =
    [
      Abi.Abity.Darray (Abi.Abity.Uint 8);
      Abi.Abity.Bytes;
      Abi.Abity.Tuple
        [ Abi.Abity.Darray (Abi.Abity.Uint 256); Abi.Abity.Bool ];
    ]
  in
  for _ = 1 to 120 do
    let len = Random.State.int rng 300 in
    let junk = String.init len (fun _ -> Char.chr (Random.State.int rng 256)) in
    no_exn "parchecker junk" (fun () -> Tools.Parchecker.check_call tys junk);
    no_exn "decode junk" (fun () -> Abi.Decode.decode_call tys junk)
  done

let test_erays_fuzz () =
  let rng = Random.State.make [| 555 |] in
  for _ = 1 to 30 do
    let len = 20 + Random.State.int rng 200 in
    let junk = String.init len (fun _ -> Char.chr (Random.State.int rng 256)) in
    no_exn "lift junk" (fun () -> Tools.Erays.lift junk);
    no_exn "enhance junk" (fun () -> Tools.Eraysplus.enhance junk)
  done

(* recovery on a mutated dispatcher still terminates within budget *)
let test_pathological_loops () =
  (* a contract that is one big symbolic loop *)
  let open Evm in
  let items =
    Asm.[
      Op (Opcode.push 0); Op Opcode.CALLDATALOAD;
      Push_label "f"; Op Opcode.JUMPI; Op Opcode.STOP;
      Label "f";
      Op Opcode.CALLVALUE;
      Push_label "f";
      Op Opcode.JUMPI;
      Op Opcode.STOP;
    ]
  in
  let code = Asm.assemble items in
  no_exn "self-loop" (fun () ->
      Symex.Exec.run ~code ~entry:0 ~init_stack:[] ())

let suite =
  [
    Alcotest.test_case "garbage inputs" `Quick (fun () ->
        recovers_all garbage);
    Alcotest.test_case "truncated contracts" `Quick (fun () ->
        recovers_all (truncated ()));
    Alcotest.test_case "bit-flipped contracts" `Quick (fun () ->
        recovers_all (flipped_contract ()));
    Alcotest.test_case "random bytecode" `Quick (fun () ->
        recovers_all (random_bytes ()));
    Alcotest.test_case "interpreter on junk" `Quick test_interpreter_fuzz;
    Alcotest.test_case "parchecker/decoder on junk" `Quick test_parchecker_fuzz;
    Alcotest.test_case "erays on junk" `Quick test_erays_fuzz;
    Alcotest.test_case "pathological loops bounded" `Quick
      test_pathological_loops;
    Alcotest.test_case "every product on hostile input" `Quick
      test_every_product;
  ]
