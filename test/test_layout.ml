(* Storage-layout recovery: the static pass against the generator's
   ground-truth state-variable declarations, across compiler versions
   (SHR/SHL vs the pre-0.5 DIV/MUL shift idiom). *)

open Evm
module Lang = Solc.Lang
module Layout = Sigrec_layout.Layout

let expected_decl (v : Lang.svar) =
  match v.Lang.kind with
  | Lang.Svalue [ 256 ] -> Layout.Word
  | Lang.Svalue ws ->
    let lanes = Option.get (Solc.Storage.truth_members ws) in
    Layout.Packed
      (List.map
         (fun (bit_offset, bit_width) -> { Layout.bit_offset; bit_width })
         lanes)
  | Lang.Smapping -> Layout.Mapping
  | Lang.Sarray -> Layout.Dyn_array

let expected_of_svars svars =
  List.map
    (fun (v : Lang.svar) -> (U256.of_int v.Lang.slot, expected_decl v))
    svars
  |> List.sort (fun (a, _) (b, _) -> U256.compare a b)

let recovered_shape (t : Layout.t) =
  List.map (fun (e : Layout.entry) -> (e.Layout.slot, e.Layout.decl)) t.entries

let show_shape shape =
  String.concat "; "
    (List.map
       (fun (slot, decl) ->
         Printf.sprintf "0x%s:%s" (U256.to_hex slot)
           (Layout.decl_to_string decl))
       shape)

let contract_for version svars =
  let fsig = Abi.Funsig.make "touch" [ Abi.Abity.Uint 256 ] in
  {
    Solc.Compile.fns = [ Solc.Lang.fn_of_sig fsig ];
    version;
    storage = svars;
  }

let check_recovers ?(contract = contract_for) version svars =
  let code = Solc.Compile.compile (contract version svars) in
  let layout = Layout.recover code in
  let got = recovered_shape layout in
  let want = expected_of_svars svars in
  Alcotest.(check string)
    (Printf.sprintf "layout @ %s" version.Solc.Version.name)
    (show_shape want) (show_shape got);
  Alcotest.(check bool) "analysis complete" true layout.Layout.complete;
  Alcotest.(check int) "no unresolved storage ops" 0 layout.Layout.unknown_ops

let all_kinds =
  [
    Lang.svalue 0;
    Lang.svalue ~widths:[ 8; 160; 88 ] 1;
    Lang.smapping 2;
    Lang.sarray 3;
  ]

let shr_version = Solc.Version.latest_solidity

let div_version =
  List.find
    (fun (v : Solc.Version.t) ->
      (not v.Solc.Version.shr_dispatch) && not v.Solc.Version.optimize)
    Solc.Version.solidity_versions

let test_all_kinds_shr () = check_recovers shr_version all_kinds
let test_all_kinds_div () = check_recovers div_version all_kinds

let test_word () = check_recovers shr_version [ Lang.svalue 7 ]

let test_packed_two_lanes_filling_word () =
  (* top lane ends at bit 256: its write clears with a low-run keep
     mask, exercising the composite-drop path *)
  check_recovers shr_version [ Lang.svalue ~widths:[ 96; 160 ] 0 ]

let test_packed_three_lanes_filling_word () =
  check_recovers shr_version [ Lang.svalue ~widths:[ 8; 120; 128 ] 4 ];
  check_recovers div_version [ Lang.svalue ~widths:[ 8; 120; 128 ] 4 ]

let test_packed_partial_word () =
  (* high bits unused: clear masks keep them, so no composite ever
     forms *)
  check_recovers shr_version [ Lang.svalue ~widths:[ 8; 120 ] 2 ];
  check_recovers div_version [ Lang.svalue ~widths:[ 8; 8; 16 ] 3 ]

let test_single_subword_lane () =
  check_recovers shr_version [ Lang.svalue ~widths:[ 8 ] 1 ]

let test_mapping_only () = check_recovers shr_version [ Lang.smapping 5 ]
let test_array_only () = check_recovers shr_version [ Lang.sarray 6 ]

let test_fallback_contract () =
  (* no functions: the storage accesses live in the fallback block *)
  let contract version svars =
    { Solc.Compile.fns = []; version; storage = svars }
  in
  check_recovers ~contract shr_version all_kinds

let test_many_functions_round_robin () =
  (* more svars than functions: round-robin spreads them across bodies
     and the recovered layout is still the union *)
  let contract version svars =
    let fns =
      List.map
        (fun name ->
          Solc.Lang.fn_of_sig (Abi.Funsig.make name [ Abi.Abity.Uint 256 ]))
        [ "alpha"; "beta"; "gamma" ]
    in
    { Solc.Compile.fns = fns; version; storage = svars }
  in
  let svars =
    [
      Lang.svalue 0;
      Lang.smapping 1;
      Lang.sarray 2;
      Lang.svalue ~widths:[ 128; 128 ] 3;
      Lang.svalue 4;
    ]
  in
  check_recovers ~contract shr_version svars

let test_empty_contract () =
  let code =
    Solc.Compile.compile
      {
        Solc.Compile.fns = [ Solc.Lang.fn_of_sig (Abi.Funsig.make "f" []) ];
        version = shr_version;
        storage = [];
      }
  in
  let layout = Layout.recover code in
  Alcotest.(check int) "no slots" 0 (List.length layout.Layout.entries);
  Alcotest.(check int) "no ops" 0 layout.Layout.total_ops

let test_layout_corpus_zero_disagreements () =
  (* the acceptance gate: the static pass agrees with the generator's
     declarations on every contract of the seeded layout corpus *)
  let samples = Solc.Corpus.layout_set ~seed:7 ~n:60 in
  let kinds = Hashtbl.create 4 in
  List.iter
    (fun (s : Solc.Corpus.layout_sample) ->
      let layout = Layout.recover s.Solc.Corpus.lcode in
      let got = recovered_shape layout in
      let want = expected_of_svars s.Solc.Corpus.svars in
      Alcotest.(check string)
        (Printf.sprintf "corpus layout @ %s [%s]"
           s.Solc.Corpus.lversion.Solc.Version.name
           (String.concat " " (List.map Lang.show_svar s.Solc.Corpus.svars)))
        (show_shape want) (show_shape got);
      Alcotest.(check bool) "analysis complete" true layout.Layout.complete;
      Alcotest.(check int) "no unresolved storage ops" 0
        layout.Layout.unknown_ops;
      List.iter
        (fun (v : Lang.svar) ->
          let k =
            match v.Lang.kind with
            | Lang.Svalue [ 256 ] -> "word"
            | Lang.Svalue _ -> "packed"
            | Lang.Smapping -> "mapping"
            | Lang.Sarray -> "array"
          in
          Hashtbl.replace kinds k ())
        s.Solc.Corpus.svars)
    samples;
  (* the corpus must actually represent all four declaration kinds *)
  Alcotest.(check int) "all four kinds represented" 4 (Hashtbl.length kinds)

let test_lint_layout_agrees () =
  (* the execution differential: interpreter-observed SSTORE traffic
     is fully explained by the recovered layout on seeded corpus
     contracts, and writes are actually exercised along the way *)
  let samples = Solc.Corpus.layout_set ~seed:31 ~n:12 in
  let writes = ref 0 in
  List.iter
    (fun (s : Solc.Corpus.layout_sample) ->
      let v = Sigrec.Lint.check_layout s.Solc.Corpus.lcode in
      if not (Sigrec.Lint.layout_agree v) then
        Alcotest.failf "layout lint disagreement @ %s [%s]: %s"
          s.Solc.Corpus.lversion.Solc.Version.name
          (String.concat " " (List.map Lang.show_svar s.Solc.Corpus.svars))
          (String.concat "; "
             (List.map Sigrec.Lint.layout_finding_to_string
                v.Sigrec.Lint.layout_findings));
      Alcotest.(check int)
        "every dispatcher selector executed"
        v.Sigrec.Lint.selectors_run v.Sigrec.Lint.selectors_ok;
      writes := !writes + v.Sigrec.Lint.writes_observed)
    samples;
  Alcotest.(check bool) "the differential exercised concrete writes" true
    (!writes > 0)

let test_equal_shape () =
  let code v = Solc.Compile.compile (contract_for v all_kinds) in
  let a = Layout.recover (code shr_version) in
  let b = Layout.recover (code div_version) in
  Alcotest.(check bool)
    "same shape across shift idioms" true
    (Layout.equal_shape a b);
  let c = Layout.recover (code shr_version) in
  Alcotest.(check bool) "reflexive" true (Layout.equal_shape a c)

let suite =
  [
    Alcotest.test_case "all kinds, SHR idiom" `Quick test_all_kinds_shr;
    Alcotest.test_case "all kinds, DIV idiom" `Quick test_all_kinds_div;
    Alcotest.test_case "plain word" `Quick test_word;
    Alcotest.test_case "packed: two lanes filling the word" `Quick
      test_packed_two_lanes_filling_word;
    Alcotest.test_case "packed: three lanes filling the word" `Quick
      test_packed_three_lanes_filling_word;
    Alcotest.test_case "packed: partial word" `Quick test_packed_partial_word;
    Alcotest.test_case "packed: single sub-word lane" `Quick
      test_single_subword_lane;
    Alcotest.test_case "mapping only" `Quick test_mapping_only;
    Alcotest.test_case "dynamic array only" `Quick test_array_only;
    Alcotest.test_case "storage in the fallback" `Quick test_fallback_contract;
    Alcotest.test_case "round-robin across functions" `Quick
      test_many_functions_round_robin;
    Alcotest.test_case "contract without storage" `Quick test_empty_contract;
    Alcotest.test_case "corpus: zero disagreements vs ground truth" `Quick
      test_layout_corpus_zero_disagreements;
    Alcotest.test_case "lint: differential agrees on corpus" `Quick
      test_lint_layout_agrees;
    Alcotest.test_case "equal_shape across idioms" `Quick test_equal_shape;
  ]
