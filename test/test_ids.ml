(* Function-id extraction by the selector-stopped dispatcher run, on
   compiler output, obfuscated output and a cut dispatcher. Plus the
   Ruledoc table staying in sync with the rule engine. *)

let contract_with n =
  Solc.Compile.compile
    (Solc.Compile.contract_of_sigs
       (List.init n (fun i ->
            Abi.Funsig.make (Printf.sprintf "fn%d" i) [ Abi.Abity.Uint 8 ])))

let test_count_and_order () =
  let code = contract_with 7 in
  let entries = Sigrec.Ids.extract code in
  Alcotest.(check int) "seven ids" 7 (List.length entries);
  (* entry pcs ascend with dispatch order in our layout *)
  let pcs = List.map (fun e -> e.Sigrec.Ids.entry_pc) entries in
  Alcotest.(check (list int)) "ascending entries" (List.sort compare pcs) pcs

let test_selectors_valid () =
  let sigs =
    [
      Abi.Funsig.make "transfer" [ Abi.Abity.Address; Abi.Abity.Uint 256 ];
      Abi.Funsig.make "mint" [ Abi.Abity.Uint 256 ];
    ]
  in
  let code = Solc.Compile.compile (Solc.Compile.contract_of_sigs sigs) in
  let entries = Sigrec.Ids.extract code in
  List.iter2
    (fun fsig e ->
      Alcotest.(check string) "selector matches"
        (Abi.Funsig.selector_hex fsig)
        (Evm.Hex.encode e.Sigrec.Ids.selector))
    sigs entries

let test_both_dispatch_styles () =
  let sigs = [ Abi.Funsig.make "f" [ Abi.Abity.Bool ] ] in
  List.iter
    (fun version ->
      let code =
        Solc.Compile.compile
          { (Solc.Compile.contract_of_sigs sigs) with Solc.Compile.version }
      in
      Alcotest.(check int)
        (Printf.sprintf "found under %s" version.Solc.Version.name)
        1
        (List.length (Sigrec.Ids.extract code)))
    [ List.hd Solc.Version.solidity_versions; Solc.Version.latest_solidity ]

(* Every entry is a JUMPDEST of the code it was read from. *)
let check_jumpdests name code entries =
  let ops = Evm.Disasm.op_table code (Evm.Disasm.disassemble code) in
  List.iter
    (fun e ->
      let pc = e.Sigrec.Ids.entry_pc in
      Alcotest.(check bool)
        (Printf.sprintf "%s: entry %d is a JUMPDEST" name pc)
        true
        (Evm.Disasm.is_jumpdest ops pc))
    entries

(* Cold-style contracts: 1-8 functions under every generator version,
   with 0-3 storage slots in turn, each also obfuscated at levels 0-3.
   Extraction returns exactly the declared selectors, in dispatch
   order. *)
let check_generated_contracts () =
  let rng = Random.State.make [| 20230715 |] in
  let check name declared code =
    let entries = Sigrec.Ids.extract code in
    Alcotest.(check (list string))
      (name ^ ": declared selectors in dispatch order")
      declared
      (List.map (fun e -> Evm.Hex.encode e.Sigrec.Ids.selector) entries);
    check_jumpdests name code entries
  in
  List.iteri
    (fun v version ->
      let vyper = version.Solc.Version.lang = Abi.Abity.Vyper in
      for nfns = 1 to 8 do
        let n = (v * 8) + nfns in
        let nslots = n mod 4 in
        let fns =
          List.init nfns (fun j ->
              Solc.Corpus.random_fn ~abiv2:version.Solc.Version.abiv2 ~vyper
                rng ((n * 8) + j))
        in
        let storage = List.init nslots (Solc.Corpus.random_svar rng) in
        let contract = { Solc.Compile.fns; version; storage } in
        let declared =
          List.map (fun f -> Abi.Funsig.selector_hex f.Solc.Lang.fsig) fns
        in
        let name =
          Printf.sprintf "%s, %d fns, %d slots" version.Solc.Version.name nfns
            nslots
        in
        check name declared (Solc.Compile.compile contract);
        for level = 0 to 3 do
          check
            (Printf.sprintf "%s, level %d" name level)
            declared
            (Solc.Obfuscate.compile_obfuscated ~level ~seed:n contract)
        done
      done)
    (Solc.Version.solidity_versions @ Solc.Version.vyper_versions)

let test_survives_obfuscation () =
  let code = contract_with 5 in
  let plain =
    List.map (fun e -> e.Sigrec.Ids.selector) (Sigrec.Ids.extract code)
  in
  (* obfuscate with junk only: the compare-and-jump idioms break, but
     the executed comparisons still carry every selector *)
  let fns =
    List.init 5 (fun i ->
        Solc.Lang.fn_of_sig
          (Abi.Funsig.make (Printf.sprintf "fn%d" i) [ Abi.Abity.Uint 8 ]))
  in
  let obf =
    Solc.Obfuscate.compile_obfuscated ~level:1 ~seed:7
      { Solc.Compile.fns; version = Solc.Version.latest_solidity; storage = [] }
  in
  let after =
    List.map (fun e -> e.Sigrec.Ids.selector) (Sigrec.Ids.extract obf)
  in
  List.iter
    (fun sel ->
      Alcotest.(check bool)
        (Printf.sprintf "id %s survives obfuscation" (Evm.Hex.encode sel))
        true (List.mem sel after))
    plain;
  check_generated_contracts ()

let test_no_functions () =
  Alcotest.(check int) "empty bytecode" 0
    (List.length (Sigrec.Ids.extract ""));
  Alcotest.(check int) "stop only" 0
    (List.length (Sigrec.Ids.extract "\x00"))

let test_ruledoc_complete () =
  Alcotest.(check int) "31 rules documented" 31
    (List.length Sigrec.Ruledoc.all);
  List.iter
    (fun name ->
      match Sigrec.Ruledoc.find name with
      | Some d ->
        Alcotest.(check string) "name matches" name d.Sigrec.Ruledoc.name;
        Alcotest.(check bool) "has description" true
          (String.length d.Sigrec.Ruledoc.concludes > 0)
      | None -> Alcotest.failf "%s undocumented" name)
    Sigrec.Rules.all_rule_names

let test_recover_deterministic () =
  let code = contract_with 3 in
  let show rs = String.concat ";" (List.map Sigrec.Recover.type_list rs) in
  Alcotest.(check string) "same result twice"
    (show (Sigrec.Recover.recover code))
    (show (Sigrec.Recover.recover code))

(* [contract_with 3] cut right after its dispatcher's last JUMPI: every
   jump target lies past the end of the code, so no path reaches a body
   and there is no entry. *)
let test_cut_dispatcher () =
  let code = contract_with 3 in
  let entries = Sigrec.Ids.extract code in
  Alcotest.(check int) "three ids" 3 (List.length entries);
  check_jumpdests "whole" code entries;
  let first_body =
    List.fold_left (fun m e -> min m e.Sigrec.Ids.entry_pc) max_int entries
  in
  let last_jumpi =
    List.fold_left
      (fun last { Evm.Disasm.offset; op } ->
        if op = Evm.Opcode.JUMPI && offset < first_body then offset else last)
      (-1)
      (Evm.Disasm.disassemble code)
  in
  let cut = String.sub code 0 (last_jumpi + 1) in
  let cut_entries = Sigrec.Ids.extract cut in
  check_jumpdests "cut" cut cut_entries;
  Alcotest.(check int) "cut: no entries" 0 (List.length cut_entries)

let suite =
  [
    Alcotest.test_case "count and order" `Quick test_count_and_order;
    Alcotest.test_case "selectors valid" `Quick test_selectors_valid;
    Alcotest.test_case "both dispatch styles" `Quick test_both_dispatch_styles;
    Alcotest.test_case "symbolic survives obfuscation" `Quick test_survives_obfuscation;
    Alcotest.test_case "no functions" `Quick test_no_functions;
    Alcotest.test_case "ruledoc complete" `Quick test_ruledoc_complete;
    Alcotest.test_case "recovery deterministic" `Quick test_recover_deterministic;
    Alcotest.test_case "cut dispatcher: entries are JUMPDESTs" `Quick
      test_cut_dispatcher;
  ]
