(* The static abstract-interpretation pass: cross-block jump resolution,
   calldata access summaries, fork-prune equivalence with plain TASE,
   and the differential lint (zero findings on the synthetic corpus, an
   injected rule mutation flagged). *)

open Evm
module Absint = Sigrec_static.Absint
module Summary = Sigrec_static.Summary
module Domain = Sigrec_static.Domain

(* ---- jump resolution ---------------------------------------------- *)

(* target pushed in the entry block, consumed by a JUMP in another *)
let cross_block_prog =
  Asm.
    [
      Push_label "target";
      Op Opcode.CALLVALUE;
      Push_label "mid";
      Op Opcode.JUMPI;
      Label "mid";
      Op Opcode.JUMP;
      Label "target";
      Op Opcode.STOP;
    ]

let test_cross_block_resolution () =
  let cfg = Cfg.build (Asm.assemble cross_block_prog) in
  Alcotest.(check int) "peephole leaves it unresolved" 1
    (Cfg.unresolved_count cfg);
  let r = Absint.analyze ~entry:0 cfg in
  Alcotest.(check bool) "converged" true r.Absint.converged;
  Alcotest.(check int) "one block resolved" 1 (Absint.resolved_count r);
  Alcotest.(check int) "resolved cfg has no unresolved edge" 0
    (Cfg.unresolved_count (Absint.resolved_cfg r))

(* the target constant is split across blocks by arithmetic, the way the
   obfuscator hides it: target = a + b with both halves pushed early *)
let split_constant_prog target_label =
  Asm.
    [
      Push_label target_label;    (* whole target ... *)
      Op (Opcode.push 7);
      Op Opcode.ADD;              (* ... shifted up by 7 *)
      Op Opcode.CALLVALUE;
      Push_label "mid";
      Op Opcode.JUMPI;
      Label "mid";
      Op (Opcode.push 7);
      Op (Opcode.SWAP 1);
      Op Opcode.SUB;              (* recover the target in another block *)
      Op Opcode.JUMP;
      Label target_label;
      Op Opcode.STOP;
    ]

let test_split_constant_resolution () =
  let cfg = Cfg.build (Asm.assemble (split_constant_prog "t")) in
  Alcotest.(check int) "unresolved before" 1 (Cfg.unresolved_count cfg);
  let r = Absint.analyze ~entry:0 cfg in
  Alcotest.(check int) "arithmetic-split target resolved" 1
    (Absint.resolved_count r);
  Alcotest.(check int) "unresolved after" 0
    (Cfg.unresolved_count (Absint.resolved_cfg r))

let test_obfuscated_corpus_resolution () =
  (* level-2 obfuscation inserts junk between PUSH and JUMP and splits
     constants; every edge the peephole loses must come back *)
  let samples = Solc.Corpus.dataset3 ~seed:41 ~n:30 in
  let before = ref 0 and after = ref 0 in
  List.iter
    (fun (s : Solc.Corpus.sample) ->
      let code =
        Solc.Obfuscate.compile_obfuscated ~level:2 ~seed:17
          {
            Solc.Compile.fns = [ s.Solc.Corpus.fn ];
            version = s.Solc.Corpus.version;
            storage = [];
          }
      in
      let contract = Sigrec.Contract.make code in
      before := !before + contract.Sigrec.Contract.unresolved_before;
      after := !after + contract.Sigrec.Contract.unresolved_after)
    samples;
  Alcotest.(check bool) "obfuscation produced unresolved edges" true
    (!before > 0);
  Alcotest.(check int) "all resolved by the abstract interpreter" 0 !after

(* ---- access summaries --------------------------------------------- *)

let summary_of code ~entry = (Absint.analyze ~depth:1 ~entry (Cfg.build code)).Absint.summary

let test_summary_uint32 () =
  let fsig =
    Abi.Funsig.make ~visibility:Abi.Funsig.External "f"
      [ Abi.Abity.Uint 32; Abi.Abity.Uint 256 ]
  in
  let code = Solc.Compile.compile_fn (Solc.Lang.fn_of_sig fsig) in
  let contract = Sigrec.Contract.make code in
  let entry =
    (List.hd contract.Sigrec.Contract.entries).Sigrec.Ids.entry_pc
  in
  let s =
    (Absint.analyze ~depth:1 ~entry contract.Sigrec.Contract.cfg)
      .Absint.summary
  in
  Alcotest.(check bool) "summary complete" true s.Summary.complete;
  Alcotest.(check bool) "reads offset 4" true (Summary.reads_offset s 4);
  Alcotest.(check bool) "reads offset 36" true (Summary.reads_offset s 36);
  Alcotest.(check bool) "uint32 mask recorded" true
    (List.exists (U256.equal (U256.ones_low 4)) (Summary.masks_at s 4));
  Alcotest.(check int) "no symbolic reads" 0 s.Summary.sym_reads

let test_summary_int8_signext () =
  let fsig =
    Abi.Funsig.make ~visibility:Abi.Funsig.External "g" [ Abi.Abity.Int 8 ]
  in
  let code = Solc.Compile.compile_fn (Solc.Lang.fn_of_sig fsig) in
  let contract = Sigrec.Contract.make code in
  let entry =
    (List.hd contract.Sigrec.Contract.entries).Sigrec.Ids.entry_pc
  in
  let s =
    (Absint.analyze ~depth:1 ~entry contract.Sigrec.Contract.cfg)
      .Absint.summary
  in
  Alcotest.(check bool) "SIGNEXTEND 0 recorded" true
    (List.mem 0 (Summary.signexts_at s 4))

let test_summary_darray_copy () =
  let fsig =
    Abi.Funsig.make ~visibility:Abi.Funsig.External "h"
      [ Abi.Abity.Darray (Abi.Abity.Uint 256) ]
  in
  let code = Solc.Compile.compile_fn (Solc.Lang.fn_of_sig fsig) in
  let contract = Sigrec.Contract.make code in
  let entry =
    (List.hd contract.Sigrec.Contract.entries).Sigrec.Ids.entry_pc
  in
  let s =
    (Absint.analyze ~depth:1 ~entry contract.Sigrec.Contract.cfg)
      .Absint.summary
  in
  Alcotest.(check bool) "dynamic array body is read" true
    (s.Summary.copies <> [] || s.Summary.sym_reads > 0)

let _ = summary_of

(* ---- prune equivalence -------------------------------------------- *)

let corpus_slice () =
  Solc.Corpus.dataset3 ~seed:43 ~n:40
  @ Solc.Corpus.vyper_set ~seed:44 ~n:15
  @ Solc.Corpus.abiv2_set ~seed:45 ~n:15

let render (rs : Sigrec.Recover.recovered list) =
  String.concat ";"
    (List.map
       (fun r ->
         r.Sigrec.Recover.selector_hex ^ "(" ^ Sigrec.Recover.type_list r ^ ")")
       rs)

let test_prune_equivalence () =
  let samples = corpus_slice () in
  let total_off = ref 0 and total_on = ref 0 and pruned = ref 0 in
  List.iter
    (fun (s : Solc.Corpus.sample) ->
      let contract = Sigrec.Contract.make s.Solc.Corpus.code in
      let run static_prune =
        let stats = Sigrec.Stats.create () in
        let rs =
          Sigrec.Recover.recover_contract ~stats ~static_prune contract
        in
        (rs, stats)
      in
      let off, soff = run false and on_, son = run true in
      Alcotest.(check string) "same signatures with and without pruning"
        (render off) (render on_);
      total_off := !total_off + Sigrec.Stats.paths_explored soff;
      total_on := !total_on + Sigrec.Stats.paths_explored son;
      pruned := !pruned + Sigrec.Stats.forks_pruned son)
    samples;
  Alcotest.(check bool) "pruning never explores more paths" true
    (!total_on <= !total_off);
  Alcotest.(check bool) "pruning fires somewhere in the corpus" true
    (!pruned > 0);
  Alcotest.(check bool) "pruned paths strictly fewer" true
    (!total_on < !total_off)

(* ---- differential lint -------------------------------------------- *)

let test_lint_clean_on_corpus () =
  (* every compiler version/optimisation knob contributes samples *)
  let versioned =
    List.concat_map snd (Solc.Corpus.versioned ~seed:46 ~per_version:4)
  in
  let samples = corpus_slice () @ versioned in
  let stats = Sigrec.Stats.create () in
  List.iter
    (fun (s : Solc.Corpus.sample) ->
      let verdicts = Sigrec.Lint.check ~stats s.Solc.Corpus.code in
      List.iter
        (fun v ->
          if not (Sigrec.Lint.agree v) then
            Alcotest.failf "false lint disagreement on 0x%s: %s"
              v.Sigrec.Lint.selector_hex
              (String.concat "; "
                 (List.map Sigrec.Lint.finding_to_string
                    v.Sigrec.Lint.findings)))
        verdicts)
    samples;
  Alcotest.(check int) "no disagreements counted" 0
    (Sigrec.Stats.lint_disagreements stats);
  Alcotest.(check bool) "agreements counted" true
    (Sigrec.Stats.lint_agreements stats > 0)

let test_lint_flags_mutation () =
  (* turning off the fine-mask refinements makes small unsigned types
     recover as uint256, which contradicts the statically observed type
     masks: the lint must notice *)
  let mutated = { Sigrec.Rules.default_config with fine_masks = false } in
  let samples = Solc.Corpus.dataset3 ~seed:47 ~n:40 in
  let flagged = ref 0 in
  List.iter
    (fun (s : Solc.Corpus.sample) ->
      List.iter
        (fun v -> if not (Sigrec.Lint.agree v) then incr flagged)
        (Sigrec.Lint.check ~config:mutated s.Solc.Corpus.code))
    samples;
  Alcotest.(check bool) "mutation detected" true (!flagged > 0)

let test_lint_exercises_mask_conflict () =
  (* at least one mutated-config finding must be a mask conflict
     specifically, not just a side effect of another check *)
  let mutated = { Sigrec.Rules.default_config with fine_masks = false } in
  let fsig =
    Abi.Funsig.make ~visibility:Abi.Funsig.External "m" [ Abi.Abity.Uint 32 ]
  in
  let code = Solc.Compile.compile_fn (Solc.Lang.fn_of_sig fsig) in
  let verdicts = Sigrec.Lint.check ~config:mutated code in
  let has_mask_conflict =
    List.exists
      (fun v ->
        List.exists
          (function Sigrec.Lint.Mask_conflict _ -> true | _ -> false)
          v.Sigrec.Lint.findings)
      verdicts
  in
  Alcotest.(check bool) "mask conflict reported" true has_mask_conflict

(* ---- batch input parsing ------------------------------------------ *)

let test_batch_parser_tolerant () =
  let hex = Evm.Hex.encode "\x60\x00\x60\x00\xf3" in
  let text =
    "# comment\r\n" ^ "0x" ^ hex ^ "\r\n" ^ "\n" ^ "   \n" ^ "zz-not-hex\n"
    ^ String.uppercase_ascii hex ^ "\n" ^ "abc\n" (* odd length: invalid *)
  in
  let batch = Sigrec.Input.parse_batch text in
  Alcotest.(check int) "two codes decoded" 2
    (List.length batch.Sigrec.Input.codes);
  List.iter
    (fun code ->
      Alcotest.(check string) "decoded to the same bytes" "\x60\x00\x60\x00\xf3"
        code)
    batch.Sigrec.Input.codes;
  Alcotest.(check (list int)) "malformed lines reported with line numbers"
    [ 5; 7 ]
    (List.map fst batch.Sigrec.Input.skipped)

let test_batch_parser_empty_and_comments () =
  let batch = Sigrec.Input.parse_batch "# only\n\n\r\n  # comments\n" in
  Alcotest.(check int) "no codes" 0 (List.length batch.Sigrec.Input.codes);
  Alcotest.(check int) "nothing skipped" 0
    (List.length batch.Sigrec.Input.skipped)

(* ---- domain sanity ------------------------------------------------- *)

let test_domain_widening () =
  (* joining more than the constant cap widens to Untainted, never to
     Tainted: loop counters must not poison the prune analysis *)
  let d =
    List.fold_left
      (fun acc i -> Domain.join acc (Domain.of_int i))
      (Domain.of_int 0)
      (List.init 20 (fun i -> i + 1))
  in
  Alcotest.(check bool) "widened" true (Domain.to_const d = None);
  Alcotest.(check bool) "still untainted" true
    (Domain.equal d Domain.Untainted)

(* ---- the slot lattice (storage-layout provenance) ------------------- *)

let test_domain_slot_lattice () =
  let s3 = Domain.Slot (Domain.Fixed (U256.of_int 3)) in
  let s4 = Domain.Slot (Domain.Fixed (U256.of_int 4)) in
  Alcotest.(check bool) "a slot joined with itself keeps its identity" true
    (Domain.equal (Domain.join s3 s3) s3);
  Alcotest.(check bool) "distinct slots widen to Untainted, not Tainted" true
    (Domain.equal (Domain.join s3 s4) Domain.Untainted);
  let sval = Domain.Sval (Domain.Fixed (U256.of_int 1), 0) in
  Alcotest.(check bool) "a storage read joined with Untainted widens" true
    (Domain.equal (Domain.join sval Domain.Untainted) Domain.Untainted);
  Alcotest.(check bool) "the taint line still dominates" true
    (Domain.equal (Domain.join s3 Domain.Tainted) Domain.Tainted);
  (* address classification: singleton constants name a fixed slot,
     ambiguous sets name nothing *)
  (match Domain.slot_of (Domain.const (U256.of_int 5)) with
  | Some s ->
    Alcotest.(check bool) "constant address is a fixed slot" true
      (Domain.slot_equal s (Domain.Fixed (U256.of_int 5)))
  | None -> Alcotest.fail "constant address not classified");
  Alcotest.(check bool) "multi-constant address stays unclassified" true
    (Domain.slot_of (Domain.join (Domain.of_int 1) (Domain.of_int 2)) = None);
  Alcotest.(check bool) "untainted address stays unclassified" true
    (Domain.slot_of Domain.Untainted = None)

let test_domain_slot_arithmetic () =
  let base = Domain.Arr_of (U256.of_int 9) in
  (* index arithmetic over a derived base: even a counter widened past
     max_consts does not lose the slot attribution *)
  let widened =
    List.fold_left
      (fun acc i -> Domain.join acc (Domain.of_int i))
      (Domain.of_int 0)
      (List.init (Domain.max_consts + 4) (fun i -> i + 1))
  in
  Alcotest.(check bool) "counter widened to Untainted" true
    (Domain.equal widened Domain.Untainted);
  Alcotest.(check bool) "base + widened index stays on the array" true
    (Domain.equal
       (Domain.lift2 Opcode.ADD widened (Domain.Slot base))
       (Domain.Slot base));
  Alcotest.(check bool) "constant - base loses the attribution" true
    (Domain.equal
       (Domain.lift2 Opcode.SUB (Domain.of_int 1) (Domain.Slot base))
       Domain.Untainted);
  (* the packed-read idiom moves the bit cursor of a loaded word *)
  let loaded = Domain.Sval (Domain.Fixed (U256.of_int 2), 0) in
  Alcotest.(check bool) "SHR moves the cursor" true
    (Domain.equal
       (Domain.lift2 Opcode.SHR (Domain.of_int 8) loaded)
       (Domain.Sval (Domain.Fixed (U256.of_int 2), 8)));
  Alcotest.(check bool) "DIV by 2^k moves the cursor (pre-0.5 idiom)" true
    (Domain.equal
       (Domain.lift2 Opcode.DIV loaded (Domain.const (U256.pow2 16)))
       (Domain.Sval (Domain.Fixed (U256.of_int 2), 16)));
  Alcotest.(check bool) "AND keeps the cursor" true
    (Domain.equal
       (Domain.lift2 Opcode.AND (Domain.of_int 255) loaded)
       loaded);
  Alcotest.(check bool) "other arithmetic widens the loaded word" true
    (Domain.equal
       (Domain.lift2 Opcode.MUL loaded (Domain.of_int 3))
       Domain.Untainted)

let test_keccak_constant_derivations () =
  (* hand-written SHA3 idioms over constant memory: the recording pass
     must emit the derivation and attribute the following SLOAD to it *)
  let events prog =
    let r = Absint.analyze ~entry:0 (Cfg.build (Asm.assemble prog)) in
    Alcotest.(check bool) "converged" true r.Absint.converged;
    List.map (fun (e : Absint.storage_ev) -> e.Absint.ev) r.Absint.storage
  in
  let has evs p = List.exists p evs in
  (* keccak(pad32 slot): a dynamic array's data base *)
  let arr =
    events
      Asm.
        [
          Op (Opcode.push 7); Op (Opcode.push 0); Op Opcode.MSTORE;
          Op (Opcode.push 0x20); Op (Opcode.push 0); Op Opcode.SHA3;
          Op Opcode.SLOAD; Op Opcode.POP; Op Opcode.STOP;
        ]
  in
  let arr_slot = Domain.Arr_of (U256.of_int 7) in
  Alcotest.(check bool) "keccak(const) derives the array base" true
    (has arr (function
      | Absint.Sderive s -> Domain.slot_equal s arr_slot
      | _ -> false));
  Alcotest.(check bool) "the load is attributed to the array" true
    (has arr (function
      | Absint.Sload (Some s) -> Domain.slot_equal s arr_slot
      | _ -> false));
  (* keccak(key . pad32 slot) with an environment-read key: a mapping
     element — the untainted key must not widen the derivation away *)
  let map =
    events
      Asm.
        [
          Op Opcode.CALLER; Op (Opcode.push 0); Op Opcode.MSTORE;
          Op (Opcode.push 5); Op (Opcode.push 0x20); Op Opcode.MSTORE;
          Op (Opcode.push 0x40); Op (Opcode.push 0); Op Opcode.SHA3;
          Op Opcode.SLOAD; Op Opcode.POP; Op Opcode.STOP;
        ]
  in
  let map_slot = Domain.Map_of (U256.of_int 5) in
  Alcotest.(check bool) "keccak(key . const) derives the mapping" true
    (has map (function
      | Absint.Sderive s -> Domain.slot_equal s map_slot
      | _ -> false));
  Alcotest.(check bool) "the load is attributed to the mapping" true
    (has map (function
      | Absint.Sload (Some s) -> Domain.slot_equal s map_slot
      | _ -> false))

let test_domain_eval_parity () =
  (* the abstract evaluator must agree with the concrete semantics the
     symbolic executor uses, or resolved jump targets would be wrong *)
  let a = U256.of_int 1000 and b = U256.of_int 7 in
  let check op expect =
    match Domain.eval2 op a b with
    | Some v ->
      Alcotest.(check bool)
        (Opcode.mnemonic op ^ " matches") true (U256.equal v expect)
    | None -> Alcotest.failf "%s not evaluated" (Opcode.mnemonic op)
  in
  check Opcode.ADD (U256.of_int 1007);
  check Opcode.SUB (U256.of_int 993);
  check Opcode.MUL (U256.of_int 7000);
  check Opcode.DIV (U256.of_int 142);
  check Opcode.AND (U256.of_int (1000 land 7));
  match Domain.eval2 Opcode.EXP (U256.of_int 2) (U256.of_int 10) with
  | Some v ->
    Alcotest.(check bool) "EXP matches" true (U256.equal v (U256.of_int 1024))
  | None -> Alcotest.fail "EXP not evaluated"

(* ---- storage event order ------------------------------------------- *)

(* The storage events are sorted by pc alone, which is a total order
   only because every reached block is interpreted once per recording
   pass and every instruction records at most one event. Pin that on
   both run shapes: the whole-contract runs (depth 0, before and after
   jump resolution) and the per-entry runs (depth 1). *)
let test_storage_events_ascending_pc () =
  let codes =
    List.map
      (fun s -> s.Solc.Corpus.lcode)
      (Solc.Corpus.layout_set ~seed:5 ~n:30)
    @ List.map
        (fun s -> s.Solc.Corpus.tcode)
        (Solc.Corpus.token_set ~seed:5 ~n:30)
  in
  let events = ref 0 in
  let check what (r : Absint.result) =
    let pcs = List.map (fun e -> e.Absint.pc) r.Absint.storage in
    events := !events + List.length pcs;
    let rec ascending = function
      | a :: (b :: _ as rest) -> a < b && ascending rest
      | _ -> true
    in
    if not (ascending pcs) then
      Alcotest.failf "%s: storage pcs not strictly ascending: %s" what
        (String.concat " " (List.map string_of_int pcs))
  in
  List.iter
    (fun code ->
      let r0 = Absint.analyze ~depth:0 ~entry:0 (Cfg.build code) in
      check "depth 0" r0;
      check "depth 0, resolved"
        (Absint.analyze ~depth:0 ~entry:0 (Absint.resolved_cfg r0));
      let contract = Sigrec.Contract.make code in
      List.iter
        (fun (e : Sigrec.Ids.entry) ->
          check "depth 1"
            (Absint.analyze ~depth:1 ~entry:e.Sigrec.Ids.entry_pc
               contract.Sigrec.Contract.cfg))
        (Sigrec.Contract.entries contract))
    codes;
  Alcotest.(check bool) "storage events recorded" true (!events > 100)

let suite =
  [
    Alcotest.test_case "cross-block jump resolution" `Quick
      test_cross_block_resolution;
    Alcotest.test_case "split-constant jump resolution" `Quick
      test_split_constant_resolution;
    Alcotest.test_case "obfuscated corpus fully resolved" `Quick
      test_obfuscated_corpus_resolution;
    Alcotest.test_case "summary: uint32 masks" `Quick test_summary_uint32;
    Alcotest.test_case "summary: int8 signextend" `Quick
      test_summary_int8_signext;
    Alcotest.test_case "summary: dynamic array copy" `Quick
      test_summary_darray_copy;
    Alcotest.test_case "prune equivalence over corpus" `Quick
      test_prune_equivalence;
    Alcotest.test_case "lint clean on corpus" `Quick test_lint_clean_on_corpus;
    Alcotest.test_case "lint flags rule mutation" `Quick
      test_lint_flags_mutation;
    Alcotest.test_case "lint reports mask conflict" `Quick
      test_lint_exercises_mask_conflict;
    Alcotest.test_case "batch parser tolerant" `Quick
      test_batch_parser_tolerant;
    Alcotest.test_case "batch parser comments" `Quick
      test_batch_parser_empty_and_comments;
    Alcotest.test_case "domain widening" `Quick test_domain_widening;
    Alcotest.test_case "domain slot lattice" `Quick test_domain_slot_lattice;
    Alcotest.test_case "domain slot arithmetic" `Quick
      test_domain_slot_arithmetic;
    Alcotest.test_case "keccak derivations recorded" `Quick
      test_keccak_constant_derivations;
    Alcotest.test_case "domain eval parity" `Quick test_domain_eval_parity;
    Alcotest.test_case "storage events in ascending pc order" `Quick
      test_storage_events_ascending_pc;
  ]
