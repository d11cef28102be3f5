(* The concrete interpreter: instruction semantics, control flow,
   call-data handling, failure modes. *)

open Evm

let run ?(calldata = "") ops =
  Interp.execute ~code:(Asm.assemble_ops ops) ~calldata ()

let run_items ?(calldata = "") items =
  Interp.execute ~code:(Asm.assemble items) ~calldata ()

(* run a program that stores its result via MSTORE(0, x); RETURN(0,32) *)
let returns_word ?(calldata = "") ops =
  let epilogue =
    Opcode.[ push 0; MSTORE; push 32; push 0; RETURN ]
  in
  match run ~calldata (ops @ epilogue) with
  | { Interp.outcome = Interp.Returned data; _ } when String.length data = 32
    ->
    U256.of_bytes_be data
  | r ->
    Alcotest.failf "expected 32-byte return, got %a" Interp.pp_outcome
      r.Interp.outcome

let u = Alcotest.testable U256.pp U256.equal

let test_arithmetic () =
  Alcotest.check u "3+4" (U256.of_int 7)
    (returns_word Opcode.[ push 4; push 3; ADD ]);
  Alcotest.check u "10-3" (U256.of_int 7)
    (returns_word Opcode.[ push 3; push 10; SUB ]);
  Alcotest.check u "6*7" (U256.of_int 42)
    (returns_word Opcode.[ push 7; push 6; MUL ]);
  Alcotest.check u "42/5" (U256.of_int 8)
    (returns_word Opcode.[ push 5; push 42; DIV ]);
  Alcotest.check u "2^10" (U256.of_int 1024)
    (returns_word Opcode.[ push 10; push 2; EXP ]);
  Alcotest.check u "7 mod 4" (U256.of_int 3)
    (returns_word Opcode.[ push 4; push 7; MOD ])

let test_stack_ops () =
  Alcotest.check u "dup2 picks the second" (U256.of_int 1)
    (returns_word Opcode.[ push 1; push 2; DUP 2; SWAP 2; POP; POP ]);
  (* [9;5] -- SWAP1 -> [5;9] -- POP drops the new top, leaving 9 *)
  Alcotest.check u "swap1" (U256.of_int 9)
    (returns_word Opcode.[ push 5; push 9; SWAP 1; POP ])

let test_comparison_chain () =
  Alcotest.check u "1 < 2" U256.one
    (returns_word Opcode.[ push 2; push 1; LT ]);
  Alcotest.check u "2 < 1 is 0" U256.zero
    (returns_word Opcode.[ push 1; push 2; LT ]);
  Alcotest.check u "iszero(0)" U256.one
    (returns_word Opcode.[ push 0; ISZERO ]);
  Alcotest.check u "eq" U256.one
    (returns_word Opcode.[ push 9; push 9; EQ ])

let test_memory () =
  Alcotest.check u "mstore/mload" (U256.of_int 0xabcd)
    (returns_word Opcode.[ push 0xabcd; push 64; MSTORE; push 64; MLOAD ]);
  Alcotest.check u "mstore8 writes one byte" (U256.of_int 0xff)
    (returns_word
       Opcode.[ push 0xff; push 95; MSTORE8; push 64; MLOAD;
                push_u256 (U256.of_int 0xff); AND ])

let test_storage () =
  let res =
    run Opcode.[ push 0x1234; push 7; SSTORE; STOP ]
  in
  Alcotest.(check bool) "stopped" true (res.Interp.outcome = Interp.Stopped);
  Alcotest.check u "persisted" (U256.of_int 0x1234)
    (Machine.Storage.load res.Interp.storage (U256.of_int 7))

let test_calldata () =
  let calldata = "\x01\x02\x03\x04" ^ U256.to_bytes_be (U256.of_int 99) in
  Alcotest.check u "calldataload 4" (U256.of_int 99)
    (returns_word ~calldata Opcode.[ push 4; CALLDATALOAD ]);
  Alcotest.check u "calldatasize" (U256.of_int 36)
    (returns_word ~calldata Opcode.[ CALLDATASIZE ]);
  (* reads past the end are zero-padded *)
  Alcotest.check u "past end" U256.zero
    (returns_word ~calldata Opcode.[ push 100; CALLDATALOAD ]);
  (* calldatacopy then mload *)
  Alcotest.check u "calldatacopy" (U256.of_int 99)
    (returns_word ~calldata
       Opcode.[ push 32; push 4; push 64; CALLDATACOPY; push 64; MLOAD ])

let test_sha3 () =
  (* keccak of 4 bytes staged in memory matches the library digest *)
  let got =
    returns_word
      Opcode.[ push 0x2a; push 67; MSTORE8; push 4; push 64; SHA3 ]
  in
  Alcotest.check u "sha3 through memory"
    (U256.of_bytes_be (Keccak.digest "\x00\x00\x00\x2a"))
    got

let test_bad_jump () =
  let res = run Opcode.[ push 3; JUMP ] in
  (match res.Interp.outcome with
  | Interp.Bad_jump 3 -> ()
  | o -> Alcotest.failf "expected bad jump, got %a" Interp.pp_outcome o);
  (* jumping to a JUMPDEST works *)
  let res =
    run_items
      Asm.[ Push_label "ok"; Op Opcode.JUMP; Op Opcode.INVALID; Label "ok";
            Op Opcode.STOP ]
  in
  Alcotest.(check bool) "good jump" true (res.Interp.outcome = Interp.Stopped)

let test_invalid_and_revert () =
  Alcotest.(check bool) "invalid" true
    ((run Opcode.[ INVALID ]).Interp.outcome = Interp.Invalid_op);
  (match (run Opcode.[ push 0; push 0; REVERT ]).Interp.outcome with
  | Interp.Reverted "" -> ()
  | o -> Alcotest.failf "expected revert, got %a" Interp.pp_outcome o);
  Alcotest.(check bool) "stack underflow" true
    ((run Opcode.[ POP ]).Interp.outcome = Interp.Stack_error)

let test_gas_exhaustion () =
  (* an infinite loop must end with Out_of_gas, not hang *)
  let code =
    Asm.assemble
      Asm.[ Label "l"; Op (Opcode.push 1); Op Opcode.POP; Push_label "l";
            Op Opcode.JUMP ]
  in
  let res = Interp.execute ~gas_limit:10_000 ~code ~calldata:"" () in
  Alcotest.(check bool) "out of gas" true
    (res.Interp.outcome = Interp.Out_of_gas)

let test_env_values () =
  let env = Interp.default_env in
  Alcotest.check u "callvalue" env.Interp.callvalue
    (returns_word Opcode.[ CALLVALUE ]);
  Alcotest.check u "caller" env.Interp.caller
    (returns_word Opcode.[ CALLER ])

let test_trace () =
  let code = Asm.assemble_ops Opcode.[ push 1; push 2; ADD; POP; STOP ] in
  let res = Interp.execute ~record_trace:true ~code ~calldata:"" () in
  Alcotest.(check (list int)) "pcs in order" [ 0; 2; 4; 5; 6 ]
    res.Interp.trace_pcs

(* differential check: interpreter arithmetic agrees with U256 *)
let prop_differential =
  let gen = QCheck.Gen.(pair (map Int64.abs int64) (map Int64.abs int64)) in
  let arb = QCheck.make gen in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"interp agrees with U256 on binops" ~count:100 arb
       (fun (a64, b64) ->
         let a = U256.of_int64 a64 and b = U256.of_int64 b64 in
         List.for_all
           (fun (op, reference) ->
             let got =
               returns_word Opcode.[ push_u256 b; push_u256 a; op ]
             in
             U256.equal got (reference a b))
           Opcode.
             [
               (ADD, U256.add); (SUB, U256.sub); (MUL, U256.mul);
               (DIV, U256.div); (MOD, U256.rem); (AND, U256.logand);
               (OR, U256.logor); (XOR, U256.logxor);
             ]))

(* -- dispatch through the pc-indexed op table ----------------------------- *)

let expect_bad_jump name want res =
  match res.Interp.outcome with
  | Interp.Bad_jump t when t = want -> ()
  | o ->
    Alcotest.failf "%s: expected bad jump to %d, got %a" name want
      Interp.pp_outcome o

(* A 0x5b byte inside a PUSH immediate is push data, not a JUMPDEST,
   and a target at or past the end of the code is no instruction. *)
let exec_hex hex = Interp.execute ~code:(Hex.decode hex) ~calldata:"" ()

(* PUSH1 t; JUMP; PUSH2 0x5b5b; JUMPDEST; STOP — eight bytes, push
   data at 4 and 5 *)
let jump_to t = exec_hex (Printf.sprintf "60%02x56615b5b5b00" t)

(* PUSH1 1; PUSH1 t; JUMPI; PUSH2 0x5b5b; JUMPDEST; STOP — ten bytes,
   push data at 6 and 7 *)
let jumpi_to t = exec_hex (Printf.sprintf "600160%02x57615b5b5b00" t)

let test_jump_into_push_data () =
  expect_bad_jump "JUMP" 4 (jump_to 4);
  Alcotest.(check bool) "JUMP to the real JUMPDEST" true
    ((jump_to 6).Interp.outcome = Interp.Stopped);
  expect_bad_jump "JUMPI" 6 (jumpi_to 6);
  Alcotest.(check bool) "JUMPI to the real JUMPDEST" true
    ((jumpi_to 8).Interp.outcome = Interp.Stopped)

let test_jump_past_end () =
  expect_bad_jump "JUMP to the end" 8 (jump_to 8);
  expect_bad_jump "JUMP past the end" 0xff (jump_to 0xff);
  expect_bad_jump "JUMPI to the end" 10 (jumpi_to 10);
  expect_bad_jump "JUMPI past the end" 0xff (jumpi_to 0xff)

(* One prepared program serves any number of runs: each must be the
   same, field for field, as a one-shot [execute] of the same call. The
   contract declares storage, so a dispatched call writes some. *)
let test_prepared_runs () =
  let code =
    (List.hd (Solc.Corpus.layout_set ~seed:3 ~n:1)).Solc.Corpus.lcode
  in
  let selector = (List.hd (Sigrec.Ids.extract code)).Sigrec.Ids.selector in
  let word = String.make 31 '\000' ^ "\001" in
  let calldatas =
    [ selector ^ String.concat "" (List.init 8 (fun _ -> word));
      "\xde\xad\xbe\xef"; "" ]
  in
  let program = Interp.prepare code in
  let bindings r =
    List.map
      (fun (k, v) -> (U256.to_hex k, U256.to_hex v))
      (Machine.Storage.bindings r.Interp.storage)
  in
  let writes =
    List.mapi
      (fun i calldata ->
        let a = Interp.run ~record_trace:true program ~calldata () in
        let b = Interp.execute ~record_trace:true ~code ~calldata () in
        let name what = Printf.sprintf "call %d: %s" i what in
        Alcotest.(check bool) (name "outcome") true
          (a.Interp.outcome = b.Interp.outcome);
        Alcotest.(check int) (name "gas_used") b.Interp.gas_used
          a.Interp.gas_used;
        Alcotest.(check int) (name "steps") b.Interp.steps a.Interp.steps;
        Alcotest.(check (list int)) (name "trace_pcs") b.Interp.trace_pcs
          a.Interp.trace_pcs;
        Alcotest.(check (list (pair string string))) (name "storage")
          (bindings b) (bindings a);
        List.length (bindings a))
      calldatas
  in
  Alcotest.(check bool) "the dispatched call wrote storage" true
    (List.hd writes > 0)

let suite =
  [
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "stack ops" `Quick test_stack_ops;
    Alcotest.test_case "comparisons" `Quick test_comparison_chain;
    Alcotest.test_case "memory" `Quick test_memory;
    Alcotest.test_case "storage" `Quick test_storage;
    Alcotest.test_case "calldata" `Quick test_calldata;
    Alcotest.test_case "sha3" `Quick test_sha3;
    Alcotest.test_case "bad jump" `Quick test_bad_jump;
    Alcotest.test_case "invalid and revert" `Quick test_invalid_and_revert;
    Alcotest.test_case "gas exhaustion" `Quick test_gas_exhaustion;
    Alcotest.test_case "environment" `Quick test_env_values;
    Alcotest.test_case "trace recording" `Quick test_trace;
    prop_differential;
    Alcotest.test_case "jump into push data" `Quick test_jump_into_push_data;
    Alcotest.test_case "jump to or past the end" `Quick test_jump_past_end;
    Alcotest.test_case "prepared runs match execute" `Quick test_prepared_runs;
  ]
