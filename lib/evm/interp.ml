type env = {
  caller : U256.t;
  callvalue : U256.t;
  address : U256.t;
  origin : U256.t;
  timestamp : U256.t;
  number : U256.t;
  chainid : U256.t;
}

let default_env =
  {
    caller = U256.of_hex "0xca11e800000000000000000000000000000000ca";
    callvalue = U256.zero;
    address = U256.of_hex "0xc0de00000000000000000000000000000000c0de";
    origin = U256.of_hex "0x0419100000000000000000000000000000000419";
    timestamp = U256.of_int 1_700_000_000;
    number = U256.of_int 11_600_000;
    chainid = U256.one;
  }

type outcome =
  | Stopped
  | Returned of string
  | Reverted of string
  | Invalid_op
  | Out_of_gas
  | Stack_error
  | Bad_jump of int

type result = {
  outcome : outcome;
  gas_used : int;
  steps : int;
  storage : Machine.Storage.t;
  trace_pcs : int list;
}

let succeeded = function Stopped | Returned _ -> true | _ -> false

let pp_outcome fmt = function
  | Stopped -> Format.pp_print_string fmt "stopped"
  | Returned d -> Format.fprintf fmt "returned(%d bytes)" (String.length d)
  | Reverted d -> Format.fprintf fmt "reverted(%d bytes)" (String.length d)
  | Invalid_op -> Format.pp_print_string fmt "invalid opcode"
  | Out_of_gas -> Format.pp_print_string fmt "out of gas"
  | Stack_error -> Format.pp_print_string fmt "stack error"
  | Bad_jump t -> Format.fprintf fmt "bad jump to 0x%x" t

(* Simplified gas schedule: enough to bound execution and to make gas a
   meaningful fuzzing budget; not a consensus-accurate table. *)
let gas_cost op =
  match op with
  | Opcode.STOP | Opcode.JUMPDEST -> 1
  | Opcode.ADD | Opcode.SUB | Opcode.NOT | Opcode.LT | Opcode.GT
  | Opcode.SLT | Opcode.SGT | Opcode.EQ | Opcode.ISZERO | Opcode.AND
  | Opcode.OR | Opcode.XOR | Opcode.BYTE | Opcode.SHL | Opcode.SHR
  | Opcode.SAR | Opcode.POP | Opcode.PC | Opcode.MSIZE | Opcode.GAS
  | Opcode.CALLDATALOAD | Opcode.CALLDATASIZE | Opcode.CALLER
  | Opcode.CALLVALUE | Opcode.ADDRESS | Opcode.ORIGIN ->
    3
  | Opcode.MUL | Opcode.DIV | Opcode.SDIV | Opcode.MOD | Opcode.SMOD
  | Opcode.SIGNEXTEND ->
    5
  | Opcode.ADDMOD | Opcode.MULMOD | Opcode.JUMP -> 8
  | Opcode.JUMPI -> 10
  | Opcode.EXP -> 60
  | Opcode.SHA3 -> 36
  | Opcode.MLOAD | Opcode.MSTORE | Opcode.MSTORE8 -> 3
  | Opcode.CALLDATACOPY | Opcode.CODECOPY -> 6
  | Opcode.SLOAD -> 200
  | Opcode.SSTORE -> 5000
  | Opcode.PUSH _ | Opcode.DUP _ | Opcode.SWAP _ -> 3
  | Opcode.LOG n -> 375 * (n + 1)
  | Opcode.BALANCE | Opcode.EXTCODESIZE | Opcode.EXTCODEHASH -> 400
  | Opcode.CALL | Opcode.CALLCODE | Opcode.DELEGATECALL | Opcode.STATICCALL
    ->
    700
  | Opcode.CREATE | Opcode.CREATE2 -> 32000
  | _ -> 3

let bool_word b = if b then U256.one else U256.zero

type program = { code : string; ops : Opcode.t option array }

let prepare code =
  { code; ops = Disasm.op_table code (Disasm.disassemble code) }

let run ?(env = default_env) ?storage ?(gas_limit = 10_000_000)
    ?(record_trace = false) { code; ops } ~calldata () =
  let storage =
    match storage with Some s -> s | None -> Machine.Storage.create ()
  in
  let stack = Machine.Stack.create () in
  let memory = Machine.Memory.create () in
  let cd = Machine.Calldata.of_string calldata in
  let gas = ref gas_limit in
  let steps = ref 0 in
  let trace = ref [] in
  (* quadratic memory-expansion cost, as the Yellow Paper charges: 3
     gas per fresh word plus words^2/512 *)
  let mem_words_charged = ref 0 in
  let charge_memory () =
    let words = (Machine.Memory.size memory + 31) / 32 in
    if words > !mem_words_charged then begin
      let cost w = (3 * w) + (w * w / 512) in
      gas := !gas - (cost words - cost !mem_words_charged);
      mem_words_charged := words
    end
  in
  let as_offset v =
    (* offsets beyond a sane bound abort via Out_of_gas-like behaviour *)
    match U256.to_int v with Some n when n < 0x200000 -> Some n | _ -> None
  in
  let finish outcome =
    {
      outcome;
      gas_used = gas_limit - !gas;
      steps = !steps;
      storage;
      trace_pcs = List.rev !trace;
    }
  in
  let pop () = Machine.Stack.pop stack in
  let push v = Machine.Stack.push stack v in
  let sha3_mem off len = Keccak.digest (Machine.Memory.load_bytes memory off len) in
  let rec step pc =
    match Disasm.op_at ops pc with
    | None -> finish Stopped (* ran off the end of code *)
    | Some op ->
      incr steps;
      if record_trace then trace := pc :: !trace;
      let cost = gas_cost op in
      if !gas < cost then finish Out_of_gas
      else begin
        gas := !gas - cost;
        let next = pc + Opcode.size op in
        let binop f =
          let a = pop () in
          let b = pop () in
          push (f a b);
          step next
        in
        let cmp f =
          let a = pop () in
          let b = pop () in
          push (bool_word (f a b));
          step next
        in
        match op with
        | Opcode.STOP -> finish Stopped
        | Opcode.ADD -> binop U256.add
        | Opcode.MUL -> binop U256.mul
        | Opcode.SUB -> binop U256.sub
        | Opcode.DIV -> binop U256.div
        | Opcode.SDIV -> binop U256.sdiv
        | Opcode.MOD -> binop U256.rem
        | Opcode.SMOD -> binop U256.srem
        | Opcode.ADDMOD ->
          let a = pop () in
          let b = pop () in
          let m = pop () in
          push (U256.addmod a b m);
          step next
        | Opcode.MULMOD ->
          let a = pop () in
          let b = pop () in
          let m = pop () in
          push (U256.mulmod a b m);
          step next
        | Opcode.EXP -> binop U256.exp
        | Opcode.SIGNEXTEND ->
          let k = pop () in
          let x = pop () in
          push
            (match U256.to_int k with
            | Some k when k < 32 -> U256.signextend k x
            | _ -> x);
          step next
        | Opcode.LT -> cmp U256.lt
        | Opcode.GT -> cmp U256.gt
        | Opcode.SLT -> cmp U256.slt
        | Opcode.SGT -> cmp U256.sgt
        | Opcode.EQ -> cmp U256.equal
        | Opcode.ISZERO ->
          let a = pop () in
          push (bool_word (U256.is_zero a));
          step next
        | Opcode.AND -> binop U256.logand
        | Opcode.OR -> binop U256.logor
        | Opcode.XOR -> binop U256.logxor
        | Opcode.NOT ->
          let a = pop () in
          push (U256.lognot a);
          step next
        | Opcode.BYTE ->
          let i = pop () in
          let x = pop () in
          push
            (match U256.to_int i with
            | Some i when i < 32 -> U256.byte i x
            | _ -> U256.zero);
          step next
        | Opcode.SHL ->
          let n = pop () in
          let x = pop () in
          push
            (match U256.to_int n with
            | Some n when n < 256 -> U256.shift_left x n
            | _ -> U256.zero);
          step next
        | Opcode.SHR ->
          let n = pop () in
          let x = pop () in
          push
            (match U256.to_int n with
            | Some n when n < 256 -> U256.shift_right x n
            | _ -> U256.zero);
          step next
        | Opcode.SAR ->
          let n = pop () in
          let x = pop () in
          push
            (match U256.to_int n with
            | Some n when n < 256 -> U256.shift_right_arith x n
            | _ -> U256.shift_right_arith x 255);
          step next
        | Opcode.SHA3 -> (
          let off = pop () in
          let len = pop () in
          match (as_offset off, as_offset len) with
          | Some off, Some len ->
            push (U256.of_bytes_be (sha3_mem off len));
            step next
          | _ -> finish Out_of_gas)
        | Opcode.ADDRESS -> push env.address; step next
        | Opcode.BALANCE -> ignore (pop ()); push (U256.of_int 1_000_000); step next
        | Opcode.ORIGIN -> push env.origin; step next
        | Opcode.CALLER -> push env.caller; step next
        | Opcode.CALLVALUE -> push env.callvalue; step next
        | Opcode.CALLDATALOAD -> (
          let off = pop () in
          match as_offset off with
          | Some off -> push (Machine.Calldata.load_word cd off); step next
          | None -> push U256.zero; step next)
        | Opcode.CALLDATASIZE ->
          push (U256.of_int (Machine.Calldata.size cd));
          step next
        | Opcode.CALLDATACOPY -> (
          let dst = pop () in
          let src = pop () in
          let len = pop () in
          match (as_offset dst, as_offset src, as_offset len) with
          | Some dst, Some src, Some len ->
            Machine.Memory.store_bytes memory dst
              (Machine.Calldata.read cd src len);
            charge_memory ();
            if !gas < 0 then finish Out_of_gas else step next
          | _ -> finish Out_of_gas)
        | Opcode.CODESIZE -> push (U256.of_int (String.length code)); step next
        | Opcode.CODECOPY -> (
          let dst = pop () in
          let src = pop () in
          let len = pop () in
          match (as_offset dst, as_offset src, as_offset len) with
          | Some dst, Some src, Some len ->
            let piece =
              String.init len (fun i ->
                  let p = src + i in
                  if p < String.length code then code.[p] else '\000')
            in
            Machine.Memory.store_bytes memory dst piece;
            step next
          | _ -> finish Out_of_gas)
        | Opcode.GASPRICE -> push (U256.of_int 1); step next
        | Opcode.EXTCODESIZE -> ignore (pop ()); push U256.zero; step next
        | Opcode.EXTCODECOPY ->
          ignore (pop ()); ignore (pop ()); ignore (pop ()); ignore (pop ());
          step next
        | Opcode.RETURNDATASIZE -> push U256.zero; step next
        | Opcode.RETURNDATACOPY ->
          ignore (pop ()); ignore (pop ()); ignore (pop ());
          step next
        | Opcode.EXTCODEHASH -> ignore (pop ()); push U256.zero; step next
        | Opcode.BLOCKHASH -> ignore (pop ()); push U256.zero; step next
        | Opcode.COINBASE -> push U256.zero; step next
        | Opcode.TIMESTAMP -> push env.timestamp; step next
        | Opcode.NUMBER -> push env.number; step next
        | Opcode.PREVRANDAO -> push (U256.of_int 42); step next
        | Opcode.GASLIMIT -> push (U256.of_int gas_limit); step next
        | Opcode.CHAINID -> push env.chainid; step next
        | Opcode.SELFBALANCE -> push (U256.of_int 1_000_000); step next
        | Opcode.BASEFEE -> push (U256.of_int 7); step next
        | Opcode.POP -> ignore (pop ()); step next
        | Opcode.MLOAD -> (
          let off = pop () in
          match as_offset off with
          | Some off ->
            push (Machine.Memory.load_word memory off);
            charge_memory ();
            if !gas < 0 then finish Out_of_gas else step next
          | None -> finish Out_of_gas)
        | Opcode.MSTORE -> (
          let off = pop () in
          let v = pop () in
          match as_offset off with
          | Some off ->
            Machine.Memory.store_word memory off v;
            charge_memory ();
            if !gas < 0 then finish Out_of_gas else step next
          | None -> finish Out_of_gas)
        | Opcode.MSTORE8 -> (
          let off = pop () in
          let v = pop () in
          match as_offset off with
          | Some off ->
            Machine.Memory.store_byte memory off (U256.to_int_trunc v);
            step next
          | None -> finish Out_of_gas)
        | Opcode.SLOAD ->
          let k = pop () in
          push (Machine.Storage.load storage k);
          step next
        | Opcode.SSTORE ->
          let k = pop () in
          let v = pop () in
          Machine.Storage.store storage k v;
          step next
        | Opcode.JUMP -> (
          let t = pop () in
          match U256.to_int t with
          | Some t when Disasm.is_jumpdest ops t -> step t
          | Some t -> finish (Bad_jump t)
          | None -> finish (Bad_jump (-1)))
        | Opcode.JUMPI -> (
          let t = pop () in
          let c = pop () in
          if U256.is_zero c then step next
          else
            match U256.to_int t with
            | Some t when Disasm.is_jumpdest ops t -> step t
            | Some t -> finish (Bad_jump t)
            | None -> finish (Bad_jump (-1)))
        | Opcode.PC -> push (U256.of_int pc); step next
        | Opcode.MSIZE -> push (U256.of_int (Machine.Memory.size memory)); step next
        | Opcode.GAS -> push (U256.of_int !gas); step next
        | Opcode.JUMPDEST -> step next
        | Opcode.PUSH (_, v) -> push v; step next
        | Opcode.DUP n -> Machine.Stack.dup stack n; step next
        | Opcode.SWAP n -> Machine.Stack.swap stack n; step next
        | Opcode.LOG n ->
          ignore (pop ()); ignore (pop ());
          for _ = 1 to n do ignore (pop ()) done;
          step next
        | Opcode.CREATE | Opcode.CREATE2 ->
          let arity = if op = Opcode.CREATE then 3 else 4 in
          for _ = 1 to arity do ignore (pop ()) done;
          push U256.zero;
          step next
        | Opcode.CALL | Opcode.CALLCODE ->
          for _ = 1 to 7 do ignore (pop ()) done;
          push U256.one;
          step next
        | Opcode.DELEGATECALL | Opcode.STATICCALL ->
          for _ = 1 to 6 do ignore (pop ()) done;
          push U256.one;
          step next
        | Opcode.RETURN -> (
          let off = pop () in
          let len = pop () in
          match (as_offset off, as_offset len) with
          | Some off, Some len ->
            finish (Returned (Machine.Memory.load_bytes memory off len))
          | _ -> finish (Returned ""))
        | Opcode.REVERT -> (
          let off = pop () in
          let len = pop () in
          match (as_offset off, as_offset len) with
          | Some off, Some len ->
            finish (Reverted (Machine.Memory.load_bytes memory off len))
          | _ -> finish (Reverted ""))
        | Opcode.INVALID -> finish Invalid_op
        | Opcode.SELFDESTRUCT -> ignore (pop ()); finish Stopped
        | Opcode.UNKNOWN _ -> finish Invalid_op
      end
  in
  try step 0 with
  | Machine.Stack.Underflow | Machine.Stack.Overflow -> finish Stack_error

let execute ?env ?storage ?gas_limit ?record_trace ~code ~calldata () =
  run ?env ?storage ?gas_limit ?record_trace (prepare code) ~calldata ()
