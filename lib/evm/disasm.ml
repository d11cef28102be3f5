type instruction = { offset : int; op : Opcode.t }

let decode_one code pos =
  let b = Char.code code.[pos] in
  if b >= 0x5f && b <= 0x7f then begin
    let n = b - 0x5f in
    let avail = Stdlib.min n (String.length code - pos - 1) in
    let imm = String.sub code (pos + 1) avail in
    (* missing trailing bytes read as zero: pad on the right *)
    let imm = imm ^ String.make (n - avail) '\000' in
    Opcode.PUSH (n, U256.of_bytes_be imm)
  end
  else if b >= 0x80 && b <= 0x8f then Opcode.DUP (b - 0x80 + 1)
  else if b >= 0x90 && b <= 0x9f then Opcode.SWAP (b - 0x90 + 1)
  else if b >= 0xa0 && b <= 0xa4 then Opcode.LOG (b - 0xa0)
  else
    match b with
    | 0x00 -> STOP | 0x01 -> ADD | 0x02 -> MUL | 0x03 -> SUB | 0x04 -> DIV
    | 0x05 -> SDIV | 0x06 -> MOD | 0x07 -> SMOD | 0x08 -> ADDMOD
    | 0x09 -> MULMOD | 0x0a -> EXP | 0x0b -> SIGNEXTEND
    | 0x10 -> LT | 0x11 -> GT | 0x12 -> SLT | 0x13 -> SGT | 0x14 -> EQ
    | 0x15 -> ISZERO | 0x16 -> AND | 0x17 -> OR | 0x18 -> XOR | 0x19 -> NOT
    | 0x1a -> BYTE | 0x1b -> SHL | 0x1c -> SHR | 0x1d -> SAR
    | 0x20 -> SHA3
    | 0x30 -> ADDRESS | 0x31 -> BALANCE | 0x32 -> ORIGIN | 0x33 -> CALLER
    | 0x34 -> CALLVALUE | 0x35 -> CALLDATALOAD | 0x36 -> CALLDATASIZE
    | 0x37 -> CALLDATACOPY | 0x38 -> CODESIZE | 0x39 -> CODECOPY
    | 0x3a -> GASPRICE | 0x3b -> EXTCODESIZE | 0x3c -> EXTCODECOPY
    | 0x3d -> RETURNDATASIZE | 0x3e -> RETURNDATACOPY | 0x3f -> EXTCODEHASH
    | 0x40 -> BLOCKHASH | 0x41 -> COINBASE | 0x42 -> TIMESTAMP
    | 0x43 -> NUMBER | 0x44 -> PREVRANDAO | 0x45 -> GASLIMIT
    | 0x46 -> CHAINID | 0x47 -> SELFBALANCE | 0x48 -> BASEFEE
    | 0x50 -> POP | 0x51 -> MLOAD | 0x52 -> MSTORE | 0x53 -> MSTORE8
    | 0x54 -> SLOAD | 0x55 -> SSTORE | 0x56 -> JUMP | 0x57 -> JUMPI
    | 0x58 -> PC | 0x59 -> MSIZE | 0x5a -> GAS | 0x5b -> JUMPDEST
    | 0xf0 -> CREATE | 0xf1 -> CALL | 0xf2 -> CALLCODE | 0xf3 -> RETURN
    | 0xf4 -> DELEGATECALL | 0xf5 -> CREATE2 | 0xfa -> STATICCALL
    | 0xfd -> REVERT | 0xfe -> INVALID | 0xff -> SELFDESTRUCT
    | b -> UNKNOWN b

let disassemble code =
  let rec go pos acc =
    if pos >= String.length code then List.rev acc
    else
      let op = decode_one code pos in
      go (pos + Opcode.size op) ({ offset = pos; op } :: acc)
  in
  go 0 []

let op_table code instrs =
  let ops = Array.make (String.length code) None in
  List.iter (fun { offset; op } -> ops.(offset) <- Some op) instrs;
  ops

let op_at ops pc =
  if pc >= 0 && pc < Array.length ops then Array.unsafe_get ops pc else None

let is_jumpdest ops pc =
  match op_at ops pc with Some Opcode.JUMPDEST -> true | _ -> false

let pp_listing fmt instrs =
  List.iter
    (fun { offset; op } ->
      Format.fprintf fmt "%06x: %s@." offset (Opcode.mnemonic op))
    instrs
