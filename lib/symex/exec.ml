open Evm

(* The symex library has its own [Trace] (the symbolic observation
   record); the telemetry layer is aliased to avoid the clash. *)
module Tr = Sigrec_trace.Trace

module Imap = Map.Make (Int)

type budget = { max_paths : int; max_steps : int; max_forks_per_pc : int }

let default_budget = { max_paths = 512; max_steps = 20_000; max_forks_per_pc = 3 }

type prune_decision = Take_jump | Take_fallthrough

type state = {
  pc : int;
  stack : Sexpr.t list;
  mem : Sexpr.t Imap.t;
  forks : int Imap.t; (* per-JUMPI fork counts on this path *)
  steps : int;
}

(* Mutable per-run recorder with global deduplication across paths.
   Dedup keys use interned-node ids: structurally equal expressions are
   physically equal after interning, so (pc, Sexpr.id) identifies an
   event as precisely as the old printed-string keys did, without the
   printing. *)
type recorder = {
  load_ids : (int * int, int) Hashtbl.t; (* (pc, loc id) -> load id *)
  mutable loads : Trace.load list;
  mutable next_load : int;
  copy_keys : (int * int * int, unit) Hashtbl.t; (* pc, src id, len id *)
  mutable copies : Trace.copy list;
  usage_keys : (int * Trace.subject * Trace.usage_kind, unit) Hashtbl.t;
  mutable usages : Trace.usage list;
  mutable jumpi_conds : (int, Sexpr.t list) Hashtbl.t;
  mutable jumpi_targets : (int, int) Hashtbl.t;
  regions : (int * int) Stack.t; (* (base, region id = copy pc), latest first *)
  region_bases : (int, int) Hashtbl.t; (* rid -> lowest base *)
  mutable paths : int;
  mutable pruned : int;
  mutable steps_hit : bool;
}

let make_recorder () =
  {
    load_ids = Hashtbl.create 64;
    loads = [];
    next_load = 0;
    copy_keys = Hashtbl.create 64;
    copies = [];
    usage_keys = Hashtbl.create 64;
    usages = [];
    jumpi_conds = Hashtbl.create 64;
    jumpi_targets = Hashtbl.create 64;
    regions = Stack.create ();
    region_bases = Hashtbl.create 16;
    paths = 0;
    pruned = 0;
    steps_hit = false;
  }

(* One recorder per domain, reset between runs: runs within a domain
   are sequential, so the dedup tables and region stack are scratch
   that can keep their bucket arrays warm ([Hashtbl.clear] preserves
   capacity). The two jumpi tables are the exception — the returned
   {!Trace.t} aliases them directly, so each run gets fresh ones. *)
let recorder_key = Stdlib.Domain.DLS.new_key make_recorder

let reset_recorder r =
  Hashtbl.clear r.load_ids;
  r.loads <- [];
  r.next_load <- 0;
  Hashtbl.clear r.copy_keys;
  r.copies <- [];
  Hashtbl.clear r.usage_keys;
  r.usages <- [];
  r.jumpi_conds <- Hashtbl.create 64;
  r.jumpi_targets <- Hashtbl.create 64;
  Stack.clear r.regions;
  Hashtbl.clear r.region_bases;
  r.paths <- 0;
  r.pruned <- 0;
  r.steps_hit <- false

let record_load r pc loc =
  let key = (pc, Sexpr.id loc) in
  match Hashtbl.find_opt r.load_ids key with
  | Some id -> id
  | None ->
    let id = r.next_load in
    r.next_load <- id + 1;
    Hashtbl.replace r.load_ids key id;
    r.loads <- { Trace.id; pc; loc } :: r.loads;
    id

let record_copy r pc dst src len =
  let key = (pc, Sexpr.id src, Sexpr.id len) in
  if not (Hashtbl.mem r.copy_keys key) then begin
    Hashtbl.replace r.copy_keys key ();
    r.copies <- { Trace.pc; dst; src; len } :: r.copies
  end;
  (* register the destination region for MLOAD attribution *)
  match Sexpr.to_const_int dst with
  | Some base ->
    (match Hashtbl.find_opt r.region_bases pc with
    | Some b when b <= base -> ()
    | _ -> Hashtbl.replace r.region_bases pc base);
    Stack.push (base, pc) r.regions
  | None -> ()

let record_usage r upc subject kind =
  let key = (upc, subject, kind) in
  if not (Hashtbl.mem r.usage_keys key) then begin
    Hashtbl.replace r.usage_keys key ();
    r.usages <- { Trace.upc; subject; kind } :: r.usages
  end

let record_jumpi_cond r pc cond =
  let existing =
    match Hashtbl.find_opt r.jumpi_conds pc with Some l -> l | None -> []
  in
  if List.length existing < 8 && not (List.exists (Sexpr.equal cond) existing)
  then Hashtbl.replace r.jumpi_conds pc (cond :: existing)

(* The raw parameter value an operand denotes (possibly under masks). *)
let subject_of e =
  match Sexpr.subject e with
  | Some (`Load id) -> Some (Trace.Sub_load id)
  | Some (`Region rid) -> Some (Trace.Sub_region rid)
  | None -> None

(* Is the operand exactly a raw (unmasked) value? Mask events should
   only fire on direct applications. *)
let raw_subject e =
  match Sexpr.node e with
  | Sexpr.CDLoad id -> Some (Trace.Sub_load id)
  | Sexpr.MemItem (rid, _) -> Some (Trace.Sub_region rid)
  | _ -> None

let region_lookup r off =
  (* find the most recent copy region whose base is <= off, within a
     2 KiB window (regions are allocated far apart by the workloads we
     analyse; real solc keeps them disjoint via the free pointer) *)
  let best = ref None in
  Stack.iter
    (fun (base, rid) ->
      if !best = None && off >= base && off - base < 0x800 then
        best := Some (rid, off - base))
    r.regions;
  !best


(* A disassembled program ready for repeated runs: the pc-indexed op
   table is built once and shared across every entry point (and, being
   read-only after [prepare], across domains). *)
type program = {
  code : string;
  instrs : Disasm.instruction list;
  ops : Opcode.t option array;
}

let prepare code =
  let instrs = Disasm.disassemble code in
  { code; instrs; ops = Disasm.op_table code instrs }

let code p = p.code
let instructions p = p.instrs

let run_prepared ?(budget = default_budget) ?(prune = fun _ -> None)
    ?(stop_taken = fun _ -> false) program ~entry ~init_stack () =
  let r = Stdlib.Domain.DLS.get recorder_key in
  reset_recorder r;
  let t0 = if Tr.enabled () then Tr.now_ns () else 0 in
  let { code; ops; _ } = program in
  (* free-symbol names are per-run so that a run's trace depends only on
     its own inputs: re-running the same (program, entry) yields
     byte-identical symbols no matter what ran before or concurrently *)
  let env_counter = ref 0 in
  let fresh_env prefix =
    incr env_counter;
    Sexpr.env (Printf.sprintf "%s_%d" prefix !env_counter)
  in
  let worklist = Stack.create () in
  Stack.push
    { pc = entry; stack = init_stack; mem = Imap.empty; forks = Imap.empty;
      steps = 0 }
    worklist;
  (* The path under execution lives in mutable locals, not a [state]
     record: the straight-line hot loop allocates nothing per step
     beyond the expressions it builds. [state] records are only
     materialized as fork snapshots pushed onto the worklist. *)
  let pc = ref 0 and stack = ref [] and steps = ref 0 in
  let mem = ref Imap.empty and forks = ref Imap.empty in
  let pop () =
    match !stack with
    | v :: rest ->
      stack := rest;
      v
    | [] ->
      (* robustness: an empty stack yields a fresh free symbol rather
         than ending the analysis *)
      fresh_env "uf"
  in
  let push v = stack := v :: !stack in
  let drop n =
    for _ = 1 to n do
      ignore (pop ())
    done
  in
  while (not (Stack.is_empty worklist)) && r.paths < budget.max_paths do
    let s0 = Stack.pop worklist in
    pc := s0.pc;
    stack := s0.stack;
    mem := s0.mem;
    forks := s0.forks;
    steps := s0.steps;
    r.paths <- r.paths + 1;
    let running = ref true in
    while !running do
      if !steps > budget.max_steps then begin
        r.steps_hit <- true;
        running := false
      end
      else
        match Disasm.op_at ops !pc with
        | None -> running := false
        | Some op ->
          let cur_pc = !pc in
          incr steps;
          (* sampled progress beacon: the mask test is one land+compare
             per step, and nothing allocates unless tracing is on *)
          if !steps land Tr.sample_mask () = 0 && Tr.enabled () then
            Tr.counter Tr.Symex "steps" !steps;
          (* fallthrough by default; jump/halt handlers override *)
          pc := cur_pc + Opcode.size op;
          let binop bop =
            let a = pop () in
            let b = pop () in
            (* usage events from direct operand shapes *)
            (match bop with
            | Sexpr.Band -> (
              match (raw_subject a, Sexpr.to_const b) with
              | Some subj, Some m ->
                record_usage r cur_pc subj (Trace.Mask_and m)
              | _ -> (
                match (raw_subject b, Sexpr.to_const a) with
                | Some subj, Some m ->
                  record_usage r cur_pc subj (Trace.Mask_and m)
                | _ -> ()))
            | Sexpr.Bsignext -> (
              match (Sexpr.to_const_int a, raw_subject b) with
              | Some k, Some subj ->
                record_usage r cur_pc subj (Trace.Mask_signext k)
              | _ -> ())
            | Sexpr.Bbyte -> (
              match subject_of b with
              | Some subj -> record_usage r cur_pc subj Trace.Byte_read
              | None -> ())
            | Sexpr.Bsdiv | Sexpr.Bsmod -> (
              (match subject_of a with
              | Some subj -> record_usage r cur_pc subj Trace.Signed_use
              | None -> ());
              match subject_of b with
              | Some subj -> record_usage r cur_pc subj Trace.Signed_use
              | None -> ())
            | Sexpr.Badd | Sexpr.Bsub | Sexpr.Bmul | Sexpr.Bdiv | Sexpr.Bmod
            | Sexpr.Bexp -> (
              (match subject_of a with
              | Some subj -> record_usage r cur_pc subj Trace.Math_use
              | None -> ());
              match subject_of b with
              | Some subj -> record_usage r cur_pc subj Trace.Math_use
              | None -> ())
            | _ -> ());
            push (Sexpr.bin bop a b)
          in
          (match op with
          | Opcode.STOP | Opcode.RETURN | Opcode.REVERT | Opcode.INVALID
          | Opcode.SELFDESTRUCT | Opcode.UNKNOWN _ ->
            running := false
          | Opcode.ADD -> binop Sexpr.Badd
          | Opcode.MUL -> binop Sexpr.Bmul
          | Opcode.SUB -> binop Sexpr.Bsub
          | Opcode.DIV -> binop Sexpr.Bdiv
          | Opcode.SDIV -> binop Sexpr.Bsdiv
          | Opcode.MOD -> binop Sexpr.Bmod
          | Opcode.SMOD -> binop Sexpr.Bsmod
          | Opcode.EXP -> binop Sexpr.Bexp
          | Opcode.ADDMOD ->
            let a = pop () in
            let b = pop () in
            drop 1;
            push (Sexpr.bin Sexpr.Badd a b)
          | Opcode.MULMOD ->
            let a = pop () in
            let b = pop () in
            drop 1;
            push (Sexpr.bin Sexpr.Bmul a b)
          | Opcode.SIGNEXTEND -> binop Sexpr.Bsignext
          | Opcode.LT -> binop Sexpr.Blt
          | Opcode.GT -> binop Sexpr.Bgt
          | Opcode.SLT -> binop Sexpr.Bslt
          | Opcode.SGT -> binop Sexpr.Bsgt
          | Opcode.EQ -> binop Sexpr.Beq
          | Opcode.AND -> binop Sexpr.Band
          | Opcode.OR -> binop Sexpr.Bor
          | Opcode.XOR -> binop Sexpr.Bxor
          | Opcode.BYTE -> binop Sexpr.Bbyte
          | Opcode.SHL -> binop Sexpr.Bshl
          | Opcode.SHR -> binop Sexpr.Bshr
          | Opcode.SAR -> binop Sexpr.Bsar
          | Opcode.ISZERO ->
            let a = pop () in
            (match Sexpr.node a with
            | Sexpr.Un (Sexpr.Uiszero, inner) -> (
              match raw_subject inner with
              | Some subj -> record_usage r cur_pc subj Trace.Mask_bool
              | None -> ())
            | _ -> ());
            push (Sexpr.un Sexpr.Uiszero a)
          | Opcode.NOT ->
            let a = pop () in
            push (Sexpr.un Sexpr.Unot a)
          | Opcode.SHA3 ->
            drop 2;
            push (fresh_env "sha3")
          | Opcode.CALLDATALOAD ->
            let loc = pop () in
            let id = record_load r cur_pc loc in
            push (Sexpr.cdload id)
          | Opcode.CALLDATASIZE -> push (Sexpr.cdsize ())
          | Opcode.CALLDATACOPY ->
            let dst = pop () in
            let src = pop () in
            let len = pop () in
            record_copy r cur_pc dst src len
          | Opcode.CODESIZE -> push (Sexpr.of_int (String.length code))
          | Opcode.CODECOPY -> drop 3
          | Opcode.CALLER -> push (Sexpr.env "caller")
          | Opcode.CALLVALUE -> push (Sexpr.env "callvalue")
          | Opcode.ORIGIN -> push (Sexpr.env "origin")
          | Opcode.ADDRESS -> push (Sexpr.env "address")
          | Opcode.GASPRICE -> push (Sexpr.env "gasprice")
          | Opcode.COINBASE -> push (Sexpr.env "coinbase")
          | Opcode.TIMESTAMP -> push (Sexpr.env "timestamp")
          | Opcode.NUMBER -> push (Sexpr.env "number")
          | Opcode.PREVRANDAO -> push (Sexpr.env "prevrandao")
          | Opcode.GASLIMIT -> push (Sexpr.env "gaslimit")
          | Opcode.CHAINID -> push (Sexpr.env "chainid")
          | Opcode.SELFBALANCE -> push (Sexpr.env "selfbalance")
          | Opcode.BASEFEE -> push (Sexpr.env "basefee")
          | Opcode.BALANCE | Opcode.EXTCODESIZE | Opcode.EXTCODEHASH
          | Opcode.BLOCKHASH ->
            drop 1;
            push (fresh_env "ext")
          | Opcode.EXTCODECOPY -> drop 4
          | Opcode.RETURNDATASIZE -> push (fresh_env "rds")
          | Opcode.RETURNDATACOPY -> drop 3
          | Opcode.POP -> drop 1
          | Opcode.MLOAD -> (
            let loc = pop () in
            match Sexpr.to_const_int loc with
            | Some off -> (
              match Imap.find_opt off !mem with
              | Some v -> push v
              | None -> (
                match region_lookup r off with
                | Some (rid, rel) ->
                  push (Sexpr.mem_item rid (Sexpr.of_int rel))
                | None -> push (fresh_env "mload")))
            | None -> push (fresh_env "mload"))
          | Opcode.MSTORE -> (
            let loc = pop () in
            let v = pop () in
            match Sexpr.to_const_int loc with
            | Some off -> mem := Imap.add off v !mem
            | None -> ())
          | Opcode.MSTORE8 -> drop 2
          | Opcode.SLOAD ->
            drop 1;
            push (fresh_env "sload")
          | Opcode.SSTORE -> drop 2
          | Opcode.PC -> push (Sexpr.of_int cur_pc)
          | Opcode.MSIZE -> push (fresh_env "msize")
          | Opcode.GAS -> push (fresh_env "gas")
          | Opcode.JUMPDEST -> ()
          | Opcode.PUSH (_, v) -> push (Sexpr.const v)
          | Opcode.DUP n ->
            let v = try List.nth !stack (n - 1) with _ -> fresh_env "uf" in
            push v
          | Opcode.SWAP n ->
            let cur = !stack in
            if List.length cur < n + 1 then running := false
            else begin
              let arr = Array.of_list cur in
              let tmp = arr.(0) in
              arr.(0) <- arr.(n);
              arr.(n) <- tmp;
              stack := Array.to_list arr
            end
          | Opcode.LOG n -> drop (n + 2)
          | Opcode.CREATE ->
            drop 3;
            push (fresh_env "create")
          | Opcode.CREATE2 ->
            drop 4;
            push (fresh_env "create2")
          | Opcode.CALL | Opcode.CALLCODE ->
            drop 7;
            push (fresh_env "call")
          | Opcode.DELEGATECALL | Opcode.STATICCALL ->
            drop 6;
            push (fresh_env "call")
          | Opcode.JUMP -> (
            let target = pop () in
            match Sexpr.to_const_int target with
            | Some t when Disasm.is_jumpdest ops t -> pc := t
            | _ -> running := false)
          | Opcode.JUMPI -> (
            let target = pop () in
            let cond = pop () in
            match Sexpr.to_const_int target with
            | Some t when Disasm.is_jumpdest ops t -> (
              record_jumpi_cond r cur_pc cond;
              Hashtbl.replace r.jumpi_targets cur_pc t;
              (* Vyper-style range checks: guard compares a raw loaded
                 value against a constant bound *)
              let core, iszeros = Sexpr.iszero_depth cond in
              (match Sexpr.node core with
              | Sexpr.Bin (cmp, lhs, { Sexpr.node = Sexpr.Const bound; _ }) -> (
                match raw_subject lhs with
                | Some subj ->
                  let kind =
                    match (cmp, iszeros mod 2) with
                    | Sexpr.Blt, _ -> Some (Trace.Range_lt bound)
                    | Sexpr.Bsgt, _ -> Some (Trace.Range_sgt bound)
                    | Sexpr.Bslt, _ -> Some (Trace.Range_slt bound)
                    | _ -> None
                  in
                  Option.iter (fun k -> record_usage r cur_pc subj k) kind
                | None -> ())
              | _ -> ());
              match Sexpr.eval_concrete cond with
              | Some v -> if not (U256.is_zero v) then pc := t
              | None when stop_taken cond ->
                (* the caller stops at this comparison: only the
                   fall-through arm goes on *)
                ()
              | None -> (
                match prune cur_pc with
                | Some decision ->
                  (* the static pass proved only one arm can matter for
                     call-data access: follow it instead of forking *)
                  r.pruned <- r.pruned + 1;
                  if Tr.enabled () then
                    Tr.instant Tr.Symex "prune" [ ("pc", Tr.Int cur_pc) ];
                  (match decision with
                  | Take_jump -> pc := t
                  | Take_fallthrough -> ())
                | None ->
                  let count =
                    match Imap.find_opt cur_pc !forks with
                    | Some c -> c
                    | None -> 0
                  in
                  forks := Imap.add cur_pc (count + 1) !forks;
                  if count >= budget.max_forks_per_pc then
                    (* unrolling bound hit: take only the jump, which is
                       the loop exit in compiler-emitted loops *)
                    pc := t
                  else begin
                    if Tr.enabled () then
                      Tr.instant Tr.Symex "fork" [ ("pc", Tr.Int cur_pc) ];
                    Stack.push
                      { pc = t; stack = !stack; mem = !mem; forks = !forks;
                        steps = !steps }
                      worklist
                  end))
            | _ -> running := false))
    done
  done;
  if Tr.enabled () then
    Tr.complete Tr.Symex "run" ~t0_ns:t0
      [
        ("entry", Tr.Int entry);
        ("paths", Tr.Int r.paths);
        ("pruned", Tr.Int r.pruned);
        ("steps_exhausted", Tr.Bool r.steps_hit);
      ];
  {
    Trace.loads =
      List.sort (fun a b -> compare a.Trace.id b.Trace.id) r.loads;
    copies = List.rev r.copies;
    usages = List.rev r.usages;
    jumpi_conds = r.jumpi_conds;
    jumpi_targets = r.jumpi_targets;
    paths_explored = r.paths;
    forks_pruned = r.pruned;
    steps_exhausted = r.steps_hit;
    paths_exhausted = not (Stack.is_empty worklist);
  }

let run ?budget ?prune ~code ~entry ~init_stack () =
  run_prepared ?budget ?prune (prepare code) ~entry ~init_stack ()
