open Evm
module Imap = Map.Make (Int)
module Tr = Sigrec_trace.Trace

(* Abstract machine state at a program point. [mem] holds the words
   stored at known constant offsets; [mem_rest] is the join of
   everything else (the default a read outside [mem] returns). Memory
   starts [Untainted], not zero: at a function entry the dispatcher has
   already written the free pointer, so pretending absent cells are
   zero would fold wrong constants into jump targets. *)
type astate = {
  stack : Domain.t list; (* top first *)
  mem : Domain.t Imap.t;
  mem_rest : Domain.t;
  clipped : bool; (* stack depths disagreed at a join *)
}

type decision = Take_jump | Take_fallthrough

(* Storage traffic observed during the recording pass, the raw
   material of the layout pass. [Smask] attributes a packed-word mask
   to (slot, bit offset, bit width); it fires both on the read idiom
   (SLOAD; SHR k; AND ones(w)) and on the write idiom's clear mask
   (SLOAD; AND ~(ones(w) << k)). *)
type storage_ev = { pc : int; ev : storage_kind }

and storage_kind =
  | Sload of Domain.slot option
  | Sstore of Domain.slot option * Domain.t
  | Sderive of Domain.slot
  | Smask of Domain.slot * int * int

type result = {
  cfg : Cfg.t;
  entry : int;
  entry_states : (int, astate) Hashtbl.t;
  resolved : (int, int list) Hashtbl.t;
  summary : Summary.t;
  storage : storage_ev list;
  prune : (int, decision) Hashtbl.t;
  converged : bool;
}

let max_mem_cells = 512
let max_block_visits = 100

(* The taint class of a value whose bytes get mixed with others:
   constant-set precision is meaningless for partial words, only
   whether call data flowed in survives. *)
let smear v = if Domain.tainted v then Domain.Tainted else Domain.Untainted

(* The transfer function's working state: one mutable record per
   {!interp_block} call, so stepping through a block allocates no
   per-instruction [astate] records. The immutable [astate] is built
   once at block exit (which also keeps {!join_astate}'s physical-
   equality fast path meaningful). *)
type scratch = {
  mutable s_stack : Domain.t list; (* top first *)
  mutable s_mem : Domain.t Imap.t;
  mutable s_rest : Domain.t;
  mutable s_clipped : bool;
}

let scratch_of st =
  { s_stack = st.stack; s_mem = st.mem; s_rest = st.mem_rest;
    s_clipped = st.clipped }

let astate_of_scratch s =
  { stack = s.s_stack; mem = s.s_mem; mem_rest = s.s_rest;
    clipped = s.s_clipped }

let underflow s = if s.s_clipped then Domain.Tainted else Domain.Untainted

let pop s =
  match s.s_stack with
  | v :: rest ->
    s.s_stack <- rest;
    v
  | [] -> underflow s

let popn n s =
  for _ = 1 to n do
    ignore (pop s)
  done

let push v s = s.s_stack <- v :: s.s_stack

(* -- memory ----------------------------------------------------------- *)

let overlapping_cells mem lo hi =
  (* cell keys in (lo, hi), exclusive bounds *)
  Imap.filter (fun c _ -> c > lo && c < hi) mem

let mem_store s off v =
  (* strong update of the exact cell; words overlapping it partially
     are byte-mixed, so they keep only their taint class *)
  let tv = smear v in
  let mem =
    Imap.mapi
      (fun c old ->
        if c <> off && c > off - 32 && c < off + 32 then
          Domain.join (smear old) tv
        else old)
      s.s_mem
  in
  let mem = Imap.add off v mem in
  if Imap.cardinal mem > max_mem_cells then begin
    s.s_rest <- Imap.fold (fun _ v acc -> Domain.join v acc) mem s.s_rest;
    s.s_mem <- Imap.empty
  end
  else s.s_mem <- mem

let mem_store_unknown s v =
  let tv = smear v in
  s.s_mem <- Imap.map (fun old -> Domain.join old tv) s.s_mem;
  s.s_rest <- Domain.join s.s_rest tv

let mem_store_byte s off v =
  let tv = smear v in
  s.s_mem <-
    Imap.mapi
      (fun c old ->
        if c > off - 32 && c <= off then Domain.join (smear old) tv
        else old)
      s.s_mem

let mem_store_range s lo len v =
  let off = ref lo in
  while !off < lo + len do
    mem_store s !off v;
    off := !off + 32
  done
(* a trailing partial word taints its neighbourhood via mem_store's
   overlap smearing; nothing else to do *)

let mem_load s off =
  let base =
    match Imap.find_opt off s.s_mem with
    | Some v -> v
    | None -> s.s_rest
  in
  Imap.fold
    (fun _ v acc -> Domain.join acc (smear v))
    (overlapping_cells (Imap.remove off s.s_mem) (off - 31) (off + 32))
    base

let mem_load_unknown s =
  Imap.fold (fun _ v acc -> Domain.join acc v) s.s_mem s.s_rest

(* -- joins ------------------------------------------------------------ *)

let join_astate_slow a b =
  let la = List.length a.stack and lb = List.length b.stack in
  let n = Stdlib.min la lb in
  let take n l = List.filteri (fun i _ -> i < n) l in
  let stack = List.map2 Domain.join (take n a.stack) (take n b.stack) in
  let mem =
    Imap.merge
      (fun _ va vb ->
        match (va, vb) with
        | Some x, Some y -> Some (Domain.join x y)
        | Some x, None -> Some (Domain.join x b.mem_rest)
        | None, Some y -> Some (Domain.join a.mem_rest y)
        | None, None -> None)
      a.mem b.mem
  in
  {
    stack;
    mem;
    mem_rest = Domain.join a.mem_rest b.mem_rest;
    clipped = a.clipped || b.clipped || la <> lb;
  }

(* Fixpoint iteration re-joins and re-compares the same states many
   times; a physically-identical state (common once the widening has
   settled) answers both in O(1). *)
let join_astate a b = if a == b then a else join_astate_slow a b

let equal_astate a b =
  a == b
  || a.clipped = b.clipped
  && Domain.equal a.mem_rest b.mem_rest
  && List.length a.stack = List.length b.stack
  && List.for_all2 Domain.equal a.stack b.stack
  && Imap.equal Domain.equal a.mem b.mem

(* -- recording -------------------------------------------------------- *)

type rec_acc = {
  mutable const_reads : int list;
  mutable sym_reads : int;
  mutable r_masks : (int * U256.t) list;
  mutable r_signexts : (int * int) list;
  mutable r_byte_reads : int list;
  mutable r_copies : Summary.copy list;
  mutable r_bounds : Summary.bound_check list;
  mutable r_storage : storage_ev list;
  mutable cdsize : bool;
  mutable tainted_branches : int;
}

let fresh_acc () =
  {
    const_reads = [];
    sym_reads = 0;
    r_masks = [];
    r_signexts = [];
    r_byte_reads = [];
    r_copies = [];
    r_bounds = [];
    r_storage = [];
    cdsize = false;
    tainted_branches = 0;
  }

(* [bit_run m] decomposes a contiguous run of ones: [Some (k, w)] when
   [m = ones(w) << k]. The storage packing idioms only ever mask with
   such runs (or their complements). *)
let bit_run m =
  if U256.is_zero m then None
  else if U256.equal m U256.max_int then Some (0, 256)
  else
    let hi = U256.bits m in
    let rec lowest i = if U256.get_bit m i then i else lowest (i + 1) in
    let k = lowest 0 in
    let w = hi - k in
    if
      w < 256
      && U256.equal m (U256.shift_left (U256.sub (U256.pow2 w) U256.one) k)
    then Some (k, w)
    else None

(* -- transfer --------------------------------------------------------- *)

(* How one block ends, with the abstract operands the terminator popped. *)
type term =
  | T_fall
  | T_halt
  | T_jump of Domain.t
  | T_branch of Domain.t * Domain.t (* target, cond *)

let record_cmp acc op pc a b =
  let is_cmp =
    match op with
    | Opcode.LT | Opcode.GT | Opcode.SLT | Opcode.SGT -> true
    | _ -> false
  in
  if is_cmp then
    let note off bound =
      acc.r_bounds <-
        { Summary.pc; offset = Some off; bound } :: acc.r_bounds
    in
    match (a, b) with
    | Domain.Load off, other | other, Domain.Load off ->
      note off (Domain.to_const_int other)
    | _ -> ()

let interp_block ?acc st (b : Cfg.block) =
  let s = scratch_of st in
  let term = ref T_fall in
  let record f = match acc with Some a -> f a | None -> () in
  List.iter
    (fun { Disasm.offset = pc; op } ->
      match !term with
      | T_halt | T_jump _ | T_branch _ -> () (* terminator already seen *)
      | T_fall -> (
        match op with
        | Opcode.STOP | Opcode.RETURN | Opcode.REVERT | Opcode.INVALID
        | Opcode.SELFDESTRUCT | Opcode.UNKNOWN _ ->
          term := T_halt
        | Opcode.JUMP ->
          let t = pop s in
          term := T_jump t
        | Opcode.JUMPI ->
          let t = pop s in
          let c = pop s in
          record (fun a ->
              if Domain.tainted c then
                a.tainted_branches <- a.tainted_branches + 1);
          term := T_branch (t, c)
        | Opcode.ADD | Opcode.MUL | Opcode.SUB | Opcode.DIV | Opcode.SDIV
        | Opcode.MOD | Opcode.SMOD | Opcode.EXP | Opcode.LT | Opcode.GT
        | Opcode.SLT | Opcode.SGT | Opcode.EQ | Opcode.AND | Opcode.OR
        | Opcode.XOR | Opcode.BYTE | Opcode.SHL | Opcode.SHR | Opcode.SAR
        | Opcode.SIGNEXTEND ->
          let a = pop s in
          let b = pop s in
          record (fun r ->
              (match op with
              | Opcode.AND -> (
                match (a, b) with
                | Domain.Load off, other | other, Domain.Load off -> (
                  match Domain.to_const other with
                  | Some m -> r.r_masks <- (off, m) :: r.r_masks
                  | None -> ())
                | Domain.Sval (sl, sh), other | other, Domain.Sval (sl, sh)
                  -> (
                  (* packed storage access: a low run masks the member
                     the (already shifted) read extracts, an inverted
                     run is the write path clearing the member's lane *)
                  match Option.bind (Domain.to_const other) bit_run with
                  | Some (0, w) when w < 256 ->
                    r.r_storage <-
                      { pc; ev = Smask (sl, sh, w) } :: r.r_storage
                  | Some (k, w) when k > 0 && k + w = 256 ->
                    (* keeping only bits [k..256) clears the low lane:
                       the write path for a member at offset 0 *)
                    r.r_storage <-
                      { pc; ev = Smask (sl, 0, k) } :: r.r_storage
                  | Some _ -> ()
                  | None -> (
                    match
                      Option.bind
                        (Option.map U256.lognot (Domain.to_const other))
                        bit_run
                    with
                    | Some (k, w) when w < 256 ->
                      r.r_storage <-
                        { pc; ev = Smask (sl, k, w) } :: r.r_storage
                    | _ -> ()))
                | _ -> ())
              | Opcode.SIGNEXTEND -> (
                match (Domain.to_const_int a, b) with
                | Some k, Domain.Load off ->
                  r.r_signexts <- (off, k) :: r.r_signexts
                | _ -> ())
              | Opcode.BYTE -> (
                match b with
                | Domain.Load off ->
                  r.r_byte_reads <- off :: r.r_byte_reads
                | _ -> ())
              | _ -> ());
              record_cmp r op pc a b);
          push (Domain.lift2 op a b) s
        | Opcode.ADDMOD | Opcode.MULMOD ->
          let a = pop s in
          let b = pop s in
          let c = pop s in
          let v =
            if Domain.tainted a || Domain.tainted b || Domain.tainted c then
              Domain.Tainted
            else Domain.Untainted
          in
          push v s
        | Opcode.ISZERO | Opcode.NOT ->
          let a = pop s in
          push (Domain.lift1 op a) s
        | Opcode.SHA3 ->
          (* The hash is opaque to the executor (a free symbol), but
             its derivation is not: keccak over scratch holding
             [key . slot] is how solc addresses a mapping element, and
             keccak over a single constant word is a dynamic array's
             data base. Everything else stays [Untainted], in parity
             with the executor. *)
          let off = pop s in
          let len = pop s in
          let derived =
            match (Domain.to_const_int off, Domain.to_const_int len) with
            | Some o, Some 0x20 -> (
              match mem_load s o with
              | Domain.Consts [ c ] -> Some (Domain.Arr_of c)
              | _ -> None)
            | Some o, Some 0x40 -> (
              match mem_load s (o + 0x20) with
              | Domain.Consts [ c ] -> Some (Domain.Map_of c)
              | Domain.Slot (Domain.Map_of c | Domain.Arr_of c) ->
                (* nested mapping: keep the root declaration *)
                Some (Domain.Map_of c)
              | _ -> None)
            | _ -> None
          in
          (match derived with
          | Some sl ->
            record (fun r ->
                r.r_storage <- { pc; ev = Sderive sl } :: r.r_storage);
            push (Domain.Slot sl) s
          | None -> push Domain.Untainted s)
        | Opcode.CALLDATALOAD ->
          let loc = pop s in
          record (fun r ->
              match Domain.to_consts loc with
              | Some vs ->
                let offs = List.filter_map U256.to_int vs in
                if List.length offs = List.length vs then
                  r.const_reads <- offs @ r.const_reads
                else r.sym_reads <- r.sym_reads + 1
              | None -> r.sym_reads <- r.sym_reads + 1);
          let v =
            match Domain.to_const_int loc with
            | Some off -> Domain.Load off
            | None -> Domain.Tainted
          in
          push v s
        | Opcode.CALLDATASIZE ->
          record (fun r -> r.cdsize <- true);
          push Domain.Tainted s
        | Opcode.CALLDATACOPY ->
          let dst = pop s in
          let src = pop s in
          let len = pop s in
          record (fun r ->
              r.r_copies <-
                {
                  Summary.pc;
                  src = Domain.to_const_int src;
                  len = Domain.to_const_int len;
                }
                :: r.r_copies);
          (match (Domain.to_const_int dst, Domain.to_const_int len) with
          | Some d, Some l when l <= 0x10000 ->
            mem_store_range s d l Domain.Tainted
          | _ -> mem_store_unknown s Domain.Tainted)
        | Opcode.CODESIZE -> push Domain.Untainted s
        | Opcode.CODECOPY -> (
          let dst = pop s in
          let _ = pop s in
          let len = pop s in
          match (Domain.to_const_int dst, Domain.to_const_int len) with
          | Some d, Some l when l <= 0x10000 ->
            mem_store_range s d l Domain.Untainted
          | _ -> mem_store_unknown s Domain.Untainted)
        | Opcode.ADDRESS | Opcode.ORIGIN | Opcode.CALLER | Opcode.CALLVALUE
        | Opcode.GASPRICE | Opcode.COINBASE | Opcode.TIMESTAMP
        | Opcode.NUMBER | Opcode.PREVRANDAO | Opcode.GASLIMIT
        | Opcode.CHAINID | Opcode.SELFBALANCE | Opcode.BASEFEE
        | Opcode.RETURNDATASIZE | Opcode.MSIZE | Opcode.GAS ->
          push Domain.Untainted s
        | Opcode.BALANCE | Opcode.EXTCODESIZE | Opcode.EXTCODEHASH
        | Opcode.BLOCKHASH ->
          ignore (pop s);
          push Domain.Untainted s
        | Opcode.SLOAD ->
          let loc = pop s in
          let sl = Domain.slot_of loc in
          record (fun r ->
              r.r_storage <- { pc; ev = Sload sl } :: r.r_storage);
          let v =
            match sl with
            | Some sl -> Domain.Sval (sl, 0)
            | None -> Domain.Untainted
          in
          push v s
        | Opcode.EXTCODECOPY ->
          popn 4 s;
          mem_store_unknown s Domain.Untainted
        | Opcode.RETURNDATACOPY ->
          popn 3 s;
          mem_store_unknown s Domain.Untainted
        | Opcode.POP -> ignore (pop s)
        | Opcode.MLOAD ->
          let loc = pop s in
          let v =
            match Domain.to_const_int loc with
            | Some off -> mem_load s off
            | None -> mem_load_unknown s
          in
          push v s
        | Opcode.MSTORE -> (
          let loc = pop s in
          let v = pop s in
          match Domain.to_const_int loc with
          | Some off -> mem_store s off v
          | None -> mem_store_unknown s v)
        | Opcode.MSTORE8 -> (
          let loc = pop s in
          let v = pop s in
          match Domain.to_const_int loc with
          | Some off -> mem_store_byte s off v
          | None -> mem_store_unknown s v)
        | Opcode.SSTORE ->
          let loc = pop s in
          let v = pop s in
          record (fun r ->
              r.r_storage <-
                { pc; ev = Sstore (Domain.slot_of loc, v) } :: r.r_storage)
        | Opcode.PC -> push (Domain.of_int pc) s
        | Opcode.JUMPDEST -> ()
        | Opcode.PUSH (_, v) -> push (Domain.const v) s
        | Opcode.DUP n ->
          let v =
            match List.nth_opt s.s_stack (n - 1) with
            | Some v -> v
            | None -> underflow s
          in
          push v s
        | Opcode.SWAP n ->
          let stack = s.s_stack in
          let stack =
            if List.length stack < n + 1 then
              stack
              @ List.init
                  (n + 1 - List.length stack)
                  (fun _ -> underflow s)
            else stack
          in
          let arr = Array.of_list stack in
          let tmp = arr.(0) in
          arr.(0) <- arr.(n);
          arr.(n) <- tmp;
          s.s_stack <- Array.to_list arr
        | Opcode.LOG n -> popn (n + 2) s
        | Opcode.CREATE ->
          popn 3 s;
          push Domain.Untainted s
        | Opcode.CREATE2 ->
          popn 4 s;
          push Domain.Untainted s
        | Opcode.CALL | Opcode.CALLCODE ->
          popn 7 s;
          mem_store_unknown s Domain.Untainted;
          push Domain.Untainted s
        | Opcode.DELEGATECALL | Opcode.STATICCALL ->
          popn 6 s;
          mem_store_unknown s Domain.Untainted;
          push Domain.Untainted s))
    b.Cfg.instrs;
  (astate_of_scratch s, !term)

(* -- edges ------------------------------------------------------------ *)

let jumpdest_ok cfg start =
  match Cfg.block_at cfg start with
  | Some b -> (
    match b.Cfg.instrs with
    | { Disasm.op = Opcode.JUMPDEST; _ } :: _ -> true
    | _ -> false)
  | None -> false

(* The taken-side targets of a jump: statically resolved edges from the
   CFG plus, when the CFG says [Unresolved], whatever the abstract
   target value pins down. Returns the target starts, whether an
   [Unresolved] edge stayed unresolved, and the newly found targets. *)
let jump_edges cfg (b : Cfg.block) dom =
  let static =
    List.filter_map
      (function
        | Cfg.Jump_to t -> Some t
        | Cfg.Branch { taken; _ } -> Some taken
        | _ -> None)
      b.Cfg.succ
  in
  if not (List.mem Cfg.Unresolved b.Cfg.succ) then (static, false, [])
  else
    match Domain.to_consts dom with
    | Some vs ->
      let ts =
        List.filter (jumpdest_ok cfg) (List.filter_map U256.to_int vs)
      in
      (static @ ts, false, ts)
    | None -> (static, true, [])

let fall_edge (b : Cfg.block) =
  List.find_map
    (function
      | Cfg.Fallthrough o -> Some o
      | Cfg.Branch { fallthrough; _ } -> Some fallthrough
      | _ -> None)
    b.Cfg.succ

(* -- the fixpoint ----------------------------------------------------- *)

let analyze ?(depth = 0) ~entry cfg =
  let t0 = if Tr.enabled () then Tr.now_ns () else 0 in
  let iterations = ref 0 in
  let entry_states : (int, astate) Hashtbl.t = Hashtbl.create 64 in
  let visits = Hashtbl.create 64 in
  let resolved = Hashtbl.create 8 in
  let prune = Hashtbl.create 16 in
  let unknown_jump = ref false in
  let diverged = ref false in
  let init =
    {
      stack = List.init depth (fun _ -> Domain.Untainted);
      mem = Imap.empty;
      mem_rest = Domain.Untainted;
      clipped = false;
    }
  in
  let worklist = Queue.create () in
  let propagate tgt out =
    match Hashtbl.find_opt entry_states tgt with
    | None ->
      Hashtbl.replace entry_states tgt out;
      Queue.push tgt worklist
    | Some old ->
      let joined = join_astate old out in
      if not (equal_astate joined old) then begin
        let v = Option.value ~default:0 (Hashtbl.find_opt visits tgt) in
        Hashtbl.replace visits tgt (v + 1);
        if v > max_block_visits then diverged := true
        else begin
          Hashtbl.replace entry_states tgt joined;
          Queue.push tgt worklist
        end
      end
  in
  (match Cfg.block_at cfg entry with
  | Some _ ->
    Hashtbl.replace entry_states entry init;
    Queue.push entry worklist
  | None -> unknown_jump := true);
  while not (Queue.is_empty worklist) do
    let start = Queue.pop worklist in
    incr iterations;
    match Cfg.block_at cfg start with
    | None -> ()
    | Some b ->
      let st = Hashtbl.find entry_states start in
      let out, term = interp_block st b in
      (match term with
      | T_halt -> ()
      | T_fall ->
        Option.iter (fun o -> propagate o out) (fall_edge b)
      | T_jump dom ->
        let edges, unknown, fresh = jump_edges cfg b dom in
        if unknown then unknown_jump := true;
        if fresh <> [] then begin
          let cur =
            Option.value ~default:[] (Hashtbl.find_opt resolved b.Cfg.start)
          in
          Hashtbl.replace resolved b.Cfg.start
            (List.sort_uniq compare (fresh @ cur))
        end;
        List.iter (fun o -> propagate o out) edges
      | T_branch (tdom, cdom) ->
        let taken, unknown, fresh = jump_edges cfg b tdom in
        if unknown then unknown_jump := true;
        if fresh <> [] then begin
          let cur =
            Option.value ~default:[] (Hashtbl.find_opt resolved b.Cfg.start)
          in
          Hashtbl.replace resolved b.Cfg.start
            (List.sort_uniq compare (fresh @ cur))
        end;
        let fall = fall_edge b in
        (match Domain.truth cdom with
        | Some true -> List.iter (fun o -> propagate o out) taken
        | Some false -> Option.iter (fun o -> propagate o out) fall
        | None ->
          List.iter (fun o -> propagate o out) taken;
          Option.iter (fun o -> propagate o out) fall))
  done;
  let converged = not !diverged in

  (* -- which blocks can still touch the call data? -------------------- *)
  let uses_calldata (b : Cfg.block) =
    List.exists
      (fun i ->
        match i.Disasm.op with
        | Opcode.CALLDATALOAD | Opcode.CALLDATACOPY | Opcode.CALLDATASIZE ->
          true
        | _ -> false)
      b.Cfg.instrs
  in
  let succ_starts (b : Cfg.block) =
    List.concat_map
      (function
        | Cfg.Fallthrough o | Cfg.Jump_to o -> [ o ]
        | Cfg.Branch { taken; fallthrough } -> [ taken; fallthrough ]
        | Cfg.Exit -> []
        | Cfg.Unresolved ->
          Option.value ~default:[] (Hashtbl.find_opt resolved b.Cfg.start))
      b.Cfg.succ
  in
  let still_unresolved (b : Cfg.block) =
    List.mem Cfg.Unresolved b.Cfg.succ
    && Hashtbl.find_opt resolved b.Cfg.start = None
  in
  let relevant = Hashtbl.create 64 in
  Cfg.iter_blocks
    (fun b ->
      if uses_calldata b || still_unresolved b then
        Hashtbl.replace relevant b.Cfg.start ())
    cfg;
  let changed = ref true in
  while !changed do
    changed := false;
    Cfg.iter_blocks
      (fun b ->
        if not (Hashtbl.mem relevant b.Cfg.start) then
          if List.exists (Hashtbl.mem relevant) (succ_starts b) then begin
            Hashtbl.replace relevant b.Cfg.start ();
            changed := true
          end)
      cfg
  done;

  (* -- recording pass over the reached blocks ------------------------- *)
  let acc = fresh_acc () in
  let clean st =
    (not st.clipped)
    && (not (Domain.tainted st.mem_rest))
    && List.for_all (fun v -> not (Domain.tainted v)) st.stack
    && Imap.for_all (fun _ v -> not (Domain.tainted v)) st.mem
  in
  Hashtbl.iter
    (fun start st ->
      match Cfg.block_at cfg start with
      | None -> ()
      | Some b -> (
        let out, term = interp_block ~acc st b in
        match term with
        | T_branch (tdom, cdom) when converged -> (
          let taken, unknown, _ = jump_edges cfg b tdom in
          let fall = fall_edge b in
          let pc =
            match List.rev b.Cfg.instrs with
            | { Disasm.offset; _ } :: _ -> offset
            | [] -> start
          in
          match Domain.truth cdom with
          | Some true when taken <> [] && not unknown ->
            Hashtbl.replace prune pc Take_jump
          | Some false when fall <> None ->
            Hashtbl.replace prune pc Take_fallthrough
          | Some _ -> ()
          | None ->
            if
              (not (Domain.tainted cdom))
              && clean out && not unknown
              && taken <> [] && fall <> None
            then begin
              let taken_rel = List.exists (Hashtbl.mem relevant) taken in
              let fall_rel =
                match fall with
                | Some o -> Hashtbl.mem relevant o
                | None -> false
              in
              match (taken_rel, fall_rel) with
              | true, true -> ()
              | true, false -> Hashtbl.replace prune pc Take_jump
              | false, _ -> Hashtbl.replace prune pc Take_fallthrough
            end)
        | _ -> ()))
    entry_states;
  let complete = converged && not !unknown_jump in
  let summary =
    {
      Summary.entry;
      const_reads = List.sort_uniq compare acc.const_reads;
      sym_reads = acc.sym_reads;
      masks = List.sort_uniq compare acc.r_masks;
      signexts = List.sort_uniq compare acc.r_signexts;
      byte_reads = List.sort_uniq compare acc.r_byte_reads;
      copies = List.sort_uniq compare acc.r_copies;
      bound_checks = List.sort_uniq compare acc.r_bounds;
      uses_cdsize = acc.cdsize;
      tainted_branches = acc.tainted_branches;
      complete;
    }
  in
  (* The recording pass iterates a hash table, so impose a canonical
     order on the storage events: each reached block is interpreted once
     and each instruction records at most one event, so [pc] alone is a
     total order. *)
  let storage =
    List.sort (fun a b -> Int.compare a.pc b.pc) acc.r_storage
  in
  (* a diverged analysis has no business steering the executor *)
  if not converged then Hashtbl.reset prune;
  if Tr.enabled () then
    Tr.complete Tr.Absint "fixpoint" ~t0_ns:t0
      [
        ("entry", Tr.Int entry);
        ("iterations", Tr.Int !iterations);
        ("resolved_jumps", Tr.Int (Hashtbl.length resolved));
        ("unresolved", Tr.Bool !unknown_jump);
        ("converged", Tr.Bool converged);
      ];
  { cfg; entry; entry_states; resolved; summary; storage; prune; converged }

let reached t start = Hashtbl.mem t.entry_states start

let prune_decision t pc = Hashtbl.find_opt t.prune pc

let resolved_targets t start =
  Option.value ~default:[] (Hashtbl.find_opt t.resolved start)

let resolved_count t = Hashtbl.length t.resolved

let resolved_cfg t =
  if Hashtbl.length t.resolved = 0 then t.cfg
  else Cfg.resolve t.cfg (resolved_targets t)
