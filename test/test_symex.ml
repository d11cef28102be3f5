(* The symbolic executor: event recording, expression shapes, loop
   bounding, fork budgets. Programs are hand-assembled so the expected
   traces are known exactly. *)

open Evm
module Sexpr = Symex.Sexpr
module Trace = Symex.Trace

let run_ops ?budget ops =
  Symex.Exec.run ?budget ~code:(Asm.assemble_ops ops) ~entry:0 ~init_stack:[] ()

let run_items ?budget items =
  Symex.Exec.run ?budget ~code:(Asm.assemble items) ~entry:0 ~init_stack:[] ()

let test_load_recorded () =
  let t = run_ops Opcode.[ push 4; CALLDATALOAD; POP; STOP ] in
  match t.Trace.loads with
  | [ l ] ->
    Alcotest.(check (option int)) "constant loc" (Some 4)
      (Sexpr.to_const_int l.Trace.loc)
  | ls -> Alcotest.failf "expected one load, got %d" (List.length ls)

let test_mask_event () =
  let t =
    run_ops
      Opcode.[ push 4; CALLDATALOAD; push_u256 (U256.ones_low 20); AND; POP; STOP ]
  in
  match t.Trace.usages with
  | [ { Trace.kind = Trace.Mask_and m; subject = Trace.Sub_load 0; _ } ] ->
    Alcotest.(check bool) "20-byte mask" true (U256.equal m (U256.ones_low 20))
  | _ -> Alcotest.fail "expected one Mask_and usage on load 0"

let test_signextend_event () =
  let t =
    run_ops Opcode.[ push 4; CALLDATALOAD; push 3; SIGNEXTEND; POP; STOP ]
  in
  Alcotest.(check bool) "signext recorded" true
    (List.exists
       (fun u -> u.Trace.kind = Trace.Mask_signext 3)
       t.Trace.usages)

let test_bool_mask_event () =
  let t =
    run_ops Opcode.[ push 4; CALLDATALOAD; ISZERO; ISZERO; POP; STOP ]
  in
  Alcotest.(check bool) "double iszero recorded" true
    (List.exists (fun u -> u.Trace.kind = Trace.Mask_bool) t.Trace.usages)

let test_byte_event () =
  let t =
    run_ops Opcode.[ push 4; CALLDATALOAD; push 0; BYTE; POP; STOP ]
  in
  Alcotest.(check bool) "byte read recorded" true
    (List.exists (fun u -> u.Trace.kind = Trace.Byte_read) t.Trace.usages)

let test_signed_use_event () =
  let t =
    run_ops Opcode.[ push 2; push 4; CALLDATALOAD; SDIV; POP; STOP ]
  in
  Alcotest.(check bool) "sdiv recorded" true
    (List.exists (fun u -> u.Trace.kind = Trace.Signed_use) t.Trace.usages)

let test_copy_and_region () =
  (* copy 32 bytes of calldata into memory, read it back, mask it: the
     mask must be attributed to the copy's region *)
  let t =
    run_ops
      Opcode.[
        push 32; push 4; push 0x100; CALLDATACOPY;
        push 0x100; MLOAD;
        push_u256 (U256.ones_low 1); AND; POP; STOP;
      ]
  in
  (match t.Trace.copies with
  | [ c ] ->
    Alcotest.(check (option int)) "src" (Some 4) (Sexpr.to_const_int c.Trace.src)
  | _ -> Alcotest.fail "expected one copy");
  Alcotest.(check bool) "mask on region" true
    (List.exists
       (fun u ->
         match (u.Trace.subject, u.Trace.kind) with
         | Trace.Sub_region _, Trace.Mask_and _ -> true
         | _ -> false)
       t.Trace.usages)

let test_mstore_mload_roundtrip () =
  (* a value stored to concrete memory comes back symbolically intact *)
  let t =
    run_ops
      Opcode.[
        push 4; CALLDATALOAD; push 0x40; MSTORE;
        push 0x40; MLOAD; push 1; ADD; POP; STOP;
      ]
  in
  (* the math use must land on the original load *)
  Alcotest.(check bool) "math on load through memory" true
    (List.exists
       (fun u ->
         u.Trace.subject = Trace.Sub_load 0 && u.Trace.kind = Trace.Math_use)
       t.Trace.usages)

let test_symbolic_branch_forks () =
  (* both sides of a symbolic branch must be explored *)
  let t =
    run_items
      Asm.[
        Op Opcode.CALLVALUE;
        Push_label "a";
        Op Opcode.JUMPI;
        Op (Opcode.push 8); Op Opcode.CALLDATALOAD; Op Opcode.POP;
        Op Opcode.STOP;
        Label "a";
        Op (Opcode.push 40); Op Opcode.CALLDATALOAD; Op Opcode.POP;
        Op Opcode.STOP;
      ]
  in
  let locs =
    List.filter_map (fun l -> Sexpr.to_const_int l.Trace.loc) t.Trace.loads
  in
  Alcotest.(check bool) "both branches visited" true
    (List.mem 8 locs && List.mem 40 locs);
  Alcotest.(check int) "two paths" 2 t.Trace.paths_explored

let test_concrete_branch_no_fork () =
  let t =
    run_items
      Asm.[
        Op (Opcode.push 0);
        Push_label "dead";
        Op Opcode.JUMPI;
        Op Opcode.STOP;
        Label "dead";
        Op (Opcode.push 99); Op Opcode.CALLDATALOAD; Op Opcode.POP;
        Op Opcode.STOP;
      ]
  in
  Alcotest.(check int) "dead branch not taken" 0 (List.length t.Trace.loads);
  Alcotest.(check int) "single path" 1 t.Trace.paths_explored

let test_symbolic_loop_bounded () =
  (* while (i < calldataload(4)) i++ — must terminate via the fork
     budget *)
  let t =
    run_items
      Asm.[
        Op (Opcode.push 0); Op (Opcode.push 0); Op Opcode.MSTORE;
        Label "head";
        Op (Opcode.push 4); Op Opcode.CALLDATALOAD;
        Op (Opcode.push 0); Op Opcode.MLOAD;
        Op Opcode.LT;
        Op Opcode.ISZERO;
        Push_label "exit";
        Op Opcode.JUMPI;
        Op (Opcode.push 0); Op Opcode.MLOAD;
        Op (Opcode.push 1); Op Opcode.ADD;
        Op (Opcode.push 0); Op Opcode.MSTORE;
        Push_label "head";
        Op Opcode.JUMP;
        Label "exit";
        Op Opcode.STOP;
      ]
  in
  Alcotest.(check bool) "bounded paths" true (t.Trace.paths_explored <= 16)

let test_jumpi_conds_recorded () =
  let t =
    run_items
      Asm.[
        Op (Opcode.push 10);
        Op Opcode.CALLVALUE;
        Op Opcode.LT;
        Push_label "ok";
        Op Opcode.JUMPI;
        Op Opcode.STOP;
        Label "ok";
        Op Opcode.STOP;
      ]
  in
  let found = ref false in
  Hashtbl.iter
    (fun _ conds ->
      List.iter
        (fun c ->
          match Sexpr.node c with
          | Sexpr.Bin (Sexpr.Blt, l, r) -> (
            match (Sexpr.node l, Sexpr.node r) with
            | Sexpr.Env _, Sexpr.Const _ -> found := true
            | _ -> ())
          | _ -> ())
        conds)
    t.Trace.jumpi_conds;
  Alcotest.(check bool) "LT condition kept structurally" true !found

let test_range_check_event () =
  (* Vyper-style: value < bound guarded branch yields a Range_lt *)
  let t =
    run_items
      Asm.[
        Op (Opcode.push 4); Op Opcode.CALLDATALOAD;
        Op (Opcode.push_u256 (U256.pow2 160));
        Op (Opcode.DUP 2); Op Opcode.LT; Op Opcode.ISZERO;
        Push_label "revert"; Op Opcode.JUMPI;
        Op Opcode.POP; Op Opcode.POP; Op Opcode.STOP;
        Label "revert";
        Op (Opcode.push 0); Op (Opcode.push 0); Op Opcode.REVERT;
      ]
  in
  Alcotest.(check bool) "range check recorded" true
    (List.exists
       (fun u ->
         match u.Trace.kind with
         | Trace.Range_lt b -> U256.equal b (U256.pow2 160)
         | _ -> false)
       t.Trace.usages)

let test_symbolic_jump_kills_path () =
  (* jump to a calldata-dependent target must end the path quietly *)
  let t = run_ops Opcode.[ push 4; CALLDATALOAD; JUMP; STOP ] in
  Alcotest.(check int) "one path" 1 t.Trace.paths_explored

let test_stack_underflow_recovers () =
  (* popping an empty stack yields a fresh symbol, not a crash *)
  let t = run_ops Opcode.[ POP; POP; push 1; POP; STOP ] in
  Alcotest.(check int) "no loads" 0 (List.length t.Trace.loads)

let test_expr_queries () =
  let x = Sexpr.cdload 0 in
  let e =
    Sexpr.bin Sexpr.Badd (Sexpr.of_int 4)
      (Sexpr.bin Sexpr.Bmul (Sexpr.of_int 32) (Sexpr.env "cv"))
  in
  Alcotest.(check bool) "has_mul_by 32" true (Sexpr.has_mul_by e 32);
  Alcotest.(check bool) "no mul by 31" false (Sexpr.has_mul_by e 31);
  Alcotest.(check int) "const offset" 4 (Sexpr.const_offset e);
  Alcotest.(check bool) "contains env" true (Sexpr.contains e (Sexpr.env "cv"));
  Alcotest.(check bool) "mentions load" true
    (Sexpr.mentions_load (Sexpr.bin Sexpr.Badd x (Sexpr.of_int 4)) 0);
  let masked = Sexpr.bin Sexpr.Band x (Sexpr.const (U256.ones_low 20)) in
  Alcotest.(check bool) "subject strips mask" true
    (Sexpr.subject masked = Some (`Load 0));
  (* constant folding except comparisons *)
  (match Sexpr.node (Sexpr.bin Sexpr.Badd (Sexpr.of_int 2) (Sexpr.of_int 3)) with
  | Sexpr.Const v -> Alcotest.(check bool) "2+3 folds" true (U256.equal v (U256.of_int 5))
  | _ -> Alcotest.fail "addition should fold");
  (match Sexpr.node (Sexpr.bin Sexpr.Blt (Sexpr.of_int 2) (Sexpr.of_int 3)) with
  | Sexpr.Bin (Sexpr.Blt, _, _) -> ()
  | _ -> Alcotest.fail "comparison must stay structural");
  Alcotest.(check bool) "eval_concrete recovers truth" true
    (match Sexpr.eval_concrete (Sexpr.bin Sexpr.Blt (Sexpr.of_int 2) (Sexpr.of_int 3)) with
    | Some v -> U256.equal v U256.one
    | None -> false)

(* ---- hash-consing invariants ---------------------------------------- *)

let test_interning_physical_equality () =
  (* the same tree built along different construction paths must come
     back as the same physical node *)
  let a =
    Sexpr.bin Sexpr.Badd (Sexpr.cdload 1)
      (Sexpr.bin Sexpr.Bmul (Sexpr.of_int 32) (Sexpr.env "i"))
  in
  let mul = Sexpr.bin Sexpr.Bmul (Sexpr.of_int 32) (Sexpr.env "i") in
  let b = Sexpr.bin Sexpr.Badd (Sexpr.cdload 1) mul in
  Alcotest.(check bool) "physically equal" true (a == b);
  Alcotest.(check bool) "equal agrees" true (Sexpr.equal a b);
  Alcotest.(check int) "same id" (Sexpr.id a) (Sexpr.id b);
  Alcotest.(check int) "same hash" (Sexpr.hash a) (Sexpr.hash b);
  (* leaves intern too *)
  Alcotest.(check bool) "const interned" true
    (Sexpr.const (U256.of_int 77777) == Sexpr.const (U256.of_int 77777));
  Alcotest.(check bool) "cdload interned" true
    (Sexpr.cdload 3 == Sexpr.cdload 3);
  Alcotest.(check bool) "env interned" true
    (Sexpr.env "caller" == Sexpr.env "caller");
  Alcotest.(check bool) "cdsize interned" true
    (Sexpr.cdsize () == Sexpr.cdsize ());
  Alcotest.(check bool) "mem_item interned" true
    (Sexpr.mem_item 5 (Sexpr.of_int 0) == Sexpr.mem_item 5 (Sexpr.of_int 0));
  (* distinct trees stay distinct *)
  Alcotest.(check bool) "different ops differ" false
    (Sexpr.bin Sexpr.Bsub a a == Sexpr.bin Sexpr.Badd a a);
  (* simplifier runs before interning: x + 0 yields x itself *)
  Alcotest.(check bool) "x + 0 is x" true
    (Sexpr.bin Sexpr.Badd a (Sexpr.of_int 0) == a);
  (* triple-iszero collapses to the interned single iszero *)
  let iz e = Sexpr.un Sexpr.Uiszero e in
  Alcotest.(check bool) "iszero^3 = iszero^1" true (iz (iz (iz a)) == iz a)

(* A structural clone of the pre-interning Sexpr: plain variant nodes,
   the same simplifier decision tree, injective printing. Used as the
   oracle for "simplifier output unchanged under interning". *)
module Oracle = struct
  type t =
    | Const of U256.t
    | CDLoad of int
    | CDSize
    | Env of string
    | MemItem of int * t
    | Bin of Sexpr.binop * t * t
    | Un of Sexpr.unop * t

  let un op e =
    match (op, e) with
    | Sexpr.Unot, Const v -> Const (U256.lognot v)
    | Sexpr.Uiszero, Const v ->
      Const (if U256.is_zero v then U256.one else U256.zero)
    | Sexpr.Uiszero, Un (Sexpr.Uiszero, Un (Sexpr.Uiszero, x)) ->
      Un (Sexpr.Uiszero, x)
    | _ -> Un (op, e)

  let is_comparison = function
    | Sexpr.Blt | Sexpr.Bgt | Sexpr.Bslt | Sexpr.Bsgt | Sexpr.Beq -> true
    | _ -> false

  let eval_bin op a b =
    Option.get
      (Sexpr.eval_concrete
         (Sexpr.bin op (Sexpr.const a) (Sexpr.const b)))

  let bin op a b =
    match (a, b) with
    | Const x, Const y when not (is_comparison op) -> Const (eval_bin op x y)
    | _ -> (
      match (op, a, b) with
      | Sexpr.Badd, x, Const z when U256.is_zero z -> x
      | Sexpr.Badd, Const z, x when U256.is_zero z -> x
      | Sexpr.Bmul, x, Const o when U256.equal o U256.one -> x
      | Sexpr.Bmul, Const o, x when U256.equal o U256.one -> x
      | Sexpr.Badd, Bin (Sexpr.Badd, x, Const c1), Const c2 ->
        Bin (Sexpr.Badd, x, Const (U256.add c1 c2))
      | Sexpr.Badd, Const c1, Bin (Sexpr.Badd, x, Const c2) ->
        Bin (Sexpr.Badd, x, Const (U256.add c1 c2))
      | _ -> Bin (op, a, b))

  let binop_name op =
    (* reuse the interned printer for operator names via a probe term *)
    match
      String.split_on_char ' '
        (Sexpr.to_string
           (Sexpr.bin op (Sexpr.env "l") (Sexpr.env "r")))
    with
    | [ _; name; _ ] -> name
    | _ -> assert false

  let rec equal a b =
    match (a, b) with
    | Const x, Const y -> U256.equal x y
    | CDLoad i, CDLoad j -> i = j
    | CDSize, CDSize -> true
    | Env x, Env y -> String.equal x y
    | MemItem (r, x), MemItem (q, y) -> r = q && equal x y
    | Bin (op, a1, b1), Bin (oq, a2, b2) ->
      op = oq && equal a1 a2 && equal b1 b2
    | Un (op, x), Un (oq, y) -> op = oq && equal x y
    | _ -> false

  let rec to_string = function
    | Const v -> "0x" ^ U256.to_hex v
    | CDLoad id -> Printf.sprintf "cd%d" id
    | CDSize -> "cdsize"
    | Env name -> name
    | MemItem (rid, off) -> Printf.sprintf "mem%d[%s]" rid (to_string off)
    | Bin (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (to_string a) (binop_name op) (to_string b)
    | Un (Sexpr.Unot, a) -> Printf.sprintf "~%s" (to_string a)
    | Un (Sexpr.Uiszero, a) -> Printf.sprintf "!%s" (to_string a)
end

let all_binops =
  Sexpr.
    [
      Badd; Bsub; Bmul; Bdiv; Bsdiv; Bmod; Bsmod; Bexp; Band; Bor; Bxor;
      Blt; Bgt; Bslt; Bsgt; Beq; Bbyte; Bshl; Bshr; Bsar; Bsignext;
    ]

let test_simplifier_matches_oracle () =
  (* drive both constructors with the same random construction schedule
     and require identical printed terms. Seeded: reproducible corpus. *)
  let rng = Random.State.make [| 0x5169ec |] in
  let interesting_consts =
    [ 0; 1; 2; 3; 4; 31; 32; 36; 255; 256; 1024 ]
  in
  let rand_const () =
    if Random.State.bool rng then
      U256.of_int
        (List.nth interesting_consts
           (Random.State.int rng (List.length interesting_consts)))
    else U256.of_int64 (Random.State.int64 rng Int64.max_int)
  in
  let rec gen depth : Sexpr.t * Oracle.t =
    if depth = 0 || Random.State.int rng 4 = 0 then
      match Random.State.int rng 5 with
      | 0 ->
        let v = rand_const () in
        (Sexpr.const v, Oracle.Const v)
      | 1 ->
        let i = Random.State.int rng 4 in
        (Sexpr.cdload i, Oracle.CDLoad i)
      | 2 -> (Sexpr.cdsize (), Oracle.CDSize)
      | 3 ->
        let name = Printf.sprintf "e%d" (Random.State.int rng 3) in
        (Sexpr.env name, Oracle.Env name)
      | _ ->
        let rid = Random.State.int rng 3 in
        let off = U256.of_int (32 * Random.State.int rng 4) in
        (Sexpr.mem_item rid (Sexpr.const off),
         Oracle.MemItem (rid, Oracle.Const off))
    else if Random.State.int rng 4 = 0 then begin
      let op = if Random.State.bool rng then Sexpr.Unot else Sexpr.Uiszero in
      let s, o = gen (depth - 1) in
      (Sexpr.un op s, Oracle.un op o)
    end
    else begin
      let op = List.nth all_binops (Random.State.int rng 21) in
      let sa, oa = gen (depth - 1) in
      let sb, ob = gen (depth - 1) in
      (Sexpr.bin op sa sb, Oracle.bin op oa ob)
    end
  in
  (* plus 240 offset-arithmetic trees in four equality classes, the
     shape the recorder's event dedup keys on *)
  let const n = (Sexpr.of_int n, Oracle.Const (U256.of_int n)) in
  let offset_tree i =
    let base = 4 + (32 * (i mod 4)) in
    let s = ref (Sexpr.cdload base) and o = ref (Oracle.CDLoad base) in
    for k = 1 to 6 do
      let s32, o32 = const 32 and sk, ok = const (k * 32) in
      s := Sexpr.bin Sexpr.Badd (Sexpr.bin Sexpr.Bmul !s s32) sk;
      o := Oracle.bin Sexpr.Badd (Oracle.bin Sexpr.Bmul !o o32) ok
    done;
    (Sexpr.un Sexpr.Uiszero !s, Oracle.un Sexpr.Uiszero !o)
  in
  let terms =
    Array.append
      (Array.init 1000 (fun _ -> gen 5))
      (Array.init 240 offset_tree)
  in
  Array.iteri
    (fun i (s, o) ->
      let ss = Sexpr.to_string s and os = Oracle.to_string o in
      if not (String.equal ss os) then
        Alcotest.failf "case %d: interned %s <> oracle %s" (i + 1) ss os)
    terms;
  (* interned equality, and the node id event dedup keys on, partition
     the terms exactly as the oracle's structural equality does *)
  Array.iteri
    (fun i (s1, o1) ->
      Array.iteri
        (fun j (s2, o2) ->
          let structural = Oracle.equal o1 o2 in
          if
            Sexpr.equal s1 s2 <> structural
            || (Sexpr.id s1 = Sexpr.id s2) <> structural
          then
            Alcotest.failf "cases %d and %d: interned equality %b, oracle %b"
              (i + 1) (j + 1) (Sexpr.equal s1 s2) structural)
        terms)
    terms

let test_query_memo_consistency () =
  (* memoized queries must agree with themselves across repeated calls
     and with a fresh structurally identical term *)
  let e =
    Sexpr.bin Sexpr.Badd
      (Sexpr.bin Sexpr.Bmul (Sexpr.of_int 32) (Sexpr.cdload 2))
      (Sexpr.bin Sexpr.Badd (Sexpr.cdload 1) (Sexpr.of_int 68))
  in
  let l1 = Sexpr.loads_of e in
  let l2 = Sexpr.loads_of e in
  Alcotest.(check (list int)) "loads_of stable" l1 l2;
  Alcotest.(check (list int)) "loads in traversal order" [ 2; 1 ] l1;
  Alcotest.(check int) "const_offset memo" (Sexpr.const_offset e)
    (Sexpr.const_offset e);
  Alcotest.(check bool) "has_mul_by memo" (Sexpr.has_mul_by e 32)
    (Sexpr.has_mul_by e 32);
  let hits0, misses0 = Sexpr.interner_counters () in
  let _ = Sexpr.bin Sexpr.Badd (Sexpr.cdload 1) (Sexpr.of_int 68) in
  let hits1, misses1 = Sexpr.interner_counters () in
  Alcotest.(check bool) "rebuild hits the interner" true (hits1 > hits0);
  Alcotest.(check int) "rebuild allocates nothing" misses0 misses1

(* A jump the interpreter answers with [Bad_jump] ends the symbolic
   path: a 0x5b byte inside a PUSH immediate is push data, and a target
   at or past the end of the code is no instruction at all. Both
   programs load call data after the real JUMPDEST; the JUMPI program
   branches on call data, so a target taken as valid forks a second
   path that loads it. *)
let test_invalid_jump_targets_end_path () =
  (* PUSH1 t; JUMP; PUSH2 0x5b5b; JUMPDEST; PUSH1 4; CALLDATALOAD;
     STOP — eleven bytes *)
  let jump t = Printf.sprintf "60%02x56615b5b5b60043500" t in
  (* PUSH1 0; CALLDATALOAD; PUSH1 t; JUMPI; PUSH2 0x5b5b; JUMPDEST;
     PUSH1 4; CALLDATALOAD; STOP — fourteen bytes *)
  let jumpi t = Printf.sprintf "60003560%02x57615b5b5b60043500" t in
  let check name hex ~paths ~loads =
    let t =
      Symex.Exec.run ~code:(Hex.decode hex) ~entry:0 ~init_stack:[] ()
    in
    Alcotest.(check int) (name ^ ": paths") paths t.Trace.paths_explored;
    Alcotest.(check int) (name ^ ": loads") loads
      (List.length t.Trace.loads)
  in
  check "JUMP to the JUMPDEST" (jump 6) ~paths:1 ~loads:1;
  check "JUMP into push data" (jump 4) ~paths:1 ~loads:0;
  check "JUMP to the end" (jump 11) ~paths:1 ~loads:0;
  check "JUMP past the end" (jump 0xff) ~paths:1 ~loads:0;
  check "JUMPI to the JUMPDEST" (jumpi 9) ~paths:2 ~loads:2;
  check "JUMPI into push data" (jumpi 7) ~paths:1 ~loads:1;
  check "JUMPI to the end" (jumpi 14) ~paths:1 ~loads:1;
  check "JUMPI past the end" (jumpi 0xff) ~paths:1 ~loads:1

(* A dispatcher comparison: the selector from the first call-data word
   against a 4-byte id, and a jump to the body when they are equal.
   [stop_taken] holding at that JUMPI leaves the fall-through path
   only, with the condition and target still recorded; without it the
   run forks into the body as well. *)
let test_stop_taken_follows_fallthrough () =
  let code =
    Asm.assemble
      Asm.[
        Op (Opcode.push 0); Op Opcode.CALLDATALOAD;
        Op (Opcode.push 0xe0); Op Opcode.SHR;
        Op (Opcode.PUSH (4, U256.of_int 0xa9059cbb)); Op Opcode.EQ;
        Push_label "body";
        Op Opcode.JUMPI;
        Op Opcode.STOP;
        Label "body";
        Op (Opcode.push 4); Op Opcode.CALLDATALOAD; Op Opcode.POP;
        Op Opcode.STOP;
      ]
  in
  let offset_of op =
    (List.find (fun i -> i.Disasm.op = op) (Disasm.disassemble code))
      .Disasm.offset
  in
  let jumpi = offset_of Opcode.JUMPI and body = offset_of Opcode.JUMPDEST in
  let is_eq c =
    match Sexpr.node c with Sexpr.Bin (Sexpr.Beq, _, _) -> true | _ -> false
  in
  let program = Symex.Exec.prepare code in
  let run ?stop_taken () =
    Symex.Exec.run_prepared ?stop_taken program ~entry:0 ~init_stack:[] ()
  in
  let stopped = run ~stop_taken:is_eq () in
  Alcotest.(check int) "stopped: one path" 1 stopped.Trace.paths_explored;
  Alcotest.(check int) "stopped: the body's load never runs" 1
    (List.length stopped.Trace.loads);
  Alcotest.(check (option int)) "stopped: target recorded" (Some body)
    (Hashtbl.find_opt stopped.Trace.jumpi_targets jumpi);
  Alcotest.(check (list bool)) "stopped: condition recorded" [ true ]
    (List.map is_eq (Trace.conds_at stopped jumpi));
  let full = run () in
  Alcotest.(check int) "no predicate: two paths" 2 full.Trace.paths_explored;
  Alcotest.(check int) "no predicate: the body loads too" 2
    (List.length full.Trace.loads)

let suite =
  [
    Alcotest.test_case "load recorded" `Quick test_load_recorded;
    Alcotest.test_case "mask event" `Quick test_mask_event;
    Alcotest.test_case "signextend event" `Quick test_signextend_event;
    Alcotest.test_case "bool mask event" `Quick test_bool_mask_event;
    Alcotest.test_case "byte event" `Quick test_byte_event;
    Alcotest.test_case "signed use event" `Quick test_signed_use_event;
    Alcotest.test_case "copy region attribution" `Quick test_copy_and_region;
    Alcotest.test_case "memory roundtrip" `Quick test_mstore_mload_roundtrip;
    Alcotest.test_case "symbolic branch forks" `Quick test_symbolic_branch_forks;
    Alcotest.test_case "concrete branch no fork" `Quick test_concrete_branch_no_fork;
    Alcotest.test_case "symbolic loop bounded" `Quick test_symbolic_loop_bounded;
    Alcotest.test_case "jumpi conds recorded" `Quick test_jumpi_conds_recorded;
    Alcotest.test_case "range check event" `Quick test_range_check_event;
    Alcotest.test_case "symbolic jump ends path" `Quick test_symbolic_jump_kills_path;
    Alcotest.test_case "stack underflow recovers" `Quick test_stack_underflow_recovers;
    Alcotest.test_case "expression queries" `Quick test_expr_queries;
    Alcotest.test_case "interning physical equality" `Quick
      test_interning_physical_equality;
    Alcotest.test_case "simplifier matches oracle" `Quick
      test_simplifier_matches_oracle;
    Alcotest.test_case "query memo consistency" `Quick
      test_query_memo_consistency;
    Alcotest.test_case "invalid jump targets end the path" `Quick
      test_invalid_jump_targets_end_path;
    Alcotest.test_case "stop_taken follows the fall-through arm" `Quick
      test_stop_taken_follows_fallthrough;
  ]
