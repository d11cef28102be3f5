open Evm

type binop =
  | Badd | Bsub | Bmul | Bdiv | Bsdiv | Bmod | Bsmod | Bexp
  | Band | Bor | Bxor
  | Blt | Bgt | Bslt | Bsgt | Beq
  | Bbyte | Bshl | Bshr | Bsar | Bsignext

type unop = Unot | Uiszero

(* Hash-consed nodes: structurally equal terms are physically equal, so
   [equal] is pointer comparison and [hash]/[compare] read cached
   fields. Construction goes through the smart constructors below, which
   intern into per-domain tables. *)
type t = { node : node; id : int; hkey : int }

and node =
  | Const of U256.t
  | CDLoad of int
  | CDSize
  | Env of string
  | MemItem of int * t
  | Bin of binop * t * t
  | Un of unop * t

let node e = e.node
let id e = e.id
let hash e = e.hkey
let equal (x : t) (y : t) = x == y
let compare (x : t) (y : t) = Stdlib.compare x.id y.id

let binop_tag = function
  | Badd -> 0 | Bsub -> 1 | Bmul -> 2 | Bdiv -> 3 | Bsdiv -> 4
  | Bmod -> 5 | Bsmod -> 6 | Bexp -> 7 | Band -> 8 | Bor -> 9
  | Bxor -> 10 | Blt -> 11 | Bgt -> 12 | Bslt -> 13 | Bsgt -> 14
  | Beq -> 15 | Bbyte -> 16 | Bshl -> 17 | Bshr -> 18 | Bsar -> 19
  | Bsignext -> 20

let unop_tag = function Unot -> 0 | Uiszero -> 1
let combine h1 h2 = (h1 * 0x1000193) lxor (h2 land Stdlib.max_int)

(* -- per-domain interner ----------------------------------------------- *)

type interner = {
  consts : (U256.t, t) Hc.t;
  cdloads : (int, t) Hc.t;
  envs : (string, t) Hc.t;
  mems : (int * t, t) Hc.t;
  bins : (binop * t * t, t) Hc.t;
  uns : (unop * t, t) Hc.t;
  cdsize_node : t;
  (* memo tables for the structural queries the rule matchers repeat;
     keyed by node id, which is unique and never reused in a domain *)
  loads_memo : (int, int list) Hashtbl.t;
  mul_memo : (int * int, bool) Hashtbl.t;
  subject_memo : (int, [ `Load of int | `Region of int ] option) Hashtbl.t;
  offset_memo : (int, int) Hashtbl.t;
  contains_memo : (int * int, bool) Hashtbl.t;
  eval_memo : (int, U256.t option) Hashtbl.t;
}

let make_interner () =
  let ids = ref 0 in
  let fresh node hkey =
    let id = !ids in
    ids := id + 1;
    { node; id; hkey }
  in
  {
    consts = Hc.create ~ids ~hash:U256.hash ~equal:U256.equal 512;
    cdloads =
      Hc.create ~ids ~hash:Stdlib.Hashtbl.hash ~equal:Int.equal 64;
    envs = Hc.create ~ids ~hash:Stdlib.Hashtbl.hash ~equal:String.equal 64;
    mems =
      Hc.create ~ids
        ~hash:(fun (rid, off) -> combine rid off.id)
        ~equal:(fun (r1, o1) (r2, o2) -> r1 = r2 && o1 == o2)
        256;
    bins =
      Hc.create ~ids
        ~hash:(fun (op, a, b) ->
          combine (combine (binop_tag op) a.id) b.id)
        ~equal:(fun (o1, a1, b1) (o2, a2, b2) ->
          o1 = o2 && a1 == a2 && b1 == b2)
        1024;
    uns =
      Hc.create ~ids
        ~hash:(fun (op, a) -> combine (unop_tag op) a.id)
        ~equal:(fun (o1, a1) (o2, a2) -> o1 = o2 && a1 == a2)
        256;
    cdsize_node = fresh CDSize (combine 2 0);
    loads_memo = Hashtbl.create 256;
    mul_memo = Hashtbl.create 64;
    subject_memo = Hashtbl.create 256;
    offset_memo = Hashtbl.create 256;
    contains_memo = Hashtbl.create 256;
    eval_memo = Hashtbl.create 256;
  }

(* One interner per domain: Engine.recover_all workers each intern into
   their own tables, so no cross-domain synchronization is needed. Nodes
   never migrate between domains (each worker runs a complete analysis
   and reports contain no Sexpr values). The interner lives for the
   domain's lifetime and is never reset — resetting would break the
   physical-equality invariant for nodes already in flight. *)
let interner_key = Domain.DLS.new_key make_interner
let interner () = Domain.DLS.get interner_key

let interner_counters () =
  let it = interner () in
  let tables_hits =
    Hc.hits it.consts + Hc.hits it.cdloads + Hc.hits it.envs
    + Hc.hits it.mems + Hc.hits it.bins + Hc.hits it.uns
  and tables_misses =
    Hc.misses it.consts + Hc.misses it.cdloads + Hc.misses it.envs
    + Hc.misses it.mems + Hc.misses it.bins + Hc.misses it.uns
  in
  (tables_hits, tables_misses)

let interner_size () =
  let it = interner () in
  Hc.length it.consts + Hc.length it.cdloads + Hc.length it.envs
  + Hc.length it.mems + Hc.length it.bins + Hc.length it.uns + 1

(* -- interning smart constructors --------------------------------------

   The build functions are closed (capture nothing), so [Hc.find_or_add]
   call sites allocate only the key — and nothing at all on a hit for
   the int- and string-keyed tables. *)

let build_const v ~id = { node = Const v; id; hkey = combine 0 (U256.hash v) }

let const v =
  let it = interner () in
  Hc.find_or_add it.consts v build_const

let of_int n = const (U256.of_int n)

let build_cdload i ~id = { node = CDLoad i; id; hkey = combine 1 i }

let cdload i =
  let it = interner () in
  Hc.find_or_add it.cdloads i build_cdload

let cdsize () = (interner ()).cdsize_node

let build_env name ~id =
  { node = Env name; id; hkey = combine 3 (Stdlib.Hashtbl.hash name) }

let env name =
  let it = interner () in
  Hc.find_or_add it.envs name build_env

let build_mem (rid, off) ~id =
  { node = MemItem (rid, off); id; hkey = combine 4 (combine rid off.id) }

let mem_item rid off =
  let it = interner () in
  Hc.find_or_add it.mems (rid, off) build_mem

let build_bin (op, a, b) ~id =
  {
    node = Bin (op, a, b);
    id;
    hkey = combine 5 (combine (combine (binop_tag op) a.hkey) b.hkey);
  }

let intern_bin op a b =
  let it = interner () in
  Hc.find_or_add it.bins (op, a, b) build_bin

let build_un (op, a) ~id =
  { node = Un (op, a); id; hkey = combine 6 (combine (unop_tag op) a.hkey) }

let intern_un op a =
  let it = interner () in
  Hc.find_or_add it.uns (op, a) build_un

let eval_bin op a b =
  match op with
  | Badd -> U256.add a b
  | Bsub -> U256.sub a b
  | Bmul -> U256.mul a b
  | Bdiv -> U256.div a b
  | Bsdiv -> U256.sdiv a b
  | Bmod -> U256.rem a b
  | Bsmod -> U256.srem a b
  | Bexp -> U256.exp a b
  | Band -> U256.logand a b
  | Bor -> U256.logor a b
  | Bxor -> U256.logxor a b
  | Blt -> if U256.lt a b then U256.one else U256.zero
  | Bgt -> if U256.gt a b then U256.one else U256.zero
  | Bslt -> if U256.slt a b then U256.one else U256.zero
  | Bsgt -> if U256.sgt a b then U256.one else U256.zero
  | Beq -> if U256.equal a b then U256.one else U256.zero
  | Bbyte -> (
    match U256.to_int a with
    | Some i when i < 32 -> U256.byte i b
    | _ -> U256.zero)
  | Bshl -> (
    match U256.to_int a with
    | Some n when n < 256 -> U256.shift_left b n
    | _ -> U256.zero)
  | Bshr -> (
    match U256.to_int a with
    | Some n when n < 256 -> U256.shift_right b n
    | _ -> U256.zero)
  | Bsar -> (
    match U256.to_int a with
    | Some n when n < 256 -> U256.shift_right_arith b n
    | _ -> U256.shift_right_arith b 255)
  | Bsignext -> (
    match U256.to_int a with
    | Some k when k < 32 -> U256.signextend k b
    | _ -> b)

let un op e =
  match (op, e.node) with
  | Unot, Const v -> const (U256.lognot v)
  | Uiszero, Const v ->
    const (if U256.is_zero v then U256.one else U256.zero)
  | Uiszero, Un (Uiszero, { node = Un (Uiszero, x); _ }) ->
    intern_un Uiszero x
  | _ -> intern_un op e

let is_comparison = function
  | Blt | Bgt | Bslt | Bsgt | Beq -> true
  | _ -> false

(* The simplifier decision tree mirrors the pre-interning one exactly
   (same cases, same order, and the re-associate case does not
   re-simplify its result), so recovery output stays byte-identical.
   Memoization of the simplification itself falls out of interning: the
   default case is a table lookup keyed by [(op, a, b)]. *)
let bin op a b =
  match (a.node, b.node) with
  (* Comparisons stay structural even on constants: branch guards keep
     their LT shape so the rules can read loop bounds out of them. A
     concrete truth value is recovered by eval_concrete when needed. *)
  | Const x, Const y when not (is_comparison op) -> const (eval_bin op x y)
  | _ -> (
    match (op, a.node, b.node) with
    | Badd, _, Const z when U256.is_zero z -> a
    | Badd, Const z, _ when U256.is_zero z -> b
    | Bmul, _, Const o when U256.equal o U256.one -> a
    | Bmul, Const o, _ when U256.equal o U256.one -> b
    (* re-associate (x + c1) + c2 so head offsets stay flat *)
    | Badd, Bin (Badd, x, { node = Const c1; _ }), Const c2 ->
      intern_bin Badd x (const (U256.add c1 c2))
    | Badd, Const c1, Bin (Badd, x, { node = Const c2; _ }) ->
      intern_bin Badd x (const (U256.add c1 c2))
    | _ -> intern_bin op a b)

(* -- printing ----------------------------------------------------------- *)

let binop_name = function
  | Badd -> "+" | Bsub -> "-" | Bmul -> "*" | Bdiv -> "/" | Bsdiv -> "sdiv"
  | Bmod -> "%" | Bsmod -> "smod" | Bexp -> "**" | Band -> "&" | Bor -> "|"
  | Bxor -> "^" | Blt -> "<" | Bgt -> ">" | Bslt -> "s<" | Bsgt -> "s>"
  | Beq -> "==" | Bbyte -> "byte" | Bshl -> "<<" | Bshr -> ">>"
  | Bsar -> "sar" | Bsignext -> "sext"

let rec to_string e =
  match e.node with
  | Const v -> "0x" ^ U256.to_hex v
  | CDLoad id -> Printf.sprintf "cd%d" id
  | CDSize -> "cdsize"
  | Env name -> name
  | MemItem (rid, off) -> Printf.sprintf "mem%d[%s]" rid (to_string off)
  | Bin (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (to_string a) (binop_name op) (to_string b)
  | Un (Unot, a) -> Printf.sprintf "~%s" (to_string a)
  | Un (Uiszero, a) -> Printf.sprintf "!%s" (to_string a)

let pp fmt e = Format.pp_print_string fmt (to_string e)

(* -- structural queries -------------------------------------------------
   The recursive ones memoize by node id: the rule matchers re-ask the
   same questions about the same (now physically shared) subtrees on
   every path and every load. *)

let to_const e = match e.node with Const v -> Some v | _ -> None
let to_const_int e = match e.node with Const v -> U256.to_int v | _ -> None

let rec add_terms e =
  match e.node with
  | Bin (Badd, a, b) -> add_terms a @ add_terms b
  | _ -> [ e ]

let const_offset e =
  match e.node with
  | Const v -> ( match U256.to_int v with Some n -> n | None -> 0)
  | Bin (Badd, _, _) -> (
    let it = interner () in
    match Hashtbl.find_opt it.offset_memo e.id with
    | Some n -> n
    | None ->
      let n =
        List.fold_left
          (fun acc t ->
            match t.node with
            | Const v -> (
              match U256.to_int v with Some n -> acc + n | None -> acc)
            | _ -> acc)
          0 (add_terms e)
      in
      Hashtbl.replace it.offset_memo e.id n;
      n)
  | _ -> 0

let rec loads_of e =
  match e.node with
  | CDLoad id -> [ id ]
  | Const _ | CDSize | Env _ -> []
  | _ -> (
    let it = interner () in
    match Hashtbl.find_opt it.loads_memo e.id with
    | Some l -> l
    | None ->
      let l =
        match e.node with
        | MemItem (_, off) -> loads_of off
        | Bin (_, a, b) -> loads_of a @ loads_of b
        | Un (_, a) -> loads_of a
        | Const _ | CDLoad _ | CDSize | Env _ -> assert false
      in
      Hashtbl.replace it.loads_memo e.id l;
      l)

let mentions_load e id = List.mem id (loads_of e)

let rec has_mul_by_uncached e k =
  match e.node with
  | Bin (Bmul, { node = Const c; _ }, x) | Bin (Bmul, x, { node = Const c; _ })
    ->
    (U256.equal c (U256.of_int k) && to_const x = None)
    || has_mul_by_uncached x k
  | Bin (_, a, b) -> has_mul_by_uncached a k || has_mul_by_uncached b k
  | Un (_, a) -> has_mul_by_uncached a k
  | MemItem (_, off) -> has_mul_by_uncached off k
  | _ -> false

let has_mul_by e k =
  match e.node with
  | Const _ | CDLoad _ | CDSize | Env _ -> false
  | _ -> (
    let it = interner () in
    match Hashtbl.find_opt it.mul_memo (e.id, k) with
    | Some b -> b
    | None ->
      let b = has_mul_by_uncached e k in
      Hashtbl.replace it.mul_memo (e.id, k) b;
      b)

let rec strip_masks e =
  match e.node with
  | Bin (Band, x, { node = Const _; _ }) | Bin (Band, { node = Const _; _ }, x)
    ->
    strip_masks x
  | Bin (Bsignext, { node = Const _; _ }, x) -> strip_masks x
  | Un (Uiszero, { node = Un (Uiszero, x); _ }) -> strip_masks x
  | _ -> e

let subject e =
  match e.node with
  | CDLoad id -> Some (`Load id)
  | MemItem (rid, _) -> Some (`Region rid)
  | Const _ | CDSize | Env _ -> None
  | _ -> (
    let it = interner () in
    match Hashtbl.find_opt it.subject_memo e.id with
    | Some s -> s
    | None ->
      let s =
        match (strip_masks e).node with
        | CDLoad id -> Some (`Load id)
        | MemItem (rid, _) -> Some (`Region rid)
        | _ -> None
      in
      Hashtbl.replace it.subject_memo e.id s;
      s)

let rec contains_uncached e sub =
  e == sub
  ||
  match e.node with
  | Bin (_, a, b) -> contains_uncached a sub || contains_uncached b sub
  | Un (_, a) -> contains_uncached a sub
  | MemItem (_, off) -> contains_uncached off sub
  | Const _ | CDLoad _ | CDSize | Env _ -> false

let contains e sub =
  e == sub
  ||
  match e.node with
  | Const _ | CDLoad _ | CDSize | Env _ -> false
  | _ -> (
    let it = interner () in
    match Hashtbl.find_opt it.contains_memo (e.id, sub.id) with
    | Some b -> b
    | None ->
      let b = contains_uncached e sub in
      Hashtbl.replace it.contains_memo (e.id, sub.id) b;
      b)

let rec iszero_depth e =
  match e.node with
  | Un (Uiszero, x) ->
    let core, n = iszero_depth x in
    (core, n + 1)
  | _ -> (e, 0)

let rec eval_concrete e =
  match e.node with
  | Const v -> Some v
  | CDLoad _ | CDSize | Env _ | MemItem _ -> None
  | _ -> (
    let it = interner () in
    match Hashtbl.find_opt it.eval_memo e.id with
    | Some r -> r
    | None ->
      let r =
        match e.node with
        | Bin (op, a, b) -> (
          match (eval_concrete a, eval_concrete b) with
          | Some x, Some y -> Some (eval_bin op x y)
          | _ -> None)
        | Un (Unot, a) -> Option.map U256.lognot (eval_concrete a)
        | Un (Uiszero, a) ->
          Option.map
            (fun v -> if U256.is_zero v then U256.one else U256.zero)
            (eval_concrete a)
        | Const _ | CDLoad _ | CDSize | Env _ | MemItem _ -> assert false
      in
      Hashtbl.replace it.eval_memo e.id r;
      r)
