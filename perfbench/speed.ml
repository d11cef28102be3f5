(* A fixed reference computation that measures how fast the host runs
   OCaml code right now.

   On a shared host the same round can take up to 1.6x longer from one
   stretch of seconds to the next with no steal reported: the core's
   sibling thread, cache and memory bandwidth belong to other tenants.
   The benchmark times this kernel between its rounds and at pauses
   inside them, and reports the program's figures at the kernel's
   reference speed (run.py), so that a slow stretch on the host does
   not read as a slow program.

   The kernel uses only the standard library and this file, so a change
   to the program cannot change it. Its mix follows the program's: a
   Keccak-f[1600] permutation on 32-bit lane halves (the hashing every
   input line pays), small short-lived allocations and a string-keyed
   hash table, hex decoding and rendering through buffers (the input
   and output layers) in [unit_of_work]; a hash-consing interner and a
   persistent map over megabytes of live nodes (the analysis's
   expressions and states) in [memory_work]. *)

(* Keccak-f[1600] on 25 lanes held as 50 32-bit halves. *)
let round_constants =
  [|
    0x00000001; 0x00000000; 0x00008082; 0x00000000; 0x0000808a; 0x80000000;
    0x80008000; 0x80000000; 0x0000808b; 0x00000000; 0x80000001; 0x00000000;
    0x80008081; 0x80000000; 0x00008009; 0x80000000; 0x0000008a; 0x00000000;
    0x00000088; 0x00000000; 0x80008009; 0x00000000; 0x8000000a; 0x00000000;
    0x8000808b; 0x00000000; 0x0000008b; 0x80000000; 0x00008089; 0x80000000;
    0x00008003; 0x80000000; 0x00008002; 0x80000000; 0x00000080; 0x80000000;
    0x0000800a; 0x00000000; 0x8000000a; 0x80000000; 0x80008081; 0x80000000;
    0x00008080; 0x80000000; 0x80000001; 0x00000000; 0x80008008; 0x80000000;
  |]

let rotations =
  [| 0; 1; 62; 28; 27; 36; 44; 6; 55; 20; 3; 10; 43; 25; 39; 41; 45; 15; 21;
     8; 18; 2; 61; 56; 14 |]

let mask = 0xffffffff

(* Rotates the lane (hi, lo) left by [r] into [dst.(2i)], [dst.(2i+1)]. *)
let rotl dst i hi lo r =
  let hi, lo, r = if r >= 32 then (lo, hi, r - 32) else (hi, lo, r) in
  if r = 0 then begin
    dst.(2 * i) <- hi;
    dst.((2 * i) + 1) <- lo
  end
  else begin
    dst.(2 * i) <- ((hi lsl r) lor (lo lsr (32 - r))) land mask;
    dst.((2 * i) + 1) <- ((lo lsl r) lor (hi lsr (32 - r))) land mask
  end

let permute a =
  let c = Array.make 10 0 and b = Array.make 50 0 in
  for rnd = 0 to 23 do
    for x = 0 to 4 do
      let hi = ref 0 and lo = ref 0 in
      for y = 0 to 4 do
        hi := !hi lxor a.(2 * (x + (5 * y)));
        lo := !lo lxor a.((2 * (x + (5 * y))) + 1)
      done;
      c.(2 * x) <- !hi;
      c.((2 * x) + 1) <- !lo
    done;
    for x = 0 to 4 do
      let p = (x + 4) mod 5 and n = (x + 1) mod 5 in
      let nh = c.(2 * n) and nl = c.((2 * n) + 1) in
      let dh = c.(2 * p) lxor (((nh lsl 1) lor (nl lsr 31)) land mask)
      and dl = c.((2 * p) + 1) lxor (((nl lsl 1) lor (nh lsr 31)) land mask) in
      for y = 0 to 4 do
        let i = x + (5 * y) in
        a.(2 * i) <- a.(2 * i) lxor dh;
        a.((2 * i) + 1) <- a.((2 * i) + 1) lxor dl
      done
    done;
    for x = 0 to 4 do
      for y = 0 to 4 do
        let i = x + (5 * y) and j = y + (5 * (((2 * x) + (3 * y)) mod 5)) in
        rotl b j a.(2 * i) a.((2 * i) + 1) rotations.(i)
      done
    done;
    for y = 0 to 4 do
      for x = 0 to 4 do
        let i = x + (5 * y)
        and i1 = ((x + 1) mod 5) + (5 * y)
        and i2 = ((x + 2) mod 5) + (5 * y) in
        a.(2 * i) <- b.(2 * i) lxor (lnot b.(2 * i1) land b.(2 * i2) land mask);
        a.((2 * i) + 1) <-
          b.((2 * i) + 1) lxor (lnot b.((2 * i1) + 1) land b.((2 * i2) + 1) land mask)
      done
    done;
    a.(0) <- a.(0) lxor round_constants.((2 * rnd) + 1);
    a.(1) <- a.(1) lxor round_constants.(2 * rnd)
  done

(* One unit of reference work; returns a checksum so nothing is
   optimised away. *)
let unit_of_work seed =
  let st = Random.State.make [| seed |] in
  (* hashing *)
  let a = Array.init 50 (fun _ -> Random.State.bits st land mask) in
  for _ = 1 to 40 do
    permute a
  done;
  (* hex decode and a growing string-keyed table of small records *)
  let tbl = Hashtbl.create 16 in
  let buf = Buffer.create 256 in
  let sum = ref a.(0) in
  for i = 1 to 600 do
    Buffer.clear buf;
    for _ = 1 to 24 do
      Buffer.add_string buf (Printf.sprintf "%02x" (Random.State.int st 256))
    done;
    let hex = Buffer.contents buf in
    let bytes =
      String.init (String.length hex / 2) (fun k ->
          Char.chr (int_of_string ("0x" ^ String.sub hex (2 * k) 2)))
    in
    let key = String.sub bytes 0 (1 + (i mod 8)) in
    let node = (i, String.length bytes, List.init 6 (fun k -> k * i)) in
    (match Hashtbl.find_opt tbl key with
    | Some (j, _, l) -> sum := !sum + j + List.length l
    | None -> Hashtbl.replace tbl key node);
    (* rendering *)
    Buffer.clear buf;
    Buffer.add_string buf "{\"id\":";
    Buffer.add_string buf (string_of_int i);
    Buffer.add_string buf ",\"sel\":\"";
    Buffer.add_string buf (String.sub hex 0 8);
    Buffer.add_string buf "\"}";
    sum := !sum + Buffer.length buf
  done;
  (* short-lived trees *)
  let rec tree d =
    if d = 0 then `Leaf else `Node (List.init 4 Fun.id, tree (d - 1), tree (d - 1))
  in
  let rec size = function
    | `Leaf -> 1
    | `Node (l, x, y) -> List.length l + size x + size y
  in
  !sum + size (tree 10) + Hashtbl.length tbl

(* Hash-consed expression nodes, as the analysis builds them. *)
type node = { id : int; op : int; a : int; b : int }

module IntMap = Map.Make (Int)

(* Memory-bound reference work: a hash-consing interner over a few
   megabytes of live nodes, a persistent map updated on every step and
   a sort, with the allocation rate of the analysis. *)
let memory_work seed =
  let st = Random.State.make [| seed |] in
  let intern = Hashtbl.create 1024 in
  let live = Array.make 8192 { id = 0; op = 0; a = 0; b = 0 } in
  let n = ref 1 and sum = ref 0 in
  let map = ref IntMap.empty in
  for i = 1 to 60_000 do
    let x = live.(Random.State.int st (Stdlib.min !n 8192))
    and y = live.(Random.State.int st (Stdlib.min !n 8192)) in
    let key = (Random.State.int st 8, x.id, y.id land 1023) in
    let nd =
      match Hashtbl.find_opt intern key with
      | Some nd -> nd
      | None ->
        let op, a, b = key in
        let nd = { id = !n; op; a; b } in
        Hashtbl.add intern key nd;
        live.(!n land 8191) <- nd;
        incr n;
        nd
    in
    sum := !sum + nd.op;
    map := IntMap.add (i land 4095) [ nd.id; x.id; y.id ] !map
  done;
  let l = List.init 20_000 (fun _ -> Random.State.bits st) in
  !sum + IntMap.cardinal !map + List.hd (List.sort compare l) land 1

(* Seconds the kernel takes for [units] units of work. A unit is 25
   rounds of [unit_of_work] and one of [memory_work], which take about
   the same time: either alone followed the program's rounds less
   closely than the two together. *)
let time ~units =
  let t0 = Monotonic_clock.now () in
  let s = ref 0 in
  for u = 1 to units do
    for v = 1 to 25 do
      s := !s + unit_of_work ((25 * u) + v)
    done;
    s := !s + memory_work u
  done;
  let t1 = Monotonic_clock.now () in
  if !s = 0 then prerr_endline "speed: zero checksum";
  Int64.to_float (Int64.sub t1 t0) /. 1e9
