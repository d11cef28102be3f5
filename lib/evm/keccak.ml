(* Keccak-f[1600] sponge with rate 1088 / capacity 512 and the original
   Keccak domain padding (0x01 ... 0x80), which is what Ethereum uses.

   The engine digests every contract it sees for its cache key, so the
   permutation must neither allocate nor touch memory it need not.
   ocamlopt keeps an [Int64] unboxed, in a register or a stack slot, as
   long as it lives in a local ([let] or a [ref] that never escapes)
   and only [Int64] primitives consume it; it boxes one only where the
   value escapes into a data structure or a call that is not inlined.
   So [permute] loads the 25 lanes into 25 local refs, runs the rounds
   on them, and stores them back once. The round is written out lane by
   lane: indexing lanes through an array, or rotation and pi tables
   through [mod 5], would force every lane through memory (and through
   a box, for an [int64 array]) on every step. Between permutations the
   state sits in a 200-byte [Bytes], little-endian lanes. *)

let round_constants =
  [|
    0x0000000000000001L; 0x0000000000008082L; 0x800000000000808aL;
    0x8000000080008000L; 0x000000000000808bL; 0x0000000080000001L;
    0x8000000080008081L; 0x8000000000008009L; 0x000000000000008aL;
    0x0000000000000088L; 0x0000000080008009L; 0x000000008000000aL;
    0x000000008000808bL; 0x800000000000008bL; 0x8000000000008089L;
    0x8000000000008003L; 0x8000000000008002L; 0x8000000000000080L;
    0x000000000000800aL; 0x800000008000000aL; 0x8000000080008081L;
    0x8000000000008080L; 0x0000000080000001L; 0x8000000080008008L;
  |]

let[@inline] rotl x n =
  Int64.logor (Int64.shift_left x n) (Int64.shift_right_logical x (64 - n))

let[@inline] xor5 a b c d e =
  Int64.logxor (Int64.logxor (Int64.logxor (Int64.logxor a b) c) d) e

let[@inline] chi a b c = Int64.logxor a (Int64.logand (Int64.lognot b) c)

(* Lane (x, y) is [aNN], NN = x + 5y, at byte 8 * NN of [st]. *)
let permute st =
  let a00 = ref (Bytes.get_int64_le st 0) in
  let a01 = ref (Bytes.get_int64_le st 8) in
  let a02 = ref (Bytes.get_int64_le st 16) in
  let a03 = ref (Bytes.get_int64_le st 24) in
  let a04 = ref (Bytes.get_int64_le st 32) in
  let a05 = ref (Bytes.get_int64_le st 40) in
  let a06 = ref (Bytes.get_int64_le st 48) in
  let a07 = ref (Bytes.get_int64_le st 56) in
  let a08 = ref (Bytes.get_int64_le st 64) in
  let a09 = ref (Bytes.get_int64_le st 72) in
  let a10 = ref (Bytes.get_int64_le st 80) in
  let a11 = ref (Bytes.get_int64_le st 88) in
  let a12 = ref (Bytes.get_int64_le st 96) in
  let a13 = ref (Bytes.get_int64_le st 104) in
  let a14 = ref (Bytes.get_int64_le st 112) in
  let a15 = ref (Bytes.get_int64_le st 120) in
  let a16 = ref (Bytes.get_int64_le st 128) in
  let a17 = ref (Bytes.get_int64_le st 136) in
  let a18 = ref (Bytes.get_int64_le st 144) in
  let a19 = ref (Bytes.get_int64_le st 152) in
  let a20 = ref (Bytes.get_int64_le st 160) in
  let a21 = ref (Bytes.get_int64_le st 168) in
  let a22 = ref (Bytes.get_int64_le st 176) in
  let a23 = ref (Bytes.get_int64_le st 184) in
  let a24 = ref (Bytes.get_int64_le st 192) in
  for round = 0 to 23 do
    (* theta: column parities, folded into rho + pi below *)
    let c0 = xor5 !a00 !a05 !a10 !a15 !a20 in
    let c1 = xor5 !a01 !a06 !a11 !a16 !a21 in
    let c2 = xor5 !a02 !a07 !a12 !a17 !a22 in
    let c3 = xor5 !a03 !a08 !a13 !a18 !a23 in
    let c4 = xor5 !a04 !a09 !a14 !a19 !a24 in
    let d0 = Int64.logxor c4 (rotl c1 1) in
    let d1 = Int64.logxor c0 (rotl c2 1) in
    let d2 = Int64.logxor c1 (rotl c3 1) in
    let d3 = Int64.logxor c2 (rotl c4 1) in
    let d4 = Int64.logxor c3 (rotl c0 1) in
    (* rho + pi: bNN is the lane that lands at NN, already rotated *)
    let b00 = Int64.logxor !a00 d0 in
    let b01 = rotl (Int64.logxor !a06 d1) 44 in
    let b02 = rotl (Int64.logxor !a12 d2) 43 in
    let b03 = rotl (Int64.logxor !a18 d3) 21 in
    let b04 = rotl (Int64.logxor !a24 d4) 14 in
    let b05 = rotl (Int64.logxor !a03 d3) 28 in
    let b06 = rotl (Int64.logxor !a09 d4) 20 in
    let b07 = rotl (Int64.logxor !a10 d0) 3 in
    let b08 = rotl (Int64.logxor !a16 d1) 45 in
    let b09 = rotl (Int64.logxor !a22 d2) 61 in
    let b10 = rotl (Int64.logxor !a01 d1) 1 in
    let b11 = rotl (Int64.logxor !a07 d2) 6 in
    let b12 = rotl (Int64.logxor !a13 d3) 25 in
    let b13 = rotl (Int64.logxor !a19 d4) 8 in
    let b14 = rotl (Int64.logxor !a20 d0) 18 in
    let b15 = rotl (Int64.logxor !a04 d4) 27 in
    let b16 = rotl (Int64.logxor !a05 d0) 36 in
    let b17 = rotl (Int64.logxor !a11 d1) 10 in
    let b18 = rotl (Int64.logxor !a17 d2) 15 in
    let b19 = rotl (Int64.logxor !a23 d3) 56 in
    let b20 = rotl (Int64.logxor !a02 d2) 62 in
    let b21 = rotl (Int64.logxor !a08 d3) 55 in
    let b22 = rotl (Int64.logxor !a14 d4) 39 in
    let b23 = rotl (Int64.logxor !a15 d0) 41 in
    let b24 = rotl (Int64.logxor !a21 d1) 2 in
    (* chi along each row, iota on lane 0 *)
    a00 := Int64.logxor (chi b00 b01 b02) round_constants.(round);
    a01 := chi b01 b02 b03;
    a02 := chi b02 b03 b04;
    a03 := chi b03 b04 b00;
    a04 := chi b04 b00 b01;
    a05 := chi b05 b06 b07;
    a06 := chi b06 b07 b08;
    a07 := chi b07 b08 b09;
    a08 := chi b08 b09 b05;
    a09 := chi b09 b05 b06;
    a10 := chi b10 b11 b12;
    a11 := chi b11 b12 b13;
    a12 := chi b12 b13 b14;
    a13 := chi b13 b14 b10;
    a14 := chi b14 b10 b11;
    a15 := chi b15 b16 b17;
    a16 := chi b16 b17 b18;
    a17 := chi b17 b18 b19;
    a18 := chi b18 b19 b15;
    a19 := chi b19 b15 b16;
    a20 := chi b20 b21 b22;
    a21 := chi b21 b22 b23;
    a22 := chi b22 b23 b24;
    a23 := chi b23 b24 b20;
    a24 := chi b24 b20 b21
  done;
  Bytes.set_int64_le st 0 !a00;
  Bytes.set_int64_le st 8 !a01;
  Bytes.set_int64_le st 16 !a02;
  Bytes.set_int64_le st 24 !a03;
  Bytes.set_int64_le st 32 !a04;
  Bytes.set_int64_le st 40 !a05;
  Bytes.set_int64_le st 48 !a06;
  Bytes.set_int64_le st 56 !a07;
  Bytes.set_int64_le st 64 !a08;
  Bytes.set_int64_le st 72 !a09;
  Bytes.set_int64_le st 80 !a10;
  Bytes.set_int64_le st 88 !a11;
  Bytes.set_int64_le st 96 !a12;
  Bytes.set_int64_le st 104 !a13;
  Bytes.set_int64_le st 112 !a14;
  Bytes.set_int64_le st 120 !a15;
  Bytes.set_int64_le st 128 !a16;
  Bytes.set_int64_le st 136 !a17;
  Bytes.set_int64_le st 144 !a18;
  Bytes.set_int64_le st 152 !a19;
  Bytes.set_int64_le st 160 !a20;
  Bytes.set_int64_le st 168 !a21;
  Bytes.set_int64_le st 176 !a22;
  Bytes.set_int64_le st 184 !a23;
  Bytes.set_int64_le st 192 !a24

let rate_bytes = 136 (* 1088 bits: 17 lanes *)

(* XOR the block of [rate_bytes] at [off] in [block] into the state. *)
let absorb st block off =
  for i = 0 to (rate_bytes / 8) - 1 do
    let k = 8 * i in
    Bytes.set_int64_le st k
      (Int64.logxor (Bytes.get_int64_le st k)
         (String.get_int64_le block (off + k)))
  done

let digest msg =
  let st = Bytes.make 200 '\000' in
  let len = String.length msg in
  let full = len / rate_bytes in
  for block = 0 to full - 1 do
    absorb st msg (block * rate_bytes);
    permute st
  done;
  (* Only the tail is copied: tail ^ 0x01 ^ 0x00* ^ 0x80, one block. *)
  let tail = len - (full * rate_bytes) in
  let last = Bytes.make rate_bytes '\000' in
  Bytes.blit_string msg (full * rate_bytes) last 0 tail;
  Bytes.set last tail '\001';
  Bytes.set last (rate_bytes - 1)
    (Char.chr (Char.code (Bytes.get last (rate_bytes - 1)) lor 0x80));
  absorb st (Bytes.unsafe_to_string last) 0;
  permute st;
  Bytes.sub_string st 0 32

let digest_hex msg = Hex.encode (digest msg)

let selector signature = String.sub (digest signature) 0 4
