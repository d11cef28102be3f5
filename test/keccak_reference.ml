(* Keccak-256 transcribed from the specification (FIPS 202 section 3
   step mappings, with Keccak's original 0x01 padding), for differential
   tests of [Evm.Keccak]. Round constants come from the rc(t) LFSR and
   rotation offsets from the rho walk, not from tables, so nothing here
   is shared with the kernel under test. Every step is a loop over an
   [Int64] array indexed x + 5y: slow, and meant to be plainly right. *)

(* rc(t), Algorithm 5: an LFSR modulo x^8 + x^6 + x^5 + x^4 + 1 *)
let rc t =
  let r = ref 1 in
  for _ = 1 to t mod 255 do
    r := !r lsl 1;
    if !r land 0x100 <> 0 then r := !r lxor 0x171
  done;
  !r land 1 = 1

let round_constant round =
  let c = ref 0L in
  for j = 0 to 6 do
    if rc (j + (7 * round)) then
      c := Int64.logor !c (Int64.shift_left 1L ((1 lsl j) - 1))
  done;
  !c

(* rho: lane (1, 0) moves by 1, and (t+1)(t+2)/2 along (x, y) -> (y, 2x+3y) *)
let offsets =
  let o = Array.make 25 0 in
  let x = ref 1 and y = ref 0 in
  for t = 0 to 23 do
    o.(!x + (5 * !y)) <- (t + 1) * (t + 2) / 2 mod 64;
    let x' = !y and y' = ((2 * !x) + (3 * !y)) mod 5 in
    x := x';
    y := y'
  done;
  o

let rotl v n =
  if n = 0 then v
  else
    Int64.logor (Int64.shift_left v n) (Int64.shift_right_logical v (64 - n))

let keccak_f a =
  for round = 0 to 23 do
    (* theta *)
    let c =
      Array.init 5 (fun x ->
          Array.fold_left Int64.logxor 0L
            (Array.init 5 (fun y -> a.(x + (5 * y)))))
    in
    let d =
      Array.init 5 (fun x ->
          Int64.logxor c.((x + 4) mod 5) (rotl c.((x + 1) mod 5) 1))
    in
    Array.iteri (fun i v -> a.(i) <- Int64.logxor v d.(i mod 5)) a;
    (* rho and pi *)
    let b = Array.make 25 0L in
    for x = 0 to 4 do
      for y = 0 to 4 do
        b.(y + (5 * (((2 * x) + (3 * y)) mod 5))) <-
          rotl a.(x + (5 * y)) offsets.(x + (5 * y))
      done
    done;
    (* chi, then iota *)
    for x = 0 to 4 do
      for y = 0 to 4 do
        a.(x + (5 * y)) <-
          Int64.logxor b.(x + (5 * y))
            (Int64.logand
               (Int64.lognot b.(((x + 1) mod 5) + (5 * y)))
               b.(((x + 2) mod 5) + (5 * y)))
      done
    done;
    a.(0) <- Int64.logxor a.(0) (round_constant round)
  done

let rate = 136

let digest msg =
  let len = String.length msg in
  let padded = Bytes.make (((len / rate) + 1) * rate) '\000' in
  Bytes.blit_string msg 0 padded 0 len;
  Bytes.set padded len '\001';
  let last = Bytes.length padded - 1 in
  Bytes.set padded last
    (Char.chr (Char.code (Bytes.get padded last) lor 0x80));
  let a = Array.make 25 0L in
  for block = 0 to (Bytes.length padded / rate) - 1 do
    for i = 0 to (rate / 8) - 1 do
      let lane = ref 0L in
      for k = 7 downto 0 do
        let byte =
          Char.code (Bytes.get padded ((block * rate) + (8 * i) + k))
        in
        lane := Int64.logor (Int64.shift_left !lane 8) (Int64.of_int byte)
      done;
      a.(i) <- Int64.logxor a.(i) !lane
    done;
    keccak_f a
  done;
  String.init 32 (fun i ->
      Char.chr
        (Int64.to_int (Int64.shift_right_logical a.(i / 8) (8 * (i mod 8)))
        land 0xff))
