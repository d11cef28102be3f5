(* 256-bit words as four little-endian 64-bit limbs.

   All arithmetic is modulo 2^256. Unsigned limb comparisons use
   Int64.unsigned_compare; carries are detected by comparing a sum against
   one of its addends. *)

type t = { l0 : int64; l1 : int64; l2 : int64; l3 : int64 }

let make l0 l1 l2 l3 = { l0; l1; l2; l3 }

(* Interned pool of small constants. Entries are physically shared, so
   the pointer fast path in [equal]/[compare] hits for the values the
   compiler patterns hammer (offsets, word sizes, small selectors). The
   arrays are built once at module init and never mutated afterwards, so
   sharing them across domains is safe. *)
let small_pool = Array.init 1025 (fun n -> make (Int64.of_int n) 0L 0L 0L)
let zero = small_pool.(0)
let one = small_pool.(1)
let max_int = { l0 = -1L; l1 = -1L; l2 = -1L; l3 = -1L }

(* Route a limb quadruple through the pool when it denotes a small int. *)
let interned l0 l1 l2 l3 =
  if
    Int64.equal (Int64.logor l1 (Int64.logor l2 l3)) 0L
    && Int64.unsigned_compare l0 1024L <= 0
  then Array.unsafe_get small_pool (Int64.to_int l0)
  else make l0 l1 l2 l3

let limb x = function
  | 0 -> x.l0
  | 1 -> x.l1
  | 2 -> x.l2
  | 3 -> x.l3
  | _ -> 0L

let equal a b =
  a == b
  || Int64.equal a.l0 b.l0 && Int64.equal a.l1 b.l1 && Int64.equal a.l2 b.l2
     && Int64.equal a.l3 b.l3

let is_zero a = equal a zero

let compare a b =
  if a == b then 0
  else
  let c = Int64.unsigned_compare a.l3 b.l3 in
  if c <> 0 then c
  else
    let c = Int64.unsigned_compare a.l2 b.l2 in
    if c <> 0 then c
    else
      let c = Int64.unsigned_compare a.l1 b.l1 in
      if c <> 0 then c else Int64.unsigned_compare a.l0 b.l0

let lt a b = compare a b < 0
let gt a b = compare a b > 0
let le a b = compare a b <= 0

let is_negative a = Int64.compare a.l3 0L < 0

let signed_compare a b =
  match (is_negative a, is_negative b) with
  | true, false -> -1
  | false, true -> 1
  | _ -> compare a b

let slt a b = signed_compare a b < 0
let sgt a b = signed_compare a b > 0

let hash a =
  Int64.to_int
    (Int64.logxor
       (Int64.logxor a.l0 (Int64.mul a.l1 0x9e3779b97f4a7c15L))
       (Int64.logxor (Int64.mul a.l2 0xff51afd7ed558ccdL) a.l3))

(* -- conversions ------------------------------------------------------- *)

let of_int n =
  if n >= 0 then
    if n <= 1024 then small_pool.(n) else { zero with l0 = Int64.of_int n }
  else { max_int with l0 = Int64.of_int n }

let of_int64 x = interned x 0L 0L 0L

let to_int a =
  if
    Int64.equal a.l1 0L && Int64.equal a.l2 0L && Int64.equal a.l3 0L
    && Int64.compare a.l0 0L >= 0
    && Int64.compare a.l0 (Int64.of_int Stdlib.max_int) <= 0
  then Some (Int64.to_int a.l0)
  else None

let to_int_trunc a = Int64.to_int (Int64.logand a.l0 0x3fffffffffffffffL)

(* -- bitwise ----------------------------------------------------------- *)

let logand a b =
  interned (Int64.logand a.l0 b.l0) (Int64.logand a.l1 b.l1)
    (Int64.logand a.l2 b.l2) (Int64.logand a.l3 b.l3)

let logor a b =
  make (Int64.logor a.l0 b.l0) (Int64.logor a.l1 b.l1)
    (Int64.logor a.l2 b.l2) (Int64.logor a.l3 b.l3)

let logxor a b =
  make (Int64.logxor a.l0 b.l0) (Int64.logxor a.l1 b.l1)
    (Int64.logxor a.l2 b.l2) (Int64.logxor a.l3 b.l3)

let lognot a =
  make (Int64.lognot a.l0) (Int64.lognot a.l1) (Int64.lognot a.l2)
    (Int64.lognot a.l3)

let shift_left a n =
  if n <= 0 then if n = 0 then a else zero
  else if n >= 256 then zero
  else
    let word = n / 64 and bit = n mod 64 in
    let get i =
      let src = i - word in
      if src < 0 then 0L
      else if bit = 0 then limb a src
      else
        let lo = if src = 0 then 0L else limb a (src - 1) in
        Int64.logor
          (Int64.shift_left (limb a src) bit)
          (Int64.shift_right_logical lo (64 - bit))
    in
    make (get 0) (get 1) (get 2) (get 3)

let shift_right a n =
  if n <= 0 then if n = 0 then a else zero
  else if n >= 256 then zero
  else
    let word = n / 64 and bit = n mod 64 in
    let get i =
      let src = i + word in
      if src > 3 then 0L
      else if bit = 0 then limb a src
      else
        let hi = if src = 3 then 0L else limb a (src + 1) in
        Int64.logor
          (Int64.shift_right_logical (limb a src) bit)
          (Int64.shift_left hi (64 - bit))
    in
    interned (get 0) (get 1) (get 2) (get 3)

let shift_right_arith a n =
  if not (is_negative a) then shift_right a n
  else if n >= 256 then max_int
  else if n = 0 then a
  else logor (shift_right a n) (shift_left max_int (256 - n))

let get_bit a i =
  if i < 0 || i > 255 then false
  else
    let w = limb a (i / 64) in
    Int64.logand (Int64.shift_right_logical w (i mod 64)) 1L = 1L

let bits a =
  let rec limb_bits w acc =
    if Int64.equal w 0L then acc
    else limb_bits (Int64.shift_right_logical w 1) (acc + 1)
  in
  let rec go i =
    if i < 0 then 0
    else if Int64.equal (limb a i) 0L then go (i - 1)
    else (i * 64) + limb_bits (limb a i) 0
  in
  go 3

(* -- addition / subtraction ------------------------------------------- *)

let add_with_carry x y carry =
  let s = Int64.add x y in
  let c1 = if Int64.unsigned_compare s x < 0 then 1L else 0L in
  let s' = Int64.add s carry in
  let c2 = if Int64.unsigned_compare s' s < 0 then 1L else 0L in
  (s', Int64.add c1 c2)

let add a b =
  let r0, c = add_with_carry a.l0 b.l0 0L in
  let r1, c = add_with_carry a.l1 b.l1 c in
  let r2, c = add_with_carry a.l2 b.l2 c in
  let r3, _ = add_with_carry a.l3 b.l3 c in
  interned r0 r1 r2 r3

let neg a = add (lognot a) one
let sub a b = add a (neg b)

(* Pools for the masks the mask-shape matchers and SIGNEXTEND scan:
   powers of two, byte masks [2^(8k)-1] and their high-byte mirrors.
   Small entries reuse [small_pool] so each value has one canonical
   representative. *)
let pow2_pool =
  Array.init 256 (fun n ->
      if n <= 10 then small_pool.(1 lsl n) else shift_left one n)

let ones_low_pool =
  Array.init 33 (fun k ->
      if k = 0 then zero
      else if k >= 32 then max_int
      else sub (shift_left one (8 * k)) one)

let ones_high_pool =
  Array.init 33 (fun k ->
      if k = 0 then zero
      else if k >= 32 then max_int
      else shift_left max_int (8 * (32 - k)))

(* -- multiplication ---------------------------------------------------- *)

(* Full 64x64 -> 128-bit product via 32-bit halves. *)
let mul64 x y =
  let mask32 = 0xffffffffL in
  let xl = Int64.logand x mask32 and xh = Int64.shift_right_logical x 32 in
  let yl = Int64.logand y mask32 and yh = Int64.shift_right_logical y 32 in
  let ll = Int64.mul xl yl in
  let lh = Int64.mul xl yh in
  let hl = Int64.mul xh yl in
  let hh = Int64.mul xh yh in
  let mid = Int64.add (Int64.shift_right_logical ll 32) (Int64.logand lh mask32) in
  let mid = Int64.add mid (Int64.logand hl mask32) in
  let lo =
    Int64.logor (Int64.logand ll mask32) (Int64.shift_left (Int64.logand mid mask32) 32)
  in
  let hi =
    Int64.add hh
      (Int64.add
         (Int64.shift_right_logical lh 32)
         (Int64.add (Int64.shift_right_logical hl 32) (Int64.shift_right_logical mid 32)))
  in
  (hi, lo)

(* Schoolbook 256x256 -> 512-bit product; returns eight 64-bit limbs. *)
let mul_wide a b =
  let r = Array.make 8 0L in
  let la = [| a.l0; a.l1; a.l2; a.l3 |] and lb = [| b.l0; b.l1; b.l2; b.l3 |] in
  for i = 0 to 3 do
    let carry = ref 0L in
    for j = 0 to 3 do
      let hi, lo = mul64 la.(i) lb.(j) in
      let k = i + j in
      let s = Int64.add r.(k) lo in
      let c1 = if Int64.unsigned_compare s r.(k) < 0 then 1L else 0L in
      let s' = Int64.add s !carry in
      let c2 = if Int64.unsigned_compare s' s < 0 then 1L else 0L in
      r.(k) <- s';
      carry := Int64.add hi (Int64.add c1 c2)
    done;
    (* propagate the final carry of this row *)
    let k = ref (i + 4) in
    while not (Int64.equal !carry 0L) && !k < 8 do
      let s = Int64.add r.(!k) !carry in
      carry := if Int64.unsigned_compare s r.(!k) < 0 then 1L else 0L;
      r.(!k) <- s;
      incr k
    done
  done;
  r

let mul a b =
  let r = mul_wide a b in
  interned r.(0) r.(1) r.(2) r.(3)

(* -- division ----------------------------------------------------------
   Bit-by-bit restoring division: adequate for an analysis workload. *)

let divmod a b =
  if is_zero b then (zero, zero)
  else if compare a b < 0 then (zero, a)
  else if Int64.equal b.l1 0L && Int64.equal b.l2 0L && Int64.equal b.l3 0L
          && Int64.equal a.l1 0L && Int64.equal a.l2 0L && Int64.equal a.l3 0L
  then
    ( of_int64 (Int64.unsigned_div a.l0 b.l0),
      of_int64 (Int64.unsigned_rem a.l0 b.l0) )
  else
    (* Dividing by 2^k is a shift: old-solc dispatchers extract the
       selector with DIV by 2^224 on every call. *)
    let k = bits b - 1 in
    if equal b pow2_pool.(k) then (shift_right a k, logand a (sub b one))
    else begin
      let q = ref zero and r = ref zero in
      for i = bits a - 1 downto 0 do
        r := shift_left !r 1;
        if get_bit a i then r := logor !r one;
        if compare !r b >= 0 then begin
          r := sub !r b;
          q := logor !q (shift_left one i)
        end
      done;
      (!q, !r)
    end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let min_signed = pow2_pool.(255)

let sdiv a b =
  if is_zero b then zero
  else if equal a min_signed && equal b max_int then min_signed
  else
    let sa = is_negative a and sb = is_negative b in
    let abs x = if is_negative x then neg x else x in
    let q = div (abs a) (abs b) in
    if sa <> sb then neg q else q

let srem a b =
  if is_zero b then zero
  else
    let abs x = if is_negative x then neg x else x in
    let r = rem (abs a) (abs b) in
    if is_negative a then neg r else r

(* 512-bit value as (hi, lo) pair of t; bitwise long division by m. *)
let mod512 hi lo m =
  if is_zero m then zero
  else begin
    let r = ref zero in
    (* After a left shift the remainder may exceed 2^256 (tracked via the
       pre-shift top bit), so up to two conditional subtractions of m are
       needed per step. *)
    let feed x nbits =
      for i = nbits - 1 downto 0 do
        let overflow = get_bit !r 255 in
        r := shift_left !r 1;
        if get_bit x i then r := logor !r one;
        if overflow || compare !r m >= 0 then r := sub !r m;
        if compare !r m >= 0 then r := sub !r m
      done
    in
    feed hi 256;
    feed lo 256;
    !r
  end

let addmod a b m =
  if is_zero m then zero
  else
    let s = add a b in
    let carried = compare s a < 0 in
    let hi = if carried then one else zero in
    mod512 hi s m

let mulmod a b m =
  if is_zero m then zero
  else
    let r = mul_wide a b in
    let lo = make r.(0) r.(1) r.(2) r.(3) and hi = make r.(4) r.(5) r.(6) r.(7) in
    mod512 hi lo m

let exp b e =
  let result = ref one and base = ref b in
  for i = 0 to 255 do
    if get_bit e i then result := mul !result !base;
    base := mul !base !base
  done;
  !result

let pow2 n =
  if n < 0 || n > 255 then invalid_arg "U256.pow2" else pow2_pool.(n)

(* -- EVM-specific ------------------------------------------------------ *)

let signextend k x =
  if k >= 31 || k < 0 then x
  else if get_bit x ((8 * (k + 1)) - 1) then logor x ones_high_pool.(31 - k)
  else logand x ones_low_pool.(k + 1)

let byte i x =
  if i < 0 || i > 31 then zero
  else logand (shift_right x (8 * (31 - i))) (of_int 0xff)

let ones_low k =
  if k <= 0 then zero else if k >= 32 then max_int else ones_low_pool.(k)

let ones_high k =
  if k <= 0 then zero else if k >= 32 then max_int else ones_high_pool.(k)

(* -- string conversions ------------------------------------------------ *)

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "U256.of_hex: bad digit"

let of_hex s =
  let s =
    if String.length s >= 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then
      String.sub s 2 (String.length s - 2)
    else s
  in
  if String.length s = 0 || String.length s > 64 then
    invalid_arg "U256.of_hex: bad length";
  let r = ref zero in
  String.iter (fun c -> r := logor (shift_left !r 4) (of_int (hex_digit c))) s;
  !r

(* The text and byte conversions work a limb at a time: eight bytes
   are one [get_int64_be]/[set_int64_be], and a limb's 16 hex digits
   come from two 32-bit halves and a digit table. *)
let hex_digits = "0123456789abcdef"

let put_hex_limb b pos l =
  let hi = Int64.to_int (Int64.shift_right_logical l 32)
  and lo = Int64.to_int (Int64.logand l 0xffffffffL) in
  for i = 0 to 7 do
    let sh = 28 - (4 * i) in
    Bytes.unsafe_set b (pos + i) hex_digits.[(hi lsr sh) land 0xf];
    Bytes.unsafe_set b (pos + 8 + i) hex_digits.[(lo lsr sh) land 0xf]
  done

let hex_64 a =
  let b = Bytes.create 64 in
  put_hex_limb b 0 a.l3;
  put_hex_limb b 16 a.l2;
  put_hex_limb b 32 a.l1;
  put_hex_limb b 48 a.l0;
  b

let to_hex_32 a = Bytes.unsafe_to_string (hex_64 a)

let to_hex a =
  if is_zero a then "0"
  else
    let b = hex_64 a in
    let rec first_nonzero i =
      if Bytes.unsafe_get b i <> '0' then i else first_nonzero (i + 1)
    in
    let i = first_nonzero 0 in
    Bytes.sub_string b i (64 - i)

let of_bytes_be s =
  let n = String.length s in
  if n > 32 then invalid_arg "U256.of_bytes_be: too long";
  let s =
    if n = 32 then s
    else begin
      let b = Bytes.make 32 '\000' in
      Bytes.blit_string s 0 b (32 - n) n;
      Bytes.unsafe_to_string b
    end
  in
  interned (String.get_int64_be s 24) (String.get_int64_be s 16)
    (String.get_int64_be s 8) (String.get_int64_be s 0)

let to_bytes_be a =
  let b = Bytes.create 32 in
  Bytes.set_int64_be b 0 a.l3;
  Bytes.set_int64_be b 8 a.l2;
  Bytes.set_int64_be b 16 a.l1;
  Bytes.set_int64_be b 24 a.l0;
  Bytes.unsafe_to_string b

let ten = of_int 10

let of_decimal s =
  if String.length s = 0 then invalid_arg "U256.of_decimal: empty";
  let r = ref zero in
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' ->
        r := add (mul !r ten) (of_int (Char.code c - Char.code '0'))
      | '_' -> ()
      | _ -> invalid_arg "U256.of_decimal: bad digit")
    s;
  !r

let of_string s =
  if String.length s >= 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then
    of_hex s
  else of_decimal s

let pp fmt a = Format.fprintf fmt "0x%s" (to_hex a)
