(* Unit and property tests for 256-bit machine words. *)

open Evm

let u = Alcotest.testable U256.pp U256.equal

let check_u = Alcotest.check u
let of_s = U256.of_string

(* -- generators --------------------------------------------------------- *)

let gen_u256 =
  QCheck.Gen.(
    map
      (fun (a, b, c, d) ->
        let word x = U256.of_int64 x in
        U256.logor
          (U256.shift_left (word a) 192)
          (U256.logor
             (U256.shift_left (word b) 128)
             (U256.logor (U256.shift_left (word c) 64) (word d))))
      (quad int64 int64 int64 int64))

let arb_u256 = QCheck.make ~print:(fun v -> "0x" ^ U256.to_hex v) gen_u256

let arb_small =
  QCheck.make
    ~print:(fun v -> "0x" ^ U256.to_hex v)
    QCheck.Gen.(map (fun n -> U256.of_int (abs n)) int)

(* -- unit tests ---------------------------------------------------------- *)

let test_constants () =
  check_u "zero" U256.zero (of_s "0");
  check_u "one" U256.one (of_s "1");
  check_u "max"
    (of_s "0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff")
    U256.max_int

let test_add_carry_chain () =
  (* carries must propagate through all four limbs *)
  check_u "max+1 wraps" U256.zero (U256.add U256.max_int U256.one);
  check_u "carry through limb 1"
    (of_s "0x10000000000000000")
    (U256.add (of_s "0xffffffffffffffff") U256.one);
  check_u "carry through limb 2"
    (of_s "0x100000000000000000000000000000000")
    (U256.add (of_s "0xffffffffffffffffffffffffffffffff") U256.one);
  check_u "carry through limb 3"
    (of_s "0x1000000000000000000000000000000000000000000000000")
    (U256.add (of_s "0xffffffffffffffffffffffffffffffffffffffffffffffff") U256.one)

let test_sub_borrow () =
  check_u "0-1 wraps" U256.max_int (U256.sub U256.zero U256.one);
  check_u "borrow chain" (of_s "0xffffffffffffffff")
    (U256.sub (of_s "0x10000000000000000") U256.one)

let test_mul_known () =
  check_u "small" (of_s "0x1532718febb346e1ce")
    (U256.mul (of_s "123456789123") (of_s "3167233434"));
  (* (2^128-1)^2 = 2^256 - 2^129 + 1 *)
  let m128 = U256.sub (U256.pow2 128) U256.one in
  check_u "wide square"
    (U256.add (U256.sub U256.zero (U256.pow2 129)) U256.one)
    (U256.mul m128 m128)

let test_div_known () =
  check_u "exact" (of_s "0x100") (U256.div (of_s "0x10000") (of_s "0x100"));
  check_u "by zero is zero" U256.zero (U256.div U256.one U256.zero);
  check_u "rem by zero is zero" U256.zero (U256.rem U256.one U256.zero);
  check_u "big division"
    (of_s "0x55555555555555555555555555555555")
    (U256.div (of_s "0xffffffffffffffffffffffffffffffff") (of_s "3"))

let test_sdiv_smod () =
  let minus x = U256.neg (U256.of_int x) in
  check_u "(-7)/2 = -3" (minus 3) (U256.sdiv (minus 7) (U256.of_int 2));
  check_u "7/(-2) = -3" (minus 3) (U256.sdiv (U256.of_int 7) (minus 2));
  check_u "(-7) smod 2 = -1" (minus 1) (U256.srem (minus 7) (U256.of_int 2));
  check_u "7 smod (-2) = 1" (U256.of_int 1) (U256.srem (U256.of_int 7) (minus 2));
  (* EVM edge case: MIN_INT / -1 = MIN_INT *)
  let min_int = U256.shift_left U256.one 255 in
  check_u "min/-1" min_int (U256.sdiv min_int U256.max_int)

let test_addmod_mulmod () =
  check_u "(max+max) mod 10 = 0" U256.zero
    (U256.addmod U256.max_int U256.max_int (U256.of_int 10));
  check_u "mulmod big" (U256.of_int 198967538)
    (U256.mulmod (U256.pow2 200) (U256.pow2 200) (U256.of_int 1000000007));
  check_u "addmod m=0" U256.zero (U256.addmod U256.one U256.one U256.zero);
  check_u "mulmod m=0" U256.zero (U256.mulmod U256.one U256.one U256.zero)

let test_exp () =
  check_u "3^5" (U256.of_int 243) (U256.exp (U256.of_int 3) (U256.of_int 5));
  check_u "2^256 wraps" U256.zero (U256.exp (U256.of_int 2) (U256.of_int 256));
  check_u "x^0" U256.one (U256.exp U256.max_int U256.zero);
  check_u "0^0" U256.one (U256.exp U256.zero U256.zero)

let test_signextend () =
  check_u "extend 0xff from byte 0" U256.max_int
    (U256.signextend 0 (U256.of_int 0xff));
  check_u "extend 0x7f from byte 0" (U256.of_int 0x7f)
    (U256.signextend 0 (U256.of_int 0x7f));
  check_u "k>=31 unchanged" (U256.of_int 0x1234)
    (U256.signextend 31 (U256.of_int 0x1234));
  (* sign extension also clears junk above a non-negative value *)
  check_u "clears high garbage" (U256.of_int 0x7f)
    (U256.signextend 0 (of_s "0xabcdef000000000000000000000000000000000000000000000000000000007f"))

let test_byte () =
  let v = of_s "0x0102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20" in
  check_u "byte 0 is most significant" (U256.of_int 0x01) (U256.byte 0 v);
  check_u "byte 31 is least significant" (U256.of_int 0x20) (U256.byte 31 v);
  check_u "byte 15" (U256.of_int 0x10) (U256.byte 15 v);
  check_u "out of range" U256.zero (U256.byte 32 v)

let test_shifts () =
  check_u "shl across limb" (U256.pow2 130) (U256.shift_left (U256.pow2 2) 128);
  check_u "shr across limb" (U256.pow2 2) (U256.shift_right (U256.pow2 130) 128);
  check_u "shl 256" U256.zero (U256.shift_left U256.one 256);
  check_u "sar negative" (U256.neg (U256.of_int 4))
    (U256.shift_right_arith (U256.neg (U256.of_int 16)) 2);
  check_u "sar 255 of negative" U256.max_int
    (U256.shift_right_arith (U256.neg U256.one) 255)

let test_masks () =
  check_u "ones_low 20"
    (of_s "0xffffffffffffffffffffffffffffffffffffffff")
    (U256.ones_low 20);
  check_u "ones_high 4"
    (of_s "0xffffffff00000000000000000000000000000000000000000000000000000000")
    (U256.ones_high 4);
  check_u "ones_low 32" U256.max_int (U256.ones_low 32);
  check_u "ones_high 0" U256.zero (U256.ones_high 0)

let test_string_roundtrip () =
  List.iter
    (fun s -> Alcotest.check Alcotest.string "hex roundtrip" s (U256.to_hex (of_s ("0x" ^ s))))
    [ "0"; "1"; "deadbeef"; "ffffffffffffffffffffffff";
      "123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef" ]

let test_bytes_be () =
  let v = of_s "0xa9059cbb" in
  let b = U256.to_bytes_be v in
  Alcotest.(check int) "length" 32 (String.length b);
  Alcotest.(check char) "last byte" '\xbb' b.[31];
  check_u "roundtrip" v (U256.of_bytes_be b)

let test_decimal () =
  check_u "decimal parse" (U256.of_int 123456) (U256.of_decimal "123456");
  check_u "scale" (of_s "10000000000") (U256.of_decimal "10000000000")

let test_comparisons () =
  Alcotest.(check bool) "unsigned max > 1" true (U256.gt U256.max_int U256.one);
  Alcotest.(check bool) "signed max < 0 is -1 < 0... max_int is -1" true
    (U256.slt U256.max_int U256.zero);
  Alcotest.(check bool) "slt -1 < 1" true (U256.slt (U256.neg U256.one) U256.one);
  Alcotest.(check bool) "sgt 1 > -1" true (U256.sgt U256.one (U256.neg U256.one));
  Alcotest.(check int) "bits of 255" 8 (U256.bits (U256.of_int 255));
  Alcotest.(check int) "bits of 2^200" 201 (U256.bits (U256.pow2 200));
  Alcotest.(check int) "bits of zero" 0 (U256.bits U256.zero)

(* -- properties ---------------------------------------------------------- *)

(* deterministically seeded: a property failure here must reproduce on
   re-run, not depend on the harness's ambient randomness *)
let prop name arb f =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0x51953c |])
    (QCheck.Test.make ~name ~count:300 arb f)

let properties =
  [
    prop "add commutative" (QCheck.pair arb_u256 arb_u256) (fun (a, b) ->
        U256.equal (U256.add a b) (U256.add b a));
    prop "add associative" (QCheck.triple arb_u256 arb_u256 arb_u256)
      (fun (a, b, c) ->
        U256.equal (U256.add a (U256.add b c)) (U256.add (U256.add a b) c));
    prop "sub inverse" (QCheck.pair arb_u256 arb_u256) (fun (a, b) ->
        U256.equal (U256.sub (U256.add a b) b) a);
    prop "neg involution" arb_u256 (fun a ->
        U256.equal (U256.neg (U256.neg a)) a);
    prop "mul commutative" (QCheck.pair arb_u256 arb_u256) (fun (a, b) ->
        U256.equal (U256.mul a b) (U256.mul b a));
    prop "mul distributes" (QCheck.triple arb_u256 arb_u256 arb_u256)
      (fun (a, b, c) ->
        U256.equal
          (U256.mul a (U256.add b c))
          (U256.add (U256.mul a b) (U256.mul a c)));
    prop "divmod reconstruction" (QCheck.pair arb_u256 arb_u256)
      (fun (a, b) ->
        QCheck.assume (not (U256.is_zero b));
        U256.equal a (U256.add (U256.mul (U256.div a b) b) (U256.rem a b)));
    prop "rem < divisor" (QCheck.pair arb_u256 arb_u256) (fun (a, b) ->
        QCheck.assume (not (U256.is_zero b));
        U256.lt (U256.rem a b) b);
    prop "sdiv/smod reconstruction" (QCheck.pair arb_u256 arb_u256)
      (fun (a, b) ->
        QCheck.assume (not (U256.is_zero b));
        U256.equal a (U256.add (U256.mul (U256.sdiv a b) b) (U256.srem a b)));
    prop "shl/shr inverse for small" (QCheck.pair arb_small QCheck.(int_bound 190))
      (fun (a, k) ->
        U256.equal (U256.shift_right (U256.shift_left a k) k) a);
    prop "and/or identity" arb_u256 (fun a ->
        U256.equal (U256.logand a U256.max_int) a
        && U256.equal (U256.logor a U256.zero) a);
    prop "de morgan" (QCheck.pair arb_u256 arb_u256) (fun (a, b) ->
        U256.equal
          (U256.lognot (U256.logand a b))
          (U256.logor (U256.lognot a) (U256.lognot b)));
    prop "bytes_be roundtrip" arb_u256 (fun a ->
        U256.equal a (U256.of_bytes_be (U256.to_bytes_be a)));
    prop "hex roundtrip" arb_u256 (fun a ->
        U256.equal a (U256.of_hex (U256.to_hex a)));
    prop "byte composition" arb_u256 (fun a ->
        (* reassembling all 32 bytes yields the value *)
        let rec build i acc =
          if i = 32 then acc
          else
            build (i + 1)
              (U256.logor (U256.shift_left acc 8) (U256.byte i a))
        in
        U256.equal a (build 0 U256.zero));
    prop "addmod matches wide sum" (QCheck.pair arb_small arb_small)
      (fun (a, b) ->
        (* for values with no 256-bit overflow, addmod = (a+b) mod m *)
        let m = U256.of_int 1000003 in
        U256.equal (U256.addmod a b m) (U256.rem (U256.add a b) m));
    prop "mulmod matches small product" (QCheck.pair arb_small arb_small)
      (fun (a, b) ->
        let a = U256.logand a (U256.ones_low 8)
        and b = U256.logand b (U256.ones_low 8) in
        let m = U256.of_int 65537 in
        U256.equal (U256.mulmod a b m) (U256.rem (U256.mul a b) m));
    prop "signextend idempotent" (QCheck.pair arb_u256 QCheck.(int_bound 31))
      (fun (a, k) ->
        let once = U256.signextend k a in
        U256.equal once (U256.signextend k once));
    prop "unsigned compare total order" (QCheck.pair arb_u256 arb_u256)
      (fun (a, b) -> U256.compare a b = -U256.compare b a);
    prop "add/sub roundtrip" (QCheck.pair arb_u256 arb_u256) (fun (a, b) ->
        U256.equal (U256.add (U256.sub a b) b) a);
    prop "mul by pow2 = shl" (QCheck.pair arb_u256 QCheck.(int_bound 255))
      (fun (a, k) ->
        U256.equal (U256.mul a (U256.pow2 k)) (U256.shift_left a k));
    prop "low/high masks complementary" QCheck.(int_bound 32) (fun k ->
        U256.equal (U256.ones_low k) (U256.lognot (U256.ones_high (32 - k))));
    prop "byte agrees with shift+mask"
      (QCheck.pair arb_u256 QCheck.(int_bound 31))
      (fun (a, i) ->
        U256.equal (U256.byte i a)
          (U256.logand
             (U256.shift_right a (8 * (31 - i)))
             (U256.ones_low 1)));
    prop "signextend then mask is identity on low bytes"
      (QCheck.pair arb_u256 QCheck.(int_bound 30))
      (fun (a, k) ->
        (* extending from byte k never changes bytes 0..k *)
        let m = U256.ones_low (k + 1) in
        U256.equal (U256.logand (U256.signextend k a) m) (U256.logand a m));
  ]

(* the small-constant pools must hand back one canonical block per
   value: structural equality and physical equality coincide there *)
let test_pooled_constants_physical () =
  let phys = Alcotest.(check bool) in
  phys "of_int pooled" true (U256.of_int 1024 == U256.of_int 1024);
  phys "of_int64 routes through the pool" true
    (U256.of_int64 7L == U256.of_int 7);
  phys "arithmetic lands in the pool" true
    (U256.add (U256.of_int 40) (U256.of_int 2) == U256.of_int 42);
  phys "pow2 pooled" true (U256.pow2 255 == U256.pow2 255);
  phys "small pow2 shares the int pool" true
    (U256.pow2 8 == U256.of_int 256);
  phys "masks pooled" true (U256.ones_low 20 == U256.ones_low 20);
  phys "zero canonical" true (U256.sub U256.one U256.one == U256.zero)

(* -- limb-wise conversions -------------------------------------------------

   Round trips cannot catch a byte-order slip made the same way in both
   directions, so the conversions are also checked against answers built
   independently: [of_hex] of the same digits, and a byte-at-a-time
   rendering through [byte]. *)

let test_of_bytes_be_known () =
  for n = 0 to 32 do
    let bytes =
      String.init n (fun i -> Char.chr ((0x9d + (i * 37)) land 0xff))
    in
    let digits =
      String.concat ""
        (List.init n (fun i -> Printf.sprintf "%02x" (Char.code bytes.[i])))
    in
    let want = if n = 0 then U256.zero else U256.of_hex digits in
    check_u (Printf.sprintf "%d bytes" n) want (U256.of_bytes_be bytes)
  done;
  Alcotest.(check bool) "small results land in the pool" true
    (U256.of_bytes_be "\001\000" == U256.of_int 256)

let bytes_by_byte a =
  String.init 32 (fun i -> Char.chr (U256.to_int_trunc (U256.byte i a)))

let hex_by_byte a =
  String.concat ""
    (List.init 32 (fun i ->
         Printf.sprintf "%02x" (U256.to_int_trunc (U256.byte i a))))

(* Old-solc dispatchers move the selector into place by dividing the
   first call-data word by 2^224. *)
let test_selector_division () =
  let tail = String.concat "" (List.init 28 (fun _ -> "01")) in
  let word = U256.of_hex ("70a08231" ^ tail) in
  check_u "selector" (of_s "0x70a08231") (U256.div word (U256.pow2 224));
  check_u "residue" (U256.of_hex tail) (U256.rem word (U256.pow2 224))

(* random words cut to a random width, so leading zero bytes occur *)
let arb_width =
  QCheck.map ~rev:(fun a -> (a, 0))
    (fun (a, k) -> U256.shift_right a k)
    (QCheck.pair arb_u256 QCheck.(int_bound 256))

let conversion_properties =
  [
    prop "conversions match a byte-at-a-time reference" arb_width
      (fun a ->
        let hex = hex_by_byte a in
        let rec strip i =
          if i < 63 && hex.[i] = '0' then strip (i + 1) else i
        in
        let i = strip 0 in
        U256.to_bytes_be a = bytes_by_byte a
        && U256.to_hex_32 a = hex
        && U256.to_hex a = String.sub hex i (64 - i));
    prop "divmod by every power of two" arb_width (fun a ->
        List.for_all
          (fun k ->
            let b = U256.pow2 k in
            let q = U256.div a b and r = U256.rem a b in
            U256.equal (U256.add (U256.mul q b) r) a && U256.lt r b)
          (List.init 256 Fun.id));
  ]

let suite =
  [
    Alcotest.test_case "constants" `Quick test_constants;
    Alcotest.test_case "add carry chain" `Quick test_add_carry_chain;
    Alcotest.test_case "sub borrow" `Quick test_sub_borrow;
    Alcotest.test_case "mul known values" `Quick test_mul_known;
    Alcotest.test_case "div known values" `Quick test_div_known;
    Alcotest.test_case "sdiv/smod" `Quick test_sdiv_smod;
    Alcotest.test_case "addmod/mulmod" `Quick test_addmod_mulmod;
    Alcotest.test_case "exp" `Quick test_exp;
    Alcotest.test_case "signextend" `Quick test_signextend;
    Alcotest.test_case "byte" `Quick test_byte;
    Alcotest.test_case "shifts" `Quick test_shifts;
    Alcotest.test_case "masks" `Quick test_masks;
    Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
    Alcotest.test_case "bytes_be" `Quick test_bytes_be;
    Alcotest.test_case "decimal" `Quick test_decimal;
    Alcotest.test_case "comparisons" `Quick test_comparisons;
    Alcotest.test_case "pooled constants are physically shared" `Quick
      test_pooled_constants_physical;
  ]
  @ properties
  @ [
      Alcotest.test_case "of_bytes_be known answers" `Quick
        test_of_bytes_be_known;
      Alcotest.test_case "selector division by 2^224" `Quick
        test_selector_division;
    ]
  @ conversion_properties
