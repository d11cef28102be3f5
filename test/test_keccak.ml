(* Keccak-256 against published vectors and the Ethereum selectors the
   ecosystem knows by heart. *)

open Evm

let check_hex msg want = Alcotest.(check string) msg want

let test_vectors () =
  (* original Keccak (pre-NIST padding) test vectors *)
  check_hex "empty"
    "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
    (Keccak.digest_hex "");
  check_hex "abc"
    "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"
    (Keccak.digest_hex "abc");
  check_hex "The quick brown fox..."
    "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15"
    (Keccak.digest_hex "The quick brown fox jumps over the lazy dog")

(* Known answers from an independent implementation (OpenSSL's
   KECCAK-256) for runs of 'a' around the 136-byte rate: at 135 and 271
   bytes 0x01 and 0x80 share one padding byte, 136 and 272 end on a
   block edge and take a padding-only block, 137 leaves a one-byte
   tail. *)
let test_block_boundaries () =
  List.iter
    (fun (n, want) ->
      check_hex (Printf.sprintf "%d x 'a'" n) want
        (Keccak.digest_hex (String.make n 'a')))
    [
      (135, "34367dc248bbd832f4e3e69dfaac2f92638bd0bbd18f2912ba4ef454919cf446");
      (136, "a6c4d403279fe3e0af03729caada8374b5ca54d8065329a3ebcaeb4b60aa386e");
      (137, "d869f639c7046b4929fc92a4d988a8b22c55fbadb802c0c66ebcd484f1915f39");
      (271, "132f47effd6c8b1b299efa53fe68aece77ec8ae4eb2e294f668eec94f76001e1");
      (272, "cf7fcd4f705ee749930d19ca84561a9bf62516bd90a471545fa2f49fdc7e63c8");
    ]

(* The first contract of examples/corpus.txt, 451 bytes (four blocks):
   its digest is the code_hash the CLI prints for it, checked against
   OpenSSL's KECCAK-256. *)
let corpus_first_contract =
  "60806040526004361061003f5760003560e01c8063a9059cbb14610041578063095ea7\
   b31461007b57806323b872dd146100cd57806370a0823114610195575b005b50341561\
   004d576101bd565b602b6000556000545060043573ffffffffffffffffffffffffffff\
   ffffffffffff1650602435806001015050005b503415610087576101bd565b60323360\
   005260016020526040600020553360005260016020526040600020545060043573ffff\
   ffffffffffffffffffffffffffffffffffff1650602435806001015050005b50341561\
   00d9576101bd565b6002547fffffffffffffffffffffffffffffffffffffffffffffff\
   ffffffffffffffff001660391760025560025460ff16506002547fffffffffffffffff\
   ffffff0000000000000000000000000000000000000000ff16607160081b1760025560\
   025460081c73ffffffffffffffffffffffffffffffffffffffff165060043573ffffff\
   ffffffffffffffffffffffffffffffffff165060243573ffffffffffffffffffffffff\
   ffffffffffffffff1650604435806001015050005b5034156101a1576101bd565b6004\
   3573ffffffffffffffffffffffffffffffffffffffff1650005b60006000fd"

let test_corpus_contract () =
  check_hex "examples/corpus.txt, first contract"
    "52fac66e379a37c98abe02ef9c9034d2a3e22e6cbce0dea19c15dd5c3684a7a6"
    (Keccak.digest_hex (Hex.decode corpus_first_contract))

(* Only the padded final block is copied: a 64 KiB message costs the
   same minor-heap words as the empty one. *)
let test_allocation_flat () =
  let words msg =
    ignore (Keccak.digest msg);
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Keccak.digest msg));
    Gc.minor_words () -. w0
  in
  let empty = words "" and large = words (String.make 65536 'a') in
  Alcotest.(check bool)
    (Printf.sprintf "64 KiB: %.0f minor words, empty: %.0f" large empty)
    true
    (large <= empty +. 8.)

let test_selectors () =
  let sel s = Hex.encode (Keccak.selector s) in
  check_hex "transfer" "a9059cbb" (sel "transfer(address,uint256)");
  check_hex "approve" "095ea7b3" (sel "approve(address,uint256)");
  check_hex "transferFrom" "23b872dd"
    (sel "transferFrom(address,address,uint256)");
  check_hex "balanceOf" "70a08231" (sel "balanceOf(address)");
  check_hex "totalSupply" "18160ddd" (sel "totalSupply()")

let prop_reference =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"digest agrees with the reference, 0-8 blocks"
       ~count:200
       QCheck.(string_of_size (Gen.int_bound 1100))
       (fun s -> Keccak.digest s = Keccak_reference.digest s))

let prop_length =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"digest is always 32 bytes" ~count:100
       QCheck.(string_of_size (Gen.int_bound 500))
       (fun s -> String.length (Keccak.digest s) = 32))

let prop_deterministic =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"digest deterministic" ~count:50
       QCheck.(string_of_size (Gen.int_bound 300))
       (fun s -> Keccak.digest s = Keccak.digest s))

let prop_injective_ish =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"distinct inputs hash differently" ~count:100
       QCheck.(pair small_string small_string)
       (fun (a, b) ->
         QCheck.assume (a <> b);
         Keccak.digest a <> Keccak.digest b))

let suite =
  [
    Alcotest.test_case "published vectors" `Quick test_vectors;
    Alcotest.test_case "rate boundaries" `Quick test_block_boundaries;
    Alcotest.test_case "well-known selectors" `Quick test_selectors;
    prop_length;
    prop_deterministic;
    prop_injective_ish;
    Alcotest.test_case "corpus contract hash" `Quick test_corpus_contract;
    Alcotest.test_case "allocation flat in length" `Quick test_allocation_flat;
    prop_reference;
  ]
