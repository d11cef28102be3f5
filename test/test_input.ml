(* Negative-input coverage for Input.parse_batch: the tolerant batch
   parser must skip exactly the malformed lines, report them with the
   right 1-based line numbers, and never hand an empty bytecode
   downstream. *)

let parse = Sigrec.Input.parse_batch

let check_batch name text ~codes ~skipped =
  let b = parse text in
  Alcotest.(check (list string)) (name ^ ": codes") codes
    (List.map (fun c -> "0x" ^ Evm.Hex.encode c) b.Sigrec.Input.codes);
  Alcotest.(check (list int)) (name ^ ": skipped lines") skipped
    (List.map fst b.Sigrec.Input.skipped)

let basics () =
  check_batch "two plain lines" "0x6001\n6002\n" ~codes:[ "0x6001"; "0x6002" ]
    ~skipped:[];
  check_batch "comments and blanks skipped"
    "# header\n\n0x6001\n   \n# tail\n" ~codes:[ "0x6001" ] ~skipped:[]

let bare_prefix_rejected () =
  (* "0x" decodes to zero bytes; it must be a reported skip, not an
     empty contract *)
  check_batch "bare 0x" "0x\n0x6001\n" ~codes:[ "0x6001" ] ~skipped:[ 1 ];
  (match Sigrec.Input.parse_line "0x" with
  | `Bad reason ->
    Alcotest.(check string) "reason" "empty bytecode" reason
  | `Blank -> Alcotest.fail "bare 0x classified as blank"
  | `Code _ -> Alcotest.fail "bare 0x classified as bytecode")

let odd_length_rejected () =
  check_batch "odd-length after 0x strip" "0xabc\n6001\n" ~codes:[ "0x6001" ]
    ~skipped:[ 1 ];
  check_batch "odd-length without prefix" "abc\n" ~codes:[] ~skipped:[ 1 ]

let bad_digits_rejected () =
  check_batch "non-hex digits" "0x60zz\n" ~codes:[] ~skipped:[ 1 ]

let line_numbers_survive_noise () =
  (* skipped-line numbers are positions in the original file, counting
     blanks and comments *)
  check_batch "numbering with noise" "# c\n\n0x\n0x6001\nxyz\n"
    ~codes:[ "0x6001" ] ~skipped:[ 3; 5 ]

let crlf_and_eof () =
  check_batch "CRLF line endings" "0x6001\r\n0x6002\r\n"
    ~codes:[ "0x6001"; "0x6002" ] ~skipped:[];
  check_batch "trailing blank lines at EOF" "0x6001\n\n\n" ~codes:[ "0x6001" ]
    ~skipped:[];
  check_batch "no final newline" "0x6001\n0x6002" ~codes:[ "0x6001"; "0x6002" ]
    ~skipped:[];
  check_batch "empty file" "" ~codes:[] ~skipped:[];
  check_batch "only a newline" "\n" ~codes:[] ~skipped:[]

(* Generator-driven: render any list of bytecodes to a file with random
   noise (comments, blanks, CRLF, bad rows) interleaved, parse it back,
   and the codes must round-trip in order with exactly the bad rows
   skipped. *)
let batch_round_trip () =
  let rng = Random.State.make [| 0xbadfeed |] in
  for _ = 1 to 100 do
    let n = Random.State.int rng 8 in
    let codes =
      Proptest.Gen.init_in_order n (fun _ ->
          let len = 1 + Random.State.int rng 40 in
          String.init len (fun _ -> Char.chr (Random.State.int rng 256)))
    in
    let buf = Buffer.create 256 in
    let bad = ref 0 in
    List.iter
      (fun code ->
        (* noise before each code line *)
        (match Random.State.int rng 4 with
        | 0 -> Buffer.add_string buf "# comment\n"
        | 1 -> Buffer.add_string buf "\n"
        | 2 ->
          incr bad;
          Buffer.add_string buf
            (match Random.State.int rng 3 with
            | 0 -> "0x\n"
            | 1 -> "0xabc\n"
            | _ -> "nothex!\n")
        | _ -> ());
        let hex = Evm.Hex.encode code in
        let hex = if Random.State.bool rng then "0x" ^ hex else hex in
        Buffer.add_string buf hex;
        Buffer.add_string buf (if Random.State.bool rng then "\r\n" else "\n"))
      codes;
    let b = parse (Buffer.contents buf) in
    Alcotest.(check (list string)) "codes round-trip"
      (List.map Evm.Hex.encode codes)
      (List.map Evm.Hex.encode b.Sigrec.Input.codes);
    Alcotest.(check int) "every planted bad row reported" !bad
      (List.length b.Sigrec.Input.skipped)
  done

(* -- the streaming reader -------------------------------------------- *)

(* Drive fold_reads from an in-memory string, delivering at most
   [chunk] bytes per read, so lines spanning read boundaries are
   exercised down to one byte per read. *)
let fold_string ?warn ?max_line_bytes ~chunk text =
  let pos = ref 0 in
  let read buf =
    let n =
      Stdlib.min chunk
        (Stdlib.min (Bytes.length buf) (String.length text - !pos))
    in
    Bytes.blit_string text !pos buf 0 n;
    pos := !pos + n;
    n
  in
  Sigrec.Input.fold_reads ?warn ?max_line_bytes ~read
    ~f:(fun acc code -> code :: acc)
    []

let check_fold_agrees name ~chunk text =
  let b = parse text in
  let warned = ref [] in
  let codes, totals =
    fold_string
      ~warn:(fun ~line ~reason:_ -> warned := line :: !warned)
      ~chunk text
  in
  Alcotest.(check (list string))
    (Printf.sprintf "%s (chunk %d): codes agree" name chunk)
    (List.map Evm.Hex.encode b.Sigrec.Input.codes)
    (List.map Evm.Hex.encode (List.rev codes));
  Alcotest.(check (list int))
    (Printf.sprintf "%s (chunk %d): skip lines agree" name chunk)
    (List.map fst b.Sigrec.Input.skipped)
    (List.rev !warned);
  Alcotest.(check int)
    (Printf.sprintf "%s (chunk %d): totals.codes" name chunk)
    (List.length b.Sigrec.Input.codes)
    totals.Sigrec.Input.codes;
  Alcotest.(check int)
    (Printf.sprintf "%s (chunk %d): totals.skipped" name chunk)
    (List.length b.Sigrec.Input.skipped)
    totals.Sigrec.Input.skipped

let fold_lines_agrees_with_parse_batch () =
  let fixtures =
    [
      ("plain", "0x6001\n6002\n");
      ("noise", "# header\n\n0x6001\n   \n# tail\n");
      ("bare 0x", "0x\n0x6001\n");
      ("odd length", "0xabc\n6001\n");
      ("bad digits", "0x60zz\n");
      ("numbering", "# c\n\n0x\n0x6001\nxyz\n");
      ("CRLF", "0x6001\r\n0x6002\r\n");
      ("no final newline", "0x6001\n0x6002");
      ("empty", "");
      ("only newline", "\n");
      ("trailing blanks", "0x6001\n\n\n");
    ]
  in
  List.iter
    (fun (name, text) ->
      List.iter
        (fun chunk -> check_fold_agrees name ~chunk text)
        [ 1; 2; 3; 7; 64; 65536 ])
    fixtures

(* Generator-driven agreement: the same noisy batches the round-trip
   test feeds parse_batch, re-read through fold_reads at a random chunk
   size each round. *)
let fold_round_trip () =
  let rng = Random.State.make [| 0xfeedbad |] in
  for round = 1 to 100 do
    let n = Random.State.int rng 8 in
    let buf = Buffer.create 256 in
    for _ = 1 to n do
      (match Random.State.int rng 5 with
      | 0 -> Buffer.add_string buf "# comment\n"
      | 1 -> Buffer.add_string buf "\n"
      | 2 ->
        Buffer.add_string buf
          (match Random.State.int rng 3 with
          | 0 -> "0x\n"
          | 1 -> "0xabc\n"
          | _ -> "nothex!\n")
      | _ -> ());
      let len = 1 + Random.State.int rng 40 in
      let code =
        String.init len (fun _ -> Char.chr (Random.State.int rng 256))
      in
      let hex = Evm.Hex.encode code in
      Buffer.add_string buf (if Random.State.bool rng then "0x" ^ hex else hex);
      Buffer.add_string buf (if Random.State.bool rng then "\r\n" else "\n")
    done;
    let chunk = 1 + Random.State.int rng 96 in
    check_fold_agrees
      (Printf.sprintf "round %d" round)
      ~chunk (Buffer.contents buf)
  done

let oversized_lines_skipped () =
  (* a line over the cap is reported with its line number and never
     delivered; surrounding lines are unaffected *)
  let big = String.make 200 '6' in
  let text = "0x6001\n" ^ big ^ "\n0x6002\n" in
  let warned = ref [] in
  let codes, totals =
    fold_string
      ~warn:(fun ~line ~reason -> warned := (line, reason) :: !warned)
      ~max_line_bytes:64 ~chunk:7 text
  in
  Alcotest.(check (list string)) "neighbors survive" [ "6001"; "6002" ]
    (List.rev_map Evm.Hex.encode codes);
  Alcotest.(check int) "one skip" 1 totals.Sigrec.Input.skipped;
  (match !warned with
  | [ (line, reason) ] ->
    Alcotest.(check int) "reported on its own line" 2 line;
    Alcotest.(check bool) "reason names the cap" true
      (String.length reason > 0)
  | _ -> Alcotest.fail "expected exactly one oversized warning");
  (* an oversized final line without a newline is still reported *)
  let _, totals =
    fold_string ~max_line_bytes:64 ~chunk:7 ("0x6001\n" ^ big)
  in
  Alcotest.(check int) "unterminated oversized line skipped" 1
    totals.Sigrec.Input.skipped;
  Alcotest.(check int) "short line still delivered" 1
    totals.Sigrec.Input.codes

let final_line_exactly_at_cap () =
  (* a final line of exactly [max_line_bytes] with no trailing newline
     sits right on the cap: it must be delivered, not skipped, and the
     streaming read must agree with parse_batch — the cap rejects
     strictly longer lines only *)
  let exact = "0x" ^ String.make 62 '6' in
  Alcotest.(check int) "fixture is cap-sized" 64 (String.length exact);
  List.iter
    (fun (name, text) ->
      let b = parse text in
      List.iter
        (fun chunk ->
          let codes, totals = fold_string ~max_line_bytes:64 ~chunk text in
          Alcotest.(check (list string))
            (Printf.sprintf "%s (chunk %d): codes agree" name chunk)
            (List.map Evm.Hex.encode b.Sigrec.Input.codes)
            (List.rev_map Evm.Hex.encode codes);
          Alcotest.(check int)
            (Printf.sprintf "%s (chunk %d): nothing skipped" name chunk)
            0 totals.Sigrec.Input.skipped)
        [ 1; 7; 63; 64; 65; 65536 ])
    [ ("cap-sized only line", exact); ("after a neighbor", "0x6001\n" ^ exact) ];
  (* one byte past the cap, same unterminated shape, is skipped *)
  let over = "0x" ^ String.make 63 '6' in
  let codes, totals = fold_string ~max_line_bytes:64 ~chunk:7 ("0x6001\n" ^ over) in
  Alcotest.(check (list string)) "neighbor survives" [ "6001" ]
    (List.rev_map Evm.Hex.encode codes);
  Alcotest.(check int) "cap+1 skipped" 1 totals.Sigrec.Input.skipped;
  (* two bytes past the cap and newline-terminated: skipped whatever the
     read size, including reads at or above the cap that deliver the
     whole line at once *)
  let over2 = "0x" ^ String.make 64 '6' in
  Alcotest.(check int) "fixture is cap+2" 66 (String.length over2);
  List.iter
    (fun chunk ->
      let codes, totals =
        fold_string ~max_line_bytes:64 ~chunk
          ("0x6001\n" ^ over2 ^ "\n0x6002\n")
      in
      Alcotest.(check (list string))
        (Printf.sprintf "terminated cap+2 (chunk %d): neighbors survive" chunk)
        [ "6001"; "6002" ]
        (List.rev_map Evm.Hex.encode codes);
      Alcotest.(check int)
        (Printf.sprintf "terminated cap+2 (chunk %d): skipped" chunk)
        1 totals.Sigrec.Input.skipped)
    [ 7; 63; 64; 65536 ]

let suite =
  [
    ("well-formed lines parse", `Quick, basics);
    ("bare 0x is rejected, not an empty contract", `Quick, bare_prefix_rejected);
    ("odd-length hex is rejected", `Quick, odd_length_rejected);
    ("non-hex digits are rejected", `Quick, bad_digits_rejected);
    ("skip numbering counts noise lines", `Quick, line_numbers_survive_noise);
    ("CRLF, EOF blanks, missing final newline", `Quick, crlf_and_eof);
    ("generated batches round-trip", `Quick, batch_round_trip);
    ( "fold_lines agrees with parse_batch",
      `Quick,
      fold_lines_agrees_with_parse_batch );
    ("generated streams agree with parse_batch", `Quick, fold_round_trip);
    ("oversized lines are skipped, not buffered", `Quick, oversized_lines_skipped);
    ("final line exactly at the cap survives", `Quick, final_line_exactly_at_cap);
  ]
