(* The JSON printers against the parser: any byte string survives
   [quote], [obj] and [arr] and parses back to itself, whether or not it
   needs escaping; and a report whose error message needs escaping
   renders to an exact line. *)

open Sigrec

(* Half plain (the printers' no-escape path), half drawn from the bytes
   that need care: quote, backslash, every control byte, bytes >= 0x80. *)
let json_string =
  let open QCheck.Gen in
  let plain =
    map Char.chr (oneof [ int_range 0x30 0x39; int_range 0x61 0x7a ])
  in
  let tricky =
    frequency
      [
        (1, return '"');
        (1, return '\\');
        (2, map Char.chr (int_bound 0x1f));
        (2, map Char.chr (int_range 0x7f 0xff));
        (4, printable);
      ]
  in
  QCheck.make ~print:(Printf.sprintf "%S")
    (oneof
       [
         string_size ~gen:plain (int_bound 24);
         string_size ~gen:tricky (int_bound 24);
       ])

let prop_quote =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"parse (quote s) = Str s" ~count:500 json_string
       (fun s -> Json.parse (Json.quote s) = Ok (Json.Str s)))

let prop_obj_arr =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"obj and arr of quoted strings parse back"
       ~count:300
       QCheck.(
         list_of_size (Gen.int_bound 5)
           (pair json_string (small_list json_string)))
       (fun fields ->
         let rendered =
           Json.obj
             (List.map
                (fun (k, vs) -> (k, Json.arr (List.map Json.quote vs)))
                fields)
         in
         Json.parse rendered
         = Ok
             (Json.Obj
                (List.map
                   (fun (k, vs) ->
                     (k, Json.Arr (List.map (fun v -> Json.Str v) vs)))
                   fields))))

let test_report_golden () =
  let recovered =
    {
      Recover.selector = "\xa9\x05\x9c\xbb";
      selector_hex = "a9059cbb";
      params =
        Abi.Abity.
          [
            Address;
            Uint 256;
            Sarray (Bytes_n 4, 3);
            Darray (Tuple [ Bool; String_t ]);
          ];
      rule_paths = [ [ "R4"; "R16" ]; [ "R1" ]; []; [] ];
      evidence = [];
      lang = Abi.Abity.Solidity;
      entry_pc = 65;
      paths_explored = 2;
    }
  in
  let message = "Failure(\"x\\y\")\nat \001" in
  let report =
    {
      Engine.code_hash = "ab12";
      from_cache = false;
      outcomes =
        [
          Engine.Recovered { result = recovered; elapsed_ns = 1234 };
          Engine.Failed
            {
              Engine.selector = "\x12\x34\x56\x78";
              selector_hex = "12345678";
              entry_pc = 99;
              message;
            };
        ];
    }
  in
  let line = Render.report report in
  Alcotest.(check string)
    "rendered report"
    ({|{"code_hash":"0xab12","from_cache":false,"functions":[|}
    ^ {|{"selector":"0xa9059cbb",|}
    ^ {|"types":["address","uint256","bytes4[3]","(bool,string)[]"],|}
    ^ {|"lang":"solidity","rule_paths":[["R4","R16"],["R1"],[],[]],|}
    ^ {|"entry_pc":65,"outcome":"recovered","elapsed_ns":1234},|}
    ^ {|{"selector":"0x12345678","entry_pc":99,"outcome":"failed",|}
    ^ {|"error":"Failure(\"x\\y\")\nat \u0001"}]}|})
    line;
  let error =
    match Json.parse line with
    | Ok v -> (
      match Json.member "functions" v with
      | Some (Json.Arr [ _; failed ]) -> Json.member "error" failed
      | _ -> None)
    | Error _ -> None
  in
  Alcotest.(check (option string))
    "error message parses back" (Some message)
    (Option.bind error Json.to_string_opt)

let suite =
  [
    prop_quote;
    prop_obj_arr;
    Alcotest.test_case "report golden with escapes" `Quick test_report_golden;
  ]
