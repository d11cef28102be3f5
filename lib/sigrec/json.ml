(* Minimal JSON: a recursive-descent parser for the serve request
   protocol and the escape/print helpers every JSON-emitting corner of
   the tree shares (CLI --format json, serve responses, Stats.to_json
   renders its own). No external dependency. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---- printing ------------------------------------------------------- *)

(* Most strings a report carries (keys, hex, type names) need no
   escaping: those come back as they are, without a copy. *)
let escape s =
  if not (String.exists (fun c -> c = '"' || c = '\\' || Char.code c < 0x20) s)
  then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf "\\u00";
          Buffer.add_char buf "0123456789abcdef".[Char.code c lsr 4];
          Buffer.add_char buf "0123456789abcdef".[Char.code c land 0xf]
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

(* The printers below size their result first and fill it in place: one
   allocation per rendered value, however many parts it joins. *)

let quote s =
  let e = escape s in
  let n = String.length e in
  let b = Bytes.make (n + 2) '"' in
  Bytes.blit_string e 0 b 1 n;
  Bytes.unsafe_to_string b

(* [n] comma-separated parts of total length [len] between [opening]
   and [closing]: the brackets and commas are in place, the first part
   goes at offset 1 and each next one a byte after the previous. *)
let frame opening closing ~n ~len =
  let b = Bytes.make (Int.max 2 (len + n + 1)) ',' in
  Bytes.set b 0 opening;
  Bytes.set b (Bytes.length b - 1) closing;
  b

let arr items =
  let len = List.fold_left (fun n s -> n + String.length s) 0 items in
  let b = frame '[' ']' ~n:(List.length items) ~len in
  ignore
    (List.fold_left
       (fun pos s ->
         Bytes.blit_string s 0 b pos (String.length s);
         pos + String.length s + 1)
       1 items
      : int);
  Bytes.unsafe_to_string b

(* A field is ["key":value]: the escaped key, three punctuation bytes
   and the value. *)
let obj fields =
  let len =
    List.fold_left
      (fun n (k, v) -> n + String.length (escape k) + String.length v + 3)
      0 fields
  in
  let b = frame '{' '}' ~n:(List.length fields) ~len in
  ignore
    (List.fold_left
       (fun pos (k, v) ->
         let k = escape k in
         let kl = String.length k and vl = String.length v in
         Bytes.set b pos '"';
         Bytes.blit_string k 0 b (pos + 1) kl;
         Bytes.set b (pos + kl + 1) '"';
         Bytes.set b (pos + kl + 2) ':';
         Bytes.blit_string v 0 b (pos + kl + 3) vl;
         pos + kl + vl + 4)
       1 fields
      : int);
  Bytes.unsafe_to_string b

let number f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let rec to_string = function
  | Null -> "null"
  | Bool b -> if b then "true" else "false"
  | Num f -> number f
  | Str s -> quote s
  | Arr items -> arr (List.map to_string items)
  | Obj fields -> obj (List.map (fun (k, v) -> (k, to_string v)) fields)

(* ---- accessors ------------------------------------------------------ *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_string_opt = function Str s -> Some s | _ -> None
let to_list_opt = function Arr items -> Some items | _ -> None

let to_int_opt = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

(* ---- parsing -------------------------------------------------------- *)

exception Parse_error of string

let fail pos msg = raise (Parse_error (Printf.sprintf "at byte %d: %s" pos msg))

(* UTF-8 encode one code point (for \uXXXX escapes; surrogate pairs are
   combined by the caller) *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xf0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail !pos (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then begin
      pos := !pos + len;
      value
    end
    else fail !pos (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail !pos "truncated \\u escape";
    let v = int_of_string ("0x" ^ String.sub s !pos 4) in
    pos := !pos + 4;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail !pos "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        if !pos >= n then fail !pos "unterminated escape";
        let c = s.[!pos] in
        advance ();
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          let cp = hex4 () in
          let cp =
            if cp >= 0xd800 && cp <= 0xdbff then begin
              (* high surrogate: expect a \uXXXX low surrogate next *)
              if
                !pos + 2 <= n
                && s.[!pos] = '\\'
                && s.[!pos + 1] = 'u'
              then begin
                pos := !pos + 2;
                let lo = hex4 () in
                if lo >= 0xdc00 && lo <= 0xdfff then
                  0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00)
                else fail !pos "invalid low surrogate"
              end
              else fail !pos "lone high surrogate"
            end
            else cp
          in
          add_utf8 buf cp
        | c -> fail !pos (Printf.sprintf "bad escape '\\%c'" c));
        loop ()
      | c when Char.code c < 0x20 -> fail !pos "raw control character"
      | c ->
        Buffer.add_char buf c;
        advance ();
        loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let span = String.sub s start (!pos - start) in
    match float_of_string_opt span with
    | Some f -> Num f
    | None -> fail start (Printf.sprintf "bad number %S" span)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail !pos "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let items = ref [ parse_value () ] in
        let rec elems () =
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items := parse_value () :: !items;
            elems ()
          | Some ']' -> advance ()
          | _ -> fail !pos "expected ',' or ']'"
        in
        elems ();
        Arr (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let value = parse_value () in
          (key, value)
        in
        let fields = ref [ field () ] in
        let rec members () =
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields := field () :: !fields;
            members ()
          | Some '}' -> advance ()
          | _ -> fail !pos "expected ',' or '}'"
        in
        members ();
        Obj (List.rev !fields)
      end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail !pos (Printf.sprintf "unexpected character '%c'" c)
  in
  match parse_value () with
  | v ->
    skip_ws ();
    if !pos < n then Error (Printf.sprintf "at byte %d: trailing input" !pos)
    else Ok v
  | exception Parse_error msg -> Error msg
