type batch = {
  codes : string list;
  skipped : (int * string) list;
}

let strip_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

let parse_line line =
  let line = String.trim (strip_cr line) in
  if line = "" || line.[0] = '#' then `Blank
  else
    match Evm.Hex.decode line with
    | "" ->
      (* a bare "0x" decodes to zero bytes — feeding that downstream
         would produce a report for a contract that doesn't exist *)
      `Bad "empty bytecode"
    | code -> `Code code
    | exception Invalid_argument msg -> `Bad msg

let parse_batch ?warn text =
  let codes = ref [] and skipped = ref [] in
  List.iteri
    (fun i line ->
      match parse_line line with
      | `Blank -> ()
      | `Code code -> codes := code :: !codes
      | `Bad msg ->
        (match warn with
        | Some f -> f ~line:(i + 1) ~reason:msg
        | None -> ());
        skipped := (i + 1, msg) :: !skipped)
    (String.split_on_char '\n' text);
  { codes = List.rev !codes; skipped = List.rev !skipped }

let parse_codes entries =
  let codes = ref [] and skipped = ref [] in
  List.iteri
    (fun i entry ->
      match parse_line entry with
      | `Code code -> codes := code :: !codes
      (* an explicitly supplied blank entry is a caller mistake, not a
         skippable file row *)
      | `Blank -> skipped := (i, "empty bytecode") :: !skipped
      | `Bad msg -> skipped := (i, msg) :: !skipped)
    entries;
  { codes = List.rev !codes; skipped = List.rev !skipped }

let warn_stderr ~line ~reason =
  Printf.eprintf "warning: skipping line %d: %s\n%!" line reason

(* -- streaming reader -------------------------------------------------- *)

type totals = { lines : int; codes : int; skipped : int }

let default_max_line_bytes = 4 * 1024 * 1024

let fold_reads ?warn ?(max_line_bytes = default_max_line_bytes) ~read ~f init =
  let chunk = Bytes.create 65536 in
  (* holds a line spanning chunk boundaries; empty in the common case
     of a line completed within one chunk, so short lines never go
     through the buffer at all *)
  let pending = Buffer.create 256 in
  (* an oversized line is skipped without ever being materialized: the
     buffer is dropped and the remainder of the line discarded as it
     streams past *)
  let discarding = ref false in
  let lineno = ref 0 in
  let codes = ref 0 and skipped = ref 0 in
  let acc = ref init in
  let dispatch line =
    incr lineno;
    if !discarding then begin
      discarding := false;
      incr skipped;
      match warn with
      | Some w ->
        w ~line:!lineno
          ~reason:(Printf.sprintf "line exceeds %d bytes" max_line_bytes)
      | None -> ()
    end
    else
      match parse_line line with
      | `Blank -> ()
      | `Code code ->
        incr codes;
        acc := f !acc code
      | `Bad msg -> (
        incr skipped;
        match warn with
        | Some w -> w ~line:!lineno ~reason:msg
        | None -> ())
  in
  let eof = ref false in
  while not !eof do
    let n = read chunk in
    if n = 0 then eof := true
    else begin
      let start = ref 0 in
      for i = 0 to n - 1 do
        if Bytes.unsafe_get chunk i = '\n' then begin
          let len = i - !start in
          if !discarding || Buffer.length pending + len > max_line_bytes
          then begin
            (* the cap holds however the line fell across reads *)
            discarding := true;
            Buffer.clear pending;
            dispatch ""
          end
          else if Buffer.length pending = 0 then
            dispatch (Bytes.sub_string chunk !start len)
          else begin
            Buffer.add_subbytes pending chunk !start len;
            dispatch (Buffer.contents pending);
            Buffer.clear pending
          end;
          start := i + 1
        end
      done;
      if !start < n && not !discarding then begin
        let len = n - !start in
        if Buffer.length pending + len > max_line_bytes then begin
          discarding := true;
          Buffer.clear pending
        end
        else Buffer.add_subbytes pending chunk !start len
      end
    end
  done;
  (* a final line without a trailing newline is still a line; input
     ending exactly at a newline adds nothing (the trailing "" that
     [parse_batch] sees there is blank anyway) *)
  if Buffer.length pending > 0 || !discarding then begin
    let line = Buffer.contents pending in
    Buffer.clear pending;
    dispatch line
  end;
  (!acc, { lines = !lineno; codes = !codes; skipped = !skipped })

let fold_lines ?warn ?max_line_bytes ~f init ic =
  fold_reads ?warn ?max_line_bytes
    ~read:(fun buf -> In_channel.input ic buf 0 (Bytes.length buf))
    ~f init
