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

(* One reader per input: lines come back one at a time, so a caller
   can stop at a sentinel and leave what follows buffered for the next
   read. *)
type reader = {
  read : bytes -> int;
  max_line_bytes : int;
  chunk : bytes;
  mutable pos : int; (* next unread byte of [chunk] *)
  mutable len : int; (* bytes of [chunk] filled by the last read *)
  mutable eof : bool; (* [read] returned 0; it is not called again *)
  pending : Buffer.t;
      (* a line spanning chunk boundaries; empty in the common case of a
         line completed within one chunk, so short lines never go
         through it *)
}

let reader ?(max_line_bytes = default_max_line_bytes) read =
  {
    read;
    max_line_bytes;
    chunk = Bytes.create 65536;
    pos = 0;
    len = 0;
    eof = false;
    pending = Buffer.create 256;
  }

let too_long r = Printf.sprintf "line exceeds %d bytes" r.max_line_bytes

let take_pending r =
  let line = Buffer.contents r.pending in
  Buffer.clear r.pending;
  line

(* An oversized line is never materialized: what is held of it is
   dropped and the rest discarded as it streams past, so the cap holds
   however the line falls across reads. *)
let rec scan r too_long =
  if r.pos = r.len && not r.eof then begin
    r.pos <- 0;
    r.len <- r.read r.chunk;
    r.eof <- r.len = 0
  end;
  if r.eof then
    (* a final line without a trailing newline is still a line *)
    if too_long then `Too_long
    else if Buffer.length r.pending > 0 then `Line (take_pending r)
    else `Eof
  else begin
    let start = r.pos in
    let stop = ref start in
    while !stop < r.len && Bytes.unsafe_get r.chunk !stop <> '\n' do
      incr stop
    done;
    let n = !stop - start in
    let ended = !stop < r.len in
    r.pos <- (if ended then !stop + 1 else r.len);
    if too_long || Buffer.length r.pending + n > r.max_line_bytes then begin
      Buffer.clear r.pending;
      if ended then `Too_long else scan r true
    end
    else if ended && Buffer.length r.pending = 0 then
      `Line (Bytes.sub_string r.chunk start n)
    else begin
      Buffer.add_subbytes r.pending r.chunk start n;
      if ended then `Line (take_pending r) else scan r false
    end
  end

let next_line r = scan r false

let fold_reads ?warn ?max_line_bytes ~read ~f init =
  let r = reader ?max_line_bytes read in
  let lines = ref 0 and codes = ref 0 and skipped = ref 0 in
  let skip reason =
    incr skipped;
    match warn with Some w -> w ~line:!lines ~reason | None -> ()
  in
  let rec loop acc =
    match next_line r with
    | `Eof -> acc
    | `Too_long ->
      incr lines;
      skip (too_long r);
      loop acc
    | `Line line -> (
      incr lines;
      match parse_line line with
      | `Blank -> loop acc
      | `Code code ->
        incr codes;
        loop (f acc code)
      | `Bad msg ->
        skip msg;
        loop acc)
  in
  let acc = loop init in
  (acc, { lines = !lines; codes = !codes; skipped = !skipped })

let fold_lines ?warn ?max_line_bytes ~f init ic =
  fold_reads ?warn ?max_line_bytes
    ~read:(fun buf -> In_channel.input ic buf 0 (Bytes.length buf))
    ~f init
