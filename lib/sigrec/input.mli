(** Tolerant parsing of batch input files.

    A batch file carries one hex runtime bytecode per line, with an
    optional ["0x"] prefix. Blank lines and [#] comments are skipped;
    CRLF line endings are accepted. A malformed line is reported with
    its 1-based line number instead of failing the whole file, so one
    bad row in a million-line dump costs one contract, not the batch. *)

type batch = {
  codes : string list;         (** decoded bytecodes, in file order *)
  skipped : (int * string) list;
      (** (1-based line number, reason) for each malformed line *)
}

val parse_batch :
  ?warn:(line:int -> reason:string -> unit) -> string -> batch
(** [warn] is invoked for each malformed line as it is encountered (in
    addition to recording it in [skipped]); use {!warn_stderr} to keep
    diagnostics off stdout so [--format json] output stays
    machine-parseable. *)

val parse_codes : string list -> batch
(** Classify an explicit list of hex bytecodes (a [sigrec serve]
    request's ["codes"] array). Unlike {!parse_batch} the positions in
    [skipped] are 0-based indices into the input list, and a blank
    entry is malformed (["empty bytecode"]) rather than skippable —
    callers supplied it on purpose. Warnings are returned, never
    printed: the serve loop routes them into the JSON response stream
    instead of stderr. *)

val warn_stderr : line:int -> reason:string -> unit
(** A [warn] callback printing ["warning: skipping line N: reason"] to
    stderr (flushed). *)

val parse_line : string -> [ `Blank | `Code of string | `Bad of string ]
(** Classify a single line: skippable, decoded bytecode, or malformed
    with the decoder's reason. A line that decodes to zero bytes (a
    bare ["0x"]) is malformed — [`Bad "empty bytecode"] — not a
    contract. *)

(** What a streaming read saw: physical lines processed (blank and
    comment lines included), bytecodes delivered, malformed lines
    skipped. *)
type totals = { lines : int; codes : int; skipped : int }

val default_max_line_bytes : int
(** The longest line a reader holds: 4 MiB. *)

type reader
(** Lines pulled one at a time from a block source, in fixed-size
    chunks, holding at most one line. A caller can stop at a sentinel
    line and read on later without losing buffered bytes. *)

val reader : ?max_line_bytes:int -> (bytes -> int) -> reader
(** [reader read]: [read buf] fills [buf] from the front and returns the
    number of bytes written, 0 at end of input (it is not called again
    after that). Lines longer than [max_line_bytes] (default
    {!default_max_line_bytes}) are never materialized. *)

val next_line : reader -> [ `Line of string | `Too_long | `Eof ]
(** The next line without its ['\n'] (a final line without one still
    counts), [`Too_long] for a line over the cap (its bytes are
    discarded as they stream past), [`Eof] at end of input. *)

val too_long : reader -> string
(** ["line exceeds N bytes"], N being the reader's cap. *)

val fold_lines :
  ?warn:(line:int -> reason:string -> unit) ->
  ?max_line_bytes:int ->
  f:('a -> string -> 'a) ->
  'a ->
  in_channel ->
  'a * totals
(** Incremental {!parse_batch}: read the channel in fixed-size chunks
    and fold [f] over each decoded bytecode, holding at most one line
    in memory — a million-line corpus streams through in constant
    space. Line classification, CRLF handling, 1-based [warn] line
    numbers and skip semantics are identical to {!parse_batch} (the
    property suite holds the two to agreement). A line longer than
    [max_line_bytes] (default 4 MiB) is skipped — reported like any
    malformed line — without ever being materialized. *)

val fold_reads :
  ?warn:(line:int -> reason:string -> unit) ->
  ?max_line_bytes:int ->
  read:(bytes -> int) ->
  f:('a -> string -> 'a) ->
  'a ->
  'a * totals
(** {!fold_lines} over an arbitrary block source, as for {!reader}. *)
