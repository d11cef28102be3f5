(** Linear-sweep disassembler (equivalent to the Geth disassembler the
    paper uses): decodes runtime bytecode into instructions located by
    byte offset. A PUSH whose immediate is truncated by the end of code is
    decoded with the missing bytes as zero, as EVM does. *)

type instruction = { offset : int; op : Opcode.t }

val disassemble : string -> instruction list

val op_table : string -> instruction list -> Opcode.t option array
(** [op_table code (disassemble code)] indexes the instructions by byte
    offset: entry [pc] is the op decoded at [pc], [None] inside push
    data. Executors step and validate jumps through it in O(1). *)

val op_at : Opcode.t option array -> int -> Opcode.t option
(** The op at a pc; [None] in push data and outside the code. *)

val is_jumpdest : Opcode.t option array -> int -> bool
(** A jump target is valid iff the op decoded there is [JUMPDEST]: a
    [0x5b] byte inside a push immediate is not one. *)

val pp_listing : Format.formatter -> instruction list -> unit
