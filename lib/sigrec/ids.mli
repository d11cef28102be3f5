(** Function-id extraction from the dispatcher (paper §4.1 /
    supplementary E).

    The dispatcher reads the first four call-data bytes, shifts or
    divides them into place, and compares the result against each
    function id with EQ followed by a conditional jump. This module runs
    the dispatcher symbolically from pc 0 and reads each id from the
    comparison it executes, so junk instructions and split constants do
    not hide it. The run stops at every selector comparison (it follows
    only the fall-through arm), so no function body is executed here.

    The entries are the selector comparisons that run reaches. A path
    ends at an invalid opcode and at a jump whose constant target is
    not a JUMPDEST, so a dispatcher with a damaged prologue or jump
    target yields only the entries before the damage. *)

type entry = {
  selector : string;     (** 4 bytes *)
  entry_pc : int;        (** JUMPDEST offset of the function body *)
}

val extract : string -> entry list
(** [extract bytecode] returns entries in dispatch order, one per
    selector. *)

val extract_prepared : Symex.Exec.program -> entry list
(** Same, over an already-disassembled program (no second sweep). *)

val uses_shr_dispatch : string -> bool
(** Whether the selector is moved with SHR (newer solc) rather than
    DIV. *)
