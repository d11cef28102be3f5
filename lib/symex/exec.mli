(** Bounded symbolic execution of one function body.

    The executor explores paths from the function entry with the call
    data fully symbolic, forking at branches whose condition involves
    symbols and following the concrete edge otherwise. Environment reads
    (CALLER, CALLVALUE, ...) are free symbols; SHA3 and SLOAD results are
    free symbols; a jump to a symbolic target ends the path (the paper
    notes only a handful of deployed contracts have such jumps). Loops
    with symbolic guards are unrolled a bounded number of times — the
    rules only need one iteration's worth of events. *)

type budget = {
  max_paths : int;       (** default 512 *)
  max_steps : int;       (** per path, default 20_000 *)
  max_forks_per_pc : int; (** symbolic-loop unrolling bound, default 3 *)
}

val default_budget : budget

type prune_decision = Take_jump | Take_fallthrough
(** A static pre-screen's verdict for a JUMPI site: only one arm can
    matter for call-data access, so follow it instead of forking. *)

type program
(** A disassembled program ready for repeated runs: the pc-indexed op
    table (which also answers jump-destination validity) is built once.
    Read-only after {!prepare}, so a program can be shared across
    domains. *)

val prepare : string -> program
(** [prepare code] disassembles and indexes the bytecode. *)

val code : program -> string
val instructions : program -> Evm.Disasm.instruction list

val run_prepared :
  ?budget:budget ->
  ?prune:(int -> prune_decision option) ->
  ?stop_taken:(Sexpr.t -> bool) ->
  program ->
  entry:int ->
  init_stack:Sexpr.t list ->
  unit ->
  Trace.t
(** Explore from [entry] without re-disassembling. [prune] is consulted
    at each JUMPI whose condition stays symbolic; a decision makes the
    executor follow that single arm (counted in
    [Trace.forks_pruned]) instead of forking. [stop_taken] is asked
    first, with the condition: when it holds, the path goes on down the
    fall-through arm only and the taken arm is never explored. The
    condition and target are recorded either way. The dispatcher run
    uses it to stop at each selector comparison instead of executing
    the function body behind it. *)

val run :
  ?budget:budget ->
  ?prune:(int -> prune_decision option) ->
  code:string ->
  entry:int ->
  init_stack:Sexpr.t list ->
  unit ->
  Trace.t
(** [run ~code] is [run_prepared (prepare code)] — one-shot convenience. *)
