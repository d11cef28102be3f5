(** Concrete EVM interpreter.

    Executes runtime bytecode against a message-call environment. External
    interactions (balances, external calls, block data) are modelled with
    fixed environment values — enough to run the contracts produced by the
    synthetic compiler, the fuzzer workloads and differential tests of the
    symbolic engine. *)

type env = {
  caller : U256.t;
  callvalue : U256.t;
  address : U256.t;
  origin : U256.t;
  timestamp : U256.t;
  number : U256.t;
  chainid : U256.t;
}

val default_env : env

type outcome =
  | Stopped                    (** STOP or running off the end of code *)
  | Returned of string         (** RETURN with its data *)
  | Reverted of string         (** REVERT with its data *)
  | Invalid_op                 (** INVALID executed *)
  | Out_of_gas
  | Stack_error                (** underflow or overflow *)
  | Bad_jump of int            (** jump to a non-JUMPDEST target *)

type result = {
  outcome : outcome;
  gas_used : int;
  steps : int;
  storage : Machine.Storage.t;
  trace_pcs : int list;        (** executed program counters, in order *)
}

type program
(** Decoded code ready for repeated runs: a pc-indexed op table built
    once. Read-only after {!prepare}, so it can be shared across
    domains. *)

val prepare : string -> program
(** [prepare code] disassembles and indexes the bytecode. *)

val run :
  ?env:env ->
  ?storage:Machine.Storage.t ->
  ?gas_limit:int ->
  ?record_trace:bool ->
  program ->
  calldata:string ->
  unit ->
  result
(** Execute one message call without re-decoding the code. A jump
    whose target is not a [JUMPDEST] (push data, or outside the code)
    halts with [Bad_jump]. *)

val execute :
  ?env:env ->
  ?storage:Machine.Storage.t ->
  ?gas_limit:int ->
  ?record_trace:bool ->
  code:string ->
  calldata:string ->
  unit ->
  result
(** [execute ~code] is [run (prepare code)] — one-shot convenience. *)

val succeeded : outcome -> bool
(** True for [Stopped] and [Returned _]. *)

val pp_outcome : Format.formatter -> outcome -> unit
