(** Per-contract analysis context.

    Everything TASE needs that depends only on the bytecode — the
    disassembly, the control-flow graph, the dispatcher's function-id
    entries, and the Keccak-256 code hash — is computed once here and
    shared across every per-function {!Infer.infer} run and across the
    batch engine's cache. Apart from the per-entry absint memo (see
    {!absint_for}), all fields are immutable after construction. A [t]
    is built and analyzed within one domain (the batch engine gives each
    worker its own); the memo table is not synchronized, so don't share
    a [t] between domains that both call {!absint_for}. *)

type t = {
  code : string;                  (** raw runtime bytecode *)
  code_hash : string;             (** 32-byte Keccak-256 of [code] *)
  program : Symex.Exec.program;   (** shared disassembly *)
  cfg : Evm.Cfg.t;
      (** the graph after static jump resolution: [Unresolved] edges the
          whole-contract abstract interpretation pinned down are already
          concrete [Jump_to] edges here *)
  deps : (int, int list) Hashtbl.t;
      (** control-dependence table over the resolved graph, shared by
          every per-function run *)
  entries : Ids.entry list;       (** dispatcher entries, dispatch order *)
  static : Sigrec_static.Absint.result;
      (** the whole-contract (entry 0) abstract-interpretation run *)
  unresolved_before : int;        (** [Unresolved] edges in the raw CFG *)
  unresolved_after : int;         (** ... still left after resolution *)
  absint_cache : (int, Sigrec_static.Absint.result) Hashtbl.t;
      (** per-entry depth-1 absint runs, memoized by {!absint_for} *)
}

val make : ?hash:string -> string -> t
(** [make code] builds the context from raw runtime bytecode. [hash],
    when the caller already holds it, must be [hash_of_code code]; it
    saves hashing the bytecode a second time. *)

val hash_of_code : string -> string
(** The cache key: 32-byte Keccak-256 of the raw bytecode. *)

val code_hash_hex : t -> string
val entries : t -> Ids.entry list
val static : t -> Sigrec_static.Absint.result

val absint_for : t -> entry:int -> Sigrec_static.Absint.result
(** The depth-1 abstract-interpretation run from a function entry,
    memoized per contract — {!Infer.infer}'s prune oracle asks for the
    same entry on every (re-)inference. *)
