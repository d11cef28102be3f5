(** Symbolic expressions over the call data.

    TASE treats the call data as symbols (paper §4.2): every value loaded
    from it is a fresh [CDLoad], every environment read a free [Env]
    symbol, and operations build terms. Constant subterms fold so
    concrete address arithmetic stays concrete.

    Terms are hash-consed: the smart constructors intern every node into
    a per-domain table ({!Hc}, held in [Domain.DLS]), so structurally
    equal terms are physically equal within a domain. {!equal} is
    pointer comparison, {!hash} reads a cached field, and {!compare}
    orders by interning id. Construction outside the smart constructors
    is impossible ([t] is a private record); pattern-match via {!node}.

    The interning id is a per-domain creation counter: it is stable
    within a run but depends on construction order, so it must never be
    used to order user-visible output (load ids from [Trace] are the
    deterministic ordering source). *)

type binop =
  | Badd | Bsub | Bmul | Bdiv | Bsdiv | Bmod | Bsmod | Bexp
  | Band | Bor | Bxor
  | Blt | Bgt | Bslt | Bsgt | Beq
  | Bbyte | Bshl | Bshr | Bsar | Bsignext

type unop = Unot | Uiszero

type t = private { node : node; id : int; hkey : int }

and node =
  | Const of Evm.U256.t
  | CDLoad of int        (** value of calldata-load event [id] *)
  | CDSize
  | Env of string        (** free environment symbol *)
  | MemItem of int * t   (** word read from tagged memory region [rid] at
                             the given relative offset *)
  | Bin of binop * t * t
  | Un of unop * t

val node : t -> node
val id : t -> int
(** Unique interning id within the current domain. *)

val hash : t -> int
(** Cached structural hash, O(1). *)

(** {1 Interning constructors} *)

val const : Evm.U256.t -> t
val of_int : int -> t
val cdload : int -> t
val cdsize : unit -> t
val env : string -> t

val mem_item : int -> t -> t
(** [mem_item rid off]: word read from region [rid] at offset [off]. *)

val bin : binop -> t -> t -> t
(** Smart constructor: folds constants, normalises [iszero (iszero
    (iszero x))] chains via {!un}, keeps everything else structural.
    The simplification decision tree is identical to the pre-interning
    one, so recovery output is unchanged; the default case is a memo
    lookup keyed by [(op, a, b)]. *)

val un : unop -> t -> t

val equal : t -> t -> bool
(** Physical equality — sound and complete because of interning. *)

val compare : t -> t -> int
(** Total order by interning id (arbitrary but fixed within a domain). *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val interner_counters : unit -> int * int
(** [(hits, misses)] accumulated by the current domain's interner —
    misses count distinct nodes built, hits count constructions answered
    by an already-interned node. *)

val interner_size : unit -> int
(** Number of live interned nodes in the current domain. *)

(** {1 Structural queries used by the inference rules}

    The recursive queries are memoized per node id in the domain's
    interner, so repeated classification of shared subtrees is O(1). *)

val to_const : t -> Evm.U256.t option
val to_const_int : t -> int option

val add_terms : t -> t list
(** Flatten nested additions: [a + (b + c)] gives [\[a; b; c\]]. *)

val const_offset : t -> int
(** Sum of the constant addition terms (0 if none fit in int). *)

val loads_of : t -> int list
(** All [CDLoad] ids occurring in the term. *)

val mentions_load : t -> int -> bool

val has_mul_by : t -> int -> bool
(** A multiplication by the given constant with a non-constant other
    operand occurs somewhere in the term (R2's "exp(loc) contains 32x"). *)

val strip_masks : t -> t
(** Remove outer mask applications (AND with a constant, SIGNEXTEND,
    double ISZERO) — the "raw value" a mask was applied to. *)

val subject : t -> [ `Load of int | `Region of int ] option
(** The raw parameter value a term directly denotes, if any: a [CDLoad]
    or region read, possibly under masks. *)

val contains : t -> t -> bool
(** [contains e sub]: [sub] occurs as a subterm of [e] (the paper's
    [exp(p)] "contains" [q] relation). *)

val iszero_depth : t -> t * int
(** Peel [Uiszero] applications, returning the core and their count. *)

val eval_concrete : t -> Evm.U256.t option
(** Full evaluation when the term contains no symbols. Comparisons are
    kept structural by {!bin} so guards retain their shape; this
    recovers their truth value for the executor. *)
