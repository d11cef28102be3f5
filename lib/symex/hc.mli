(** Generic hash-cons table.

    Backs the {!Sexpr} interner: maps a construction request to its
    canonical value, handing each fresh value a unique id drawn from a
    counter that can be shared between several tables (so ids are unique
    across an interner, not just within one table).

    A table is deliberately {e not} thread-safe — the intended use is
    one interner per domain, held in [Domain.DLS], which keeps
    [Engine.recover_all ~jobs] fan-out safe without any locking. *)

type ('k, 'v) t

val create :
  ?ids:int ref -> hash:('k -> int) -> equal:('k -> 'k -> bool) -> int -> ('k, 'v) t
(** [create ~hash ~equal n] makes an empty table with initial capacity
    [n]. [?ids] supplies the shared id counter (a fresh one is made when
    omitted). *)

val find_or_add : ('k, 'v) t -> 'k -> ('k -> id:int -> 'v) -> 'v
(** [find_or_add t k build] returns the value already interned for [k],
    or calls [build k ~id] with a fresh unique id, stores the result
    under [k] and returns it. [build] receives the key so callers can
    pass a closed function and keep the hit path allocation-free.
    [build] may itself intern into [t] (the bucket is re-located after
    it returns) but must not insert [k]. *)

val length : ('k, 'v) t -> int
(** Number of distinct keys interned. *)

val hits : ('k, 'v) t -> int
(** Lookups answered by an already-interned value. *)

val misses : ('k, 'v) t -> int
(** Lookups that had to build a fresh value. *)
