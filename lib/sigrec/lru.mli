(** Bounded LRU map backing the engine's per-product caches.

    A resident [sigrec serve] process would otherwise grow its
    content-addressed caches without bound; this map keeps the most
    recently requested answers and evicts from the least-recent end
    once {!capacity} is exceeded. Capacity 0 means unbounded — the
    one-shot CLI default, where the process lifetime bounds the cache.

    Not thread-safe; callers serialize access (the engine holds its
    lock around every cache operation). *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** [capacity <= 0] is unbounded. *)

val capacity : ('k, 'v) t -> int
val length : ('k, 'v) t -> int

val evictions : ('k, 'v) t -> int
(** Entries dropped from the least-recent end since {!create}. *)

val mem : ('k, 'v) t -> 'k -> bool

val find_opt : ('k, 'v) t -> 'k -> 'v option
(** Promotes the entry to most-recently-used on a hit. *)

val peek_opt : ('k, 'v) t -> 'k -> 'v option
(** Like {!find_opt} but does not touch recency order. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or overwrite as most-recently-used, then evict
    least-recently-used entries until within capacity. *)
