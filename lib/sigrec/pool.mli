(** Process-wide pool of reusable worker domains.

    Replaces per-batch [Domain.spawn] in {!Engine.recover_all}: workers
    are spawned once and then persist for the life of the process, each
    with its own expression interner, so a resident service pays domain
    startup and interner warm-up once rather than on every request.

    The pool is global: all engines share it, which keeps the number of
    live domains bounded regardless of how many engines a process (or a
    test suite) creates. Tasks are plain closures; submitting from
    several domains concurrently is safe. *)

val max_workers : int
(** Upper bound on pooled domains (kept well under the OCaml runtime's
    live-domain limit). *)

val workers : unit -> int
(** Worker domains spawned so far. *)

val ensure : int -> unit
(** [ensure n] grows the pool to at least [min n max_workers] workers.
    No-op when the pool is already that large. *)

type batch
(** A group of submitted tasks awaiting completion. *)

val submit : (unit -> unit) list -> batch
(** Queue the tasks for the pool; returns immediately. The caller
    typically runs one share of the work itself before {!await}ing.
    Tasks must not themselves block on {!await} of another batch
    submitted after theirs (the pool has no work-stealing between
    blocked tasks). *)

val await : batch -> unit
(** Block until every task of the batch has finished. Re-raises the
    first exception a task raised, if any (after all tasks finished). *)
