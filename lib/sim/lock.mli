(** Mutual exclusion between simulated threads.

    DOANY-parallelized loops guard commutative operations with these
    locks; the [lock_op] cost plus queueing delay under contention is what
    makes fine-grained critical sections a measurable overhead
    (Section 7.4 of the paper). *)

type t

val create : Engine.t -> string -> t
(** A lock between threads of the given engine.  Each acquisition charges
    the machine's [lock_op] of CPU, read once at creation.  The
    lock charges through {!Engine.compute_in} and reads the calling
    thread and the clock from the engine, not through effects. *)

val acquire : t -> unit
(** Block until the lock is held by the calling thread.
    @raise Invalid_argument on recursive acquisition. *)

val release : t -> unit
(** @raise Invalid_argument if the caller does not hold the lock. *)

val with_lock : t -> (unit -> 'a) -> 'a
(** Run the function with the lock held; always releases, even on
    exception. *)
