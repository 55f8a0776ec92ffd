(** Mutual exclusion between the tasks of one engine, on either backend.

    DOANY-parallelized loops guard commutative operations with these
    locks; on the simulator the machine's [lock_op] cost plus queueing
    delay under contention is what makes fine-grained critical sections a
    measurable overhead (Section 7.4 of the paper).

    Non-recursive and owner-checked: the holder is the calling task
    ({!Engine.current_task_id}), so ownership survives a native fiber's
    migration between domains.  The lock's state lives under an
    {!Engine.monitor}, free on the simulator and a per-lock mutex on
    native.  With a registry installed, both backends record the
    [parcae_lock_*] families, labelled by the lock's name. *)

type t

val create : Engine.t -> string -> t
(** Each acquisition charges the machine's [lock_op] (0 on native), read
    once here. *)

val acquire : t -> unit
(** @raise Invalid_argument on a recursive acquisition or outside a task. *)

val release : t -> unit
(** Wake one waiter.
    @raise Invalid_argument if the calling task does not hold the lock. *)

val with_lock : t -> (unit -> 'a) -> 'a
(** Run the function holding the lock; releases even on exception.  An
    uncontended call allocates nothing on the simulator. *)
