(** Blocking FIFO channels over the platform abstraction.

    The same contract as {!Parcae_sim.Chan} (bounded/unbounded,
    MPMC, order-preserving point-to-point, [force_send]/[filter]/[drain]
    for the pause/flush protocol), dispatched over the backend of the
    engine the channel was created on.  Creation takes the engine; every
    other operation dispatches on the channel value. *)

type 'a t

val create : ?capacity:int -> Engine.t -> string -> 'a t
(** [create eng name] makes an unbounded channel; [capacity > 0] bounds
    it. *)

val length : 'a t -> int
val total_sent : 'a t -> int
val send : 'a t -> 'a -> unit
val recv : 'a t -> 'a
val force_send : 'a t -> 'a -> unit

val send_batch : 'a t -> 'a list -> unit
(** Amortized communication: one [chan_op] charge (sim) or one monitor
    entry (native) for the whole batch. *)

val recv_batch : ?max:int -> 'a t -> 'a list
(** At least one, at most [max] items (default: all queued) for one
    charge; blocks only while the channel is empty. *)

val filter : 'a t -> ('a -> bool) -> int
val drain : 'a t -> int
