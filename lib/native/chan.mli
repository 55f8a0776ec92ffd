(** Blocking FIFO channels between native tasks.

    Same contract as {!Parcae_sim.Chan} — bounded or unbounded,
    multi-producer multi-consumer, order-preserving point-to-point, with
    the [force_send]/[filter]/[drain] operations the pause/flush protocol
    relies on — implemented as a lock-free Michael–Scott queue with a
    per-channel monitor used only to park and wake blocked callers.
    Single ops are one CAS; [send_batch]/[recv_batch] move a whole batch
    with one CAS (batched reservation).  Capacity is a soft bound: with k
    concurrent producers occupancy can transiently exceed it by at most
    k-1 items.  No virtual [chan_op] cost is charged: on real hardware
    the CAS and wake-up traffic {e is} the communication cost, and it
    lands in wall time where Decima can see it. *)

type 'a t

val create : ?capacity:int -> Engine.t -> string -> 'a t
(** [create eng name] makes an unbounded channel; [capacity > 0] bounds
    it (senders block when full). *)

val length : 'a t -> int
val total_sent : 'a t -> int

val send : 'a t -> 'a -> unit
val recv : 'a t -> 'a

val force_send : 'a t -> 'a -> unit
(** Enqueue regardless of capacity; sentinel re-enqueue must never block. *)

val send_batch : 'a t -> 'a list -> unit
(** Enqueue a whole batch with one CAS per capacity-limited chunk (a
    single CAS on unbounded channels, so the batch appears contiguously);
    blocks while the channel cannot take the next chunk.  The empty batch
    is a no-op. *)

val recv_batch : ?max:int -> 'a t -> 'a list
(** Dequeue at least one and at most [max] items (default: all queued)
    with one CAS for the whole batch; blocks only while the channel is
    empty. *)

val filter : 'a t -> ('a -> bool) -> int
(** Keep only items satisfying the predicate, preserving order; emits the
    same [Chan_flush] trace event as the simulator. *)

val drain : 'a t -> int
