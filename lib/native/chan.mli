(** Blocking FIFO channels between native tasks.

    Same contract as {!Parcae_sim.Chan} — bounded or unbounded,
    multi-producer multi-consumer, order-preserving point-to-point, with
    the [force_send]/[filter]/[drain] operations the pause/flush protocol
    relies on — and the same design: a ring with not-empty and not-full
    conditions, guarded here by the channel's {!Engine.Monitor} instead of
    cooperative scheduling.  Every operation, a batch included, enters
    the monitor once, so capacity is exact and [filter]/[drain] are
    atomic against concurrent senders and receivers.  Items are numbered
    under the monitor, which gives the sanitizer the simulator's exact
    [(chan, seq)] pairing.  No virtual [chan_op] cost is charged: on real
    hardware the monitor and wake-up traffic {e is} the communication
    cost, and it lands in wall time where Decima can see it. *)

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
(** Enqueue a whole batch in one monitor entry, so on an unbounded
    channel it appears contiguously; blocks, releasing the monitor,
    whenever the next item would overflow a bounded channel.  The empty
    batch is a no-op. *)

val recv_batch : ?max:int -> 'a t -> 'a list
(** Dequeue at least one and at most [max] items (default: all queued)
    in one monitor entry; blocks only while the channel is empty. *)

val filter : 'a t -> ('a -> bool) -> int
(** Keep only items satisfying the predicate, preserving order; emits the
    same [Chan_flush] trace event as the simulator. *)

val drain : 'a t -> int
