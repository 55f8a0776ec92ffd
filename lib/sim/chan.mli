(** Blocking FIFO channels between simulated threads.

    MTCG-style pipelines use these as point-to-point communication
    channels; workloads use them as work queues.  Each operation charges
    the machine's [chan_op] cost to the calling thread — this is how
    communication overhead erodes parallel efficiency in the simulation.
    Channels are multi-producer multi-consumer; used single-producer
    single-consumer they preserve order, which the pause/reconfigure
    protocol relies on. *)

type 'a t

val create : ?capacity:int -> Engine.t -> string -> 'a t
(** [create eng name] makes an unbounded channel; [capacity > 0] bounds it
    (senders block when full).  Each operation costs the machine's
    [chan_op], read once at creation.  Operation costs are
    deferred through {!Engine.charge}, so a single channel hop does not
    pay an effect suspension. *)

val length : 'a t -> int
val total_sent : 'a t -> int

val send : 'a t -> 'a -> unit
(** Enqueue, blocking while the channel is at capacity.  Must be called
    from a simulated thread. *)

val recv : 'a t -> 'a
(** Dequeue, blocking while the channel is empty. *)

val force_send : 'a t -> 'a -> unit
(** Enqueue regardless of capacity.  Control sentinels use this: a lane
    re-enqueueing a sentinel it just consumed must never block, or the
    pause/flush protocol could deadlock on a full channel. *)

val send_batch : 'a t -> 'a list -> unit
(** Enqueue the whole batch for a single [chan_op] charge (amortized
    communication, Section 2.3 of the paper); blocks whenever the next
    item would overflow a bounded channel. *)

val recv_batch : ?max:int -> 'a t -> 'a list
(** Dequeue at least one and at most [max] items (default: everything
    queued) for a single [chan_op] charge; blocks only while empty. *)

val filter : 'a t -> ('a -> bool) -> int
(** [filter ch keep] retains only the items satisfying [keep], preserving
    order; returns how many were removed.  Used to strip pause sentinels
    from work queues on resumption without dropping pending requests. *)

val drain : 'a t -> int
(** Discard all queued items; returns how many there were. *)
