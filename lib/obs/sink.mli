(** Event sinks: bounded rings, one per writing domain, plus the null
    (disabled) sink.

    A domain creates its ring on its first write, under the sink's mutex,
    and writes it without a lock from then on: it claims a slot, writes it
    and publishes its count of written events with one [Atomic.set].
    Systhreads of one domain share its ring and never interleave inside a
    write, since nothing from the claim to the publish allocates.  A
    simulator run writes from one domain, so its sink is a single ring.
    [null] is a physical sentinel: installed, it leaves {!Trace.enabled}
    false, so disabled tracing costs one bit test per potential event.
    Events are stored as rows of five ints in chunks of 1024 events, with
    names interned once per sink, so recording allocates nothing and
    stores no pointer; they are decoded back to {!Event.t} only by the
    readers, which merge the rings by time and keep the newest [capacity]
    events.

    Reading is safe while native domains write: a reader copies the
    published range of each ring and discards any slot its writer
    overwrote during the copy, so it returns only whole events.  A full
    ring written by another domain may have a write in flight on its
    oldest event, so a reader leaves that event out. *)

type t

val null : t
(** The disabled sink: {!record} on it is a no-op. *)

val default_capacity : int
(** 65536 events. *)

val create : ?capacity:int -> unit -> t
(** @raise Invalid_argument if [capacity <= 0]. *)

val is_null : t -> bool

val record : t -> t:int -> Event.kind -> unit
(** Append an event stamped with virtual time [t] to the calling domain's
    ring; overwrites that ring's oldest event once it holds [capacity].  A
    timestamp below the latest one the ring recorded is clamped up to it,
    so each ring's time never decreases. *)

(** {1 Typed recording}

    Each records the event of the same name exactly as {!record} would,
    from its fields, without allocating. *)

val intern : t -> string -> int
(** The id of a name in this sink, added on its first use (under the
    sink's mutex) and looked up without a lock after that.  Ids stay valid
    for the sink's lifetime, across {!clear}; they mean nothing to another
    sink.  {!null} keeps no names and answers 0. *)

val chan_items :
  t -> recv:bool -> t:int -> chan:int -> seq:int -> k:int -> task:int -> busy_ns:int -> unit
(** One channel operation's [k] items, numbered from [seq], through the
    channel whose name has id [chan] ({!intern}) in this sink: [k]
    [Chan_recv] events if [recv], else [k] [Chan_send] events, written
    into the calling domain's ring, which is looked up once for all of
    them.  Each event stores ints only. *)

val hook_sample : t -> t:int -> task:int -> dt_ns:int -> unit
val task_spawn : t -> t:int -> task:int -> parent:int -> name:string -> unit
(** Interns [name] (see {!intern}). *)

val task_done : t -> t:int -> task:int -> busy_ns:int -> unit
val steal : t -> t:int -> task:int -> from_lane:int -> to_lane:int -> unit

(** {1 Reading} *)

val length : t -> int
(** Events retained: the newest [capacity] of the rings' contents. *)

val dropped : t -> int
(** Events written since creation and not retained (0 until a ring
    fills): overwritten in their ring, or older than the newest
    [capacity] of the merge. *)

val clear : t -> unit
(** Forget all retained events {e and} release the rings' backing storage;
    a domain's next {!record} creates its ring again.  Interned names are
    kept.  Events written concurrently with a clear may be lost. *)

val allocated_slots : t -> int
(** Slots of storage currently allocated, summed over the rings: 0 before
    the first event and after {!clear}.  A ring's storage is chunks of
    1024 slots, the last one cut short to end at [capacity].  Its first
    event allocates the chunk table (one word per chunk) and the first
    chunk, and each later chunk is allocated when the ring's events fill
    the ones before it.  No chunk is ever copied. *)

val to_array : t -> Event.t array
(** Retained events, oldest first: the rings merged by time, ties in ring
    creation order. *)

val events : t -> Event.t list
val iter : t -> (Event.t -> unit) -> unit
