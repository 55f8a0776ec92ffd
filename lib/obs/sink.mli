(** Event sinks: a bounded ring buffer, plus the null (disabled) sink.

    The ring retains the most recent [capacity] events and counts
    overwrites; [null] is a physical sentinel so that disabled tracing
    costs one pointer comparison per potential event.  Events are stored
    flat, one column per field, so recording allocates nothing; they are
    decoded back to {!Event.t} only by the readers. *)

type t

val null : t
(** The disabled sink: {!record} on it is a no-op. *)

val default_capacity : int
(** 65536 events. *)

val create : ?capacity:int -> unit -> t
(** @raise Invalid_argument if [capacity <= 0]. *)

val is_null : t -> bool

val record : t -> t:int -> Event.kind -> unit
(** Append an event stamped with virtual time [t]; overwrites the oldest
    event once the ring is full.  A timestamp below the latest one
    recorded is clamped up to it, so the ring's time never decreases. *)

(** {1 Typed recording}

    Each records the event of the same name exactly as {!record} would,
    from its fields, without allocating. *)

val chan_send : t -> t:int -> chan:string -> seq:int -> task:int -> busy_ns:int -> unit
val chan_recv : t -> t:int -> chan:string -> seq:int -> task:int -> busy_ns:int -> unit
val hook_sample : t -> t:int -> task:int -> dt_ns:int -> unit
val task_spawn : t -> t:int -> task:int -> parent:int -> name:string -> unit
val task_done : t -> t:int -> task:int -> busy_ns:int -> unit
val steal : t -> t:int -> task:int -> from_lane:int -> to_lane:int -> unit

(** {1 Reading} *)

val length : t -> int
(** Events currently retained. *)

val dropped : t -> int
(** Events overwritten since creation (0 until the ring fills). *)

val capacity : t -> int

val clear : t -> unit
(** Forget all retained events {e and} release the ring's backing storage;
    the next {!record} re-allocates lazily. *)

val allocated_slots : t -> int
(** Slots of storage currently allocated: 0 before the first event and
    after {!clear}.  The first event allocates [min capacity 1024] slots,
    and the storage doubles, never past [capacity], each time the retained
    events fill it. *)

val to_array : t -> Event.t array
(** Retained events, oldest first. *)

val events : t -> Event.t list
val iter : t -> (Event.t -> unit) -> unit
