(** The global trace destination.

    One current-sink cell, an [Atomic] written only by {!with_sink}.
    Emission sites guard with {!enabled} so disabled tracing never
    allocates an event payload. *)

val enabled : unit -> bool

val current : Sink.t Atomic.t
(** The installed sink ({!Sink.null} when none), written only by
    {!with_sink}; hot paths write into it with {!Sink}'s typed recording. *)

val emit : t:int -> Event.kind -> unit
(** Record an event at virtual time [t] into the current sink; no-op when
    tracing is disabled. *)

(** {1 Typed emitters}

    The per-operation kinds, recorded from their fields into the current
    sink without allocating: each is {!emit} of the {!Event.kind} of the
    same name.  Channel events have none: a channel writes them with
    {!Sink.chan_items} under the name id it bound in the installed sink
    (see {!Chan_obs}). *)

val hook_sample : t:int -> task:int -> dt_ns:int -> unit
val task_spawn : t:int -> task:int -> parent:int -> name:string -> unit
val task_done : t:int -> task:int -> busy_ns:int -> unit
val steal : t:int -> task:int -> from_lane:int -> to_lane:int -> unit

val with_sink : Sink.t -> (unit -> 'a) -> 'a
(** Install a sink for the duration of the callback, restoring the
    previous one afterwards (exception-safe), so scopes nest. *)
