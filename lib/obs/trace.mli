(** The global trace destination.

    One current-sink cell, an [Atomic] written only by {!with_sink}.
    Emission sites guard with {!enabled} so disabled tracing never
    allocates an event payload. *)

val enabled : unit -> bool

val emit : t:int -> Event.kind -> unit
(** Record an event at virtual time [t] into the current sink; no-op when
    tracing is disabled. *)

val with_sink : Sink.t -> (unit -> 'a) -> 'a
(** Install a sink for the duration of the callback, restoring the
    previous one afterwards (exception-safe), so scopes nest. *)
