(** In-process [Runtime_events] consumer: GC pauses onto the timelines.

    OCaml 5 publishes per-domain runtime activity (minor collections,
    major slices, ...) into a lock-free ring buffer per domain.  This
    module starts that instrumentation, opens a cursor onto the current
    process's own rings, and on every {!poll} folds the minor/major GC
    spans it finds into

    - the installed {!Timeline} — each top-level pause becomes a
      {!Timeline.attribute} of [Gc] time on the lane the domain maps to —
      and
    - the installed {!Metrics} registry, as
      [parcae_gc_pauses_total{phase}] and [parcae_gc_pause_ns{phase}].

    Nested runtime phases are depth-tracked per ring so only top-level
    spans count as pauses (a minor collection inside a major slice is one
    pause, not two).

    {b Lane mapping.}  [Runtime_events] identifies domains by ring id,
    which for a process that spawns its pool once is the spawn order: the
    initial domain is ring 0 and pool worker [i] is ring [i + 1], which
    maps to timeline lane [i].  Spans on rings that map to no lane (the
    main domain, expired domains, rings past the installed timeline's
    lane count) are still counted in {!stats} but attributed to no
    timeline lane.

    {b Lifecycle.}  A cursor is an OS-level resource; {!stop} frees it.
    {!live_cursors} counts cursors opened but not yet freed — the doctor
    smoke test fails if it is non-zero after shutdown, so consumers must
    not leak across repeated runs in one process. *)

type t

val start : unit -> t
(** Enable runtime instrumentation ([Runtime_events.start]) and open a
    cursor onto this process's rings. *)

val poll : t -> int
(** Drain currently available events; returns how many were consumed.
    Call periodically while the engine runs and once after it drains. *)

val stop : t -> unit
(** Final {!poll}, then free the cursor.  Idempotent. *)

type stats = {
  minor_pauses : int;
  major_pauses : int;
  pause_ns : int;  (** total top-level GC pause time across all rings *)
  unattributed_ns : int;  (** pause time on rings that map to no lane *)
  events : int;  (** raw runtime events consumed *)
}

val stats : t -> stats

val live_cursors : unit -> int
(** Cursors opened by {!start} and not yet freed by {!stop}, process-wide.
    Zero after a clean shutdown. *)
