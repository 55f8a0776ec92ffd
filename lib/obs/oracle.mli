(** The trace invariant checker: replays a trace and asserts the runtime
    protocol, turning every traced workload run into a protocol test.

    Always-on invariants: monotone virtual time; the controller FSM of
    Figure 6.3 (first state INIT, transitions within
    INIT->{CALIB,MONITOR}, CALIB->{CALIB,OPT,MONITOR}, OPT->{CALIB,MONITOR},
    MONITOR->INIT); pause/resume alternation per region (a pause may be
    closed by Region_stop — the terminate path); region lifecycle (no
    duplicate starts, no protocol events after stop); daemon shares that
    grant every program at least one thread and sum to at most the
    platform total; sanity of hook/budget/core samples.

    [require_flush] additionally demands at least one channel flush inside
    every pause...resume window (the Section 4.5 reset protocol — enable it
    for workloads that communicate through channels).  [check_budget]
    additionally demands that launch/resume/DoP-change thread totals fit
    the region budget recorded on the event — enable it for closed-loop
    controller runs; administrator mechanisms may oversubscribe
    deliberately.

    A sink that overflowed holds only a suffix of the run; check
    {!Sink.dropped} before interpreting violations on truncated traces. *)

type violation = { index : int; time : int; what : string }

type stats = {
  events : int;
  regions : int;
  ctrl_transitions : int;
  pauses : int;
  resumes : int;
  dop_changes : int;
  flushes : int;
  repartitions : int;
  hook_samples : int;
  dangling_pauses : int;  (** pauses still open at end of trace *)
}

val check :
  ?require_flush:bool -> ?check_budget:bool -> Event.t list -> (stats, violation list) result

val violation_to_string : violation -> string
val violations_to_string : violation list -> string
