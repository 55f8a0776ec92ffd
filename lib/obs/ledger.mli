(** The reconfiguration overhead ledger.

    The paper's Chapter 7 decomposes the cost of acting on a controller
    decision into phases; the executor stamps those phases on every full
    pause/resume reconfiguration and reports them here:

    - ["signal"] — pause request to the first worker parking (signal
      propagation);
    - ["barrier"] — first worker parked to the last (barrier wait);
    - ["flush"] — channel flush and state reset while paused;
    - ["restart"] — resume to the first post-resume iteration completing;
    - ["total"] — pause request to that first iteration.

    Each measurement fans out to up to three consumers, each independently
    optional: the installed ledger (per-(region, phase) accumulators for
    programmatic access), the {!Metrics} registry (counter
    [parcae_reconfig_phase_ns_total{region,phase}]), and the {!Flight}
    recorder (an [Overhead] entry per measurement).  {!active} tells the
    executor whether anyone is listening, so with everything off the
    reconfiguration path pays one load per phase.

    Durations are virtual ns on the simulator and wall-clock ns on the
    native backend — whatever the engine's clock reads. *)

val phases : string list
(** [["signal"; "barrier"; "flush"; "restart"]] — the disjoint phases;
    ["total"] is reported alongside but is not a member. *)

type t

val create : unit -> t

val with_ledger : t -> (unit -> 'a) -> 'a
(** Run [f] with the ledger installed in an [Atomic] cell, restoring the
    previous one on exit (also on exception), so scopes nest.  This is the
    only way to install a ledger. *)

val active : unit -> bool
(** True when a ledger, a metrics registry, or a flight recorder is
    installed — the executor's gate for stamping phase timestamps. *)

val note : t:int -> region:string -> phase:string -> int -> unit
(** [note ~t ~region ~phase ns] attributes [ns] (clamped at 0) of
    reconfiguration time; [t] is the clock reading when the phase closed. *)

val phase_ns : t -> region:string -> phase:string -> int
(** Accumulated ns for a (region, phase); 0 when never noted. *)

val snapshot : t -> (string * string * int) list
(** All (region, phase, ns) accumulators, sorted. *)
