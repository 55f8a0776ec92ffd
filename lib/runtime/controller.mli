(** The closed-loop run-time controller (the paper's Section 6.4):
    Morta's default optimization mechanism.

    A finite-state machine (Figure 6.3) establishes a sequential baseline,
    calibrates each parallel scheme, optimizes degrees of parallelism by
    finite-difference gradient ascent (Algorithm 4), and then passively
    monitors for workload or resource change, re-entering calibration when
    the environment shifts.  Objective: maximize iteration throughput and,
    subject to that, minimize threads used.  Optimized configurations are
    cached per (scheme, budget); the thread count actually needed is
    reported to the platform daemon so slack can be redistributed. *)

type state = Parcae_obs.Event.ctrl_state = Init | Calibrate | Optimize | Monitor

(** The optimization objective; the paper's Section 6.4 notes the
    closed-loop schema retargets to any fitness whose parameters can be
    measured, giving energy-delay-squared as the example. *)
type objective =
  | Max_throughput
  | Min_energy_delay2
      (** maximize throughput^3 / average power == minimize E*D^2 per
          iteration *)

type params = {
  objective : objective;
  nseq : int;  (** baseline iterations measured in Init (paper: 10) *)
  npar_factor : int;
      (** iterations per DoP probe = max(nseq, npar_factor * dop); the
          paper uses 2, but short iterations need longer windows to smooth
          round-quantization noise *)
  poll_ns : int;  (** polling granularity while waiting for iterations *)
  monitor_ns : int;  (** sampling period in the Monitor state *)
  change_frac : float;  (** relative throughput drift that re-triggers *)
  efficiency_floor : float;  (** minimum parallel efficiency to keep a scheme *)
  max_monitor_rounds : int;  (** 0 = unlimited *)
}

val default_params : params

type t

val create : ?params:params -> Region.t -> t

val run : t -> unit
(** The controller main loop; the body of a dedicated simulated thread. *)

val spawn : Parcae_platform.Engine.t -> t -> Parcae_platform.Engine.thread

val request_stop : t -> unit

val notify_resource_change : t -> unit
(** Called by the daemon after changing the region's budget; the Monitor
    state picks it up and recalibrates. *)

val set_usage_callback : t -> (int -> unit) -> unit
(** Invoked with the optimized thread usage on reaching Monitor
    (transition T3->4); the daemon uses it to collect slack. *)

val states : t -> Parcae_util.Series.t
(** Timeline of (time s, {!Parcae_obs.Event.ctrl_state_code}) — the state
    track of Figure 8.8 (INIT=0 CALIB=1 OPT=2 MONITOR=3). *)

val throughputs : t -> Parcae_util.Series.t
(** Timeline of measured throughput samples (iterations/second). *)
