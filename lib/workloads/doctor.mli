(** The scheduler doctor: a self-diagnosing DoP sweep.

    [run] executes a fixed three-stage pipeline (sequential producer, DoP
    parallel transforms, sequential consumer at a quarter of the
    transform cost) at increasing degrees of parallelism, with the full
    observatory attached: a per-lane {!Parcae_obs.Timeline}, a causal
    trace fed to {!Parcae_obs.Critpath}, and (on native) the
    {!Parcae_obs.Runtime_ev} GC consumer.  It then explains the scaling
    curve it measured: is the workload depth-limited (critical-path
    bound), scheduler-limited (steal failure, park time), allocator-
    limited (GC share), or platform-limited (spawned-domains shortfall)?

    The workload is deliberately synthetic and closed-form — with [items]
    requests, transform cost [w] and consumer cost [w/4], the speedup
    bound is [items*(w + w/4) / (w + items*w/4)] — so the doctor can
    check its own instruments against the analytic answer. *)

type backend = [ `Sim of Parcae_sim.Machine.t | `Native of int option ]

type dop_result = {
  dop : int;
  wall_ns : int;
  speedup : float;  (** traced compute / wall — vs sequential execution *)
  crit : Parcae_obs.Critpath.report;
  lanes : Parcae_obs.Timeline.lane_breakdown array;
  merged : (Parcae_obs.Timeline.state * float) list;
  steals : int;  (** native: successful steals over the run *)
  steal_attempts : int;
  span_drops : int;  (** timeline ring overwrites, summed over lanes *)
  gc : Parcae_obs.Runtime_ev.stats option;  (** native only *)
}

type report = {
  backend_name : string;
  host_domains : int;  (** recommended domains (native) or machine cores *)
  requested_domains : int;  (** pool the largest DoP would want *)
  spawned_domains : int;  (** pool actually used for every run *)
  items : int;
  work_ns : int;  (** transform cost per item *)
  sink_ns : int;  (** consumer cost per item ([work_ns / 4]) *)
  results : dop_result list;  (** in ascending DoP order *)
  findings : Parcae_analysis.Diag.t list;  (** [D1xx] codes, unlocated *)
  leaked_cursors : int;  (** {!Parcae_obs.Runtime_ev.live_cursors} after *)
}

val run :
  ?items:int -> ?work_ns:int -> ?dops:int list -> backend:backend -> unit -> report
(** Run the sweep (defaults: 240 items, 1.5 ms transform, DoPs 1 2 4 8).
    Each DoP gets a fresh engine over the same pool size.  Diagnosis rules
    are applied to the collected results. *)

val render : report -> string
(** Human-readable report: the scaling table, the per-lane share table of
    the largest-DoP run, and the findings. *)

val report_to_json : report -> Parcae_obs.Json.t
