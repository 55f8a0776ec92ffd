(** The experiment harness behind the paper's Chapter 8 figures and
    tables: max-throughput calibration, Poisson server runs, and batch
    throughput runs with optional throughput/power timelines. *)

type result = {
  mean_response_s : float;
  p95_response_s : float;
  mean_exec_s : float;
  throughput_rps : float;
  completed : int;
  submitted : int;
  energy_j : float;
  sim_end_s : float;
  reconfigurations : int;
  latency_p50_ns : int;
      (** tail-latency ladder from the workload's always-on HDR
          distribution ({!Metrics.latency_quantile_ns}); 0 when no
          request completed *)
  latency_p99_ns : int;
  latency_p999_ns : int;
}

type mech = (App.t -> Parcae_runtime.Morta.mechanism) option
(** A mechanism factory for a concrete app instance; [None] runs the
    launch configuration statically. *)

val mechanisms : (string * (bool -> mech)) list
(** Every named mechanism (static, wqt-h, wq-linear, tbf, tb, fdp, seda,
    tpc), as a factory given whether the app is flat (ferret, dedup) or
    nested.  The CLI's [-m] names are these. *)

val tpc_needs_sim : string
(** The error [tpc] fails with on the native backend. *)

type backend = [ `Sim | `Native of int option ]
(** Where an experiment executes: the deterministic simulator with the
    [machine] cost model (default), or the native OCaml 5 backend with an
    optional domain-pool size ([machine] then only sizes budgets and
    horizons — the work really runs on domains in real time). *)

val make_engine : ?backend:backend -> Parcae_sim.Machine.t -> Parcae_platform.Engine.t
(** A simulator engine over the machine, or a native engine with the
    backend's pool size. *)

val engine_budget : Parcae_platform.Engine.t -> Parcae_sim.Machine.t -> int
(** The thread budget an engine offers: the machine's cores on the
    simulator, the online cores but at least 4 on native. *)

val max_throughput :
  ?m:int ->
  ?seed:int ->
  ?backend:backend ->
  machine:Parcae_sim.Machine.t ->
  (budget:int -> Parcae_platform.Engine.t -> App.t) ->
  float
(** The paper's definition of max sustainable throughput: M requests in
    batch, outer loop wide open, inner loops sequential. *)

val max_throughput_flat :
  ?m:int ->
  ?seed:int ->
  ?backend:backend ->
  machine:Parcae_sim.Machine.t ->
  (budget:int -> Parcae_platform.Engine.t -> App.t) ->
  float
(** For flat pipelines (no "outer-only" config): the even static
    distribution is the baseline. *)

val run_server :
  ?m:int ->
  ?seed:int ->
  ?mechanism:(App.t -> Parcae_runtime.Morta.mechanism) ->
  ?period_ns:int ->
  ?on_start:(App.t -> Parcae_runtime.Region.t -> unit) ->
  ?backend:backend ->
  machine:Parcae_sim.Machine.t ->
  rate_per_s:float ->
  config:[ `Named of string | `Config of Parcae_core.Config.t ] ->
  (budget:int -> Parcae_platform.Engine.t -> App.t) ->
  result
(** [m] Poisson arrivals at [rate_per_s] under the given initial
    configuration and optional mechanism (invoked every [period_ns],
    default 500 ms).  [on_start] runs after the region is launched but
    before the engine does — the hook the dashboard and mid-run metric
    samplers use to reach the live region. *)

val run_batch :
  ?m:int ->
  ?seed:int ->
  ?mechanism:(App.t -> Parcae_runtime.Morta.mechanism) ->
  ?period_ns:int ->
  ?sample_ns:int ->
  ?power_sensor_period:int ->
  ?on_start:(App.t -> Parcae_runtime.Region.t -> unit) ->
  ?backend:backend ->
  machine:Parcae_sim.Machine.t ->
  config:[ `Named of string | `Config of Parcae_core.Config.t ] ->
  (budget:int -> Parcae_platform.Engine.t -> App.t) ->
  result * Parcae_util.Series.t * Parcae_util.Series.t
(** Batch (throughput) run; when [sample_ns] is given, returns throughput
    and power timelines sampled at that period. *)
