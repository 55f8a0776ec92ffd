(** Live ASCII dashboard over the metrics registry (`parcae_demo top`).

    {!render} is a pure, deterministic function of a registry snapshot;
    {!spawn} re-renders the installed registry every [interval_ns] of
    {e virtual} time.

    The refresher runs as a simulated thread, so it perturbs the engine's
    live-thread count and anything derived from it (e.g. the
    oversubscription factor): use it for interactive runs, never inside
    determinism tests. *)

val render : ?title:string -> now_s:float -> Parcae_obs.Metrics.t -> string
(** Counter, gauge, and summary tables (HDR quantiles, relative error at
    most 1/128); a one-line placeholder when the registry holds no
    series. *)

val spawn :
  ?title:string ->
  ?interval_ns:int ->
  stop:(unit -> bool) ->
  Parcae_platform.Engine.t ->
  Parcae_platform.Engine.thread
(** Spawn the refresher, which writes each render to stdout; it polls
    [stop] after each interval (default 1 s of virtual time) and exits
    when it returns [true].  Forces the
    engine's energy/busy-time accounting up to date before each render.
    @raise Invalid_argument if [interval_ns <= 0]. *)
