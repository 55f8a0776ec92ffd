(** Response-time and throughput bookkeeping for the server workloads.

    Memory is bounded: samples live in {!Parcae_util.Stats.Reservoir}s of
    {!Parcae_util.Stats.Reservoir.default_capacity} entries, so means are
    exact (running sums) and percentiles are exact until the reservoir
    overflows, a uniform-sample estimate after.  When a metrics registry
    is installed ({!Parcae_obs.Metrics.with_registry}), every observation
    also feeds the [parcae_requests_*_total] counters and the
    [parcae_response_ns] / [parcae_exec_ns] summaries. *)

type t

val create : Parcae_platform.Engine.t -> t

val reset : t -> unit
(** Rewind counts, completion stamps and both reservoirs to a fresh state,
    reusing the existing sample buffers — repeated batch runs can share
    one [t] without per-run allocation.  Cumulative registry counters are
    unaffected. *)

val submitted : t -> int
val completed : t -> int

val note_submit : t -> unit

val note_complete : t -> Request.t -> unit
(** Record the completion of a request at the current virtual time:
    updates the response-time and execution-time samples. *)

val responses : t -> float array
(** Retained response-time samples, seconds — the full history while at
    most {!Parcae_util.Stats.Reservoir.default_capacity} requests
    completed, a uniform subsample after (order then no longer
    meaningful). *)

val mean_response : t -> float

val p95_response : t -> float
(** [response_quantile t 0.95]. *)

val response_quantile : t -> float -> float
(** Latency quantile in seconds from the always-on HDR distribution —
    deterministic and within the configured relative error over {e every}
    completion, unlike the reservoir percentile, which becomes a
    seed-dependent estimate once the reservoir overflows.  [nan] before
    the first completion. *)

val latency_quantile_ns : t -> float -> int
(** The same quantile in integer nanoseconds (0 before the first
    completion) — what the bench records as [latency_p50_ns] etc. *)

val mean_exec : t -> float
(** Mean per-request execution time (T_exec of Equation 2.1); exact over
    all completions regardless of reservoir capacity. *)

val throughput : t -> float
(** Sustained completion throughput, requests/second, first to last
    completion. *)
