(** Poisson request generation (the paper's Section 8 methodology): a task
    queuing thread enqueues requests according to a Poisson distribution;
    the average arrival rate determines the load factor.  Per-request
    scale factors are gaussian around 1.0 with 0.08 relative stddev, and
    an end-of-stream sentinel follows the last request. *)

val spawn_generator :
  rng:Parcae_util.Rng.t ->
  rate_per_s:float ->
  m:int ->
  queue:Request.t Parcae_core.Pipeline.msg Parcae_platform.Chan.t ->
  metrics:Metrics.t ->
  Parcae_platform.Engine.t ->
  Parcae_platform.Engine.thread
(** Spawn a simulated thread that generates [m] requests at [rate_per_s]
    into [queue]. *)

val spawn_batch :
  rng:Parcae_util.Rng.t ->
  m:int ->
  queue:Request.t Parcae_core.Pipeline.msg Parcae_platform.Chan.t ->
  metrics:Metrics.t ->
  Parcae_platform.Engine.t ->
  Parcae_platform.Engine.thread
(** Spawn a simulated thread that enqueues [m] requests all arriving at
    time ~0 — the batch mode of the throughput experiments (Table 8.5,
    Figures 8.6-8.7). *)
