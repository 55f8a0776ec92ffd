(** Work Queue Linear (the paper's Section 6.3.1).

    Degrades the latency-oriented degree of parallelism continuously with
    load: dP = max(dPmin, dPmax - k * WQo) with k = (dPmax - dPmin) / Qmax
    (Equations 6.1/6.2), where WQo is the work-queue occupancy and Qmax is
    derived from the acceptable response-time degradation. *)

val dop_of_load : dpmin:int -> dpmax:int -> qmax:float -> float -> int
(** Equation 6.1 on a single occupancy reading. *)

val nested :
  load:(unit -> float) ->
  dpmin:int ->
  dpmax:int ->
  qmax:float ->
  make_config:(int -> Parcae_core.Config.t) ->
  unit ->
  Parcae_runtime.Morta.mechanism
(** The two-level loop-nest form (transcoding-style servers): dP is the
    inner DoP; [make_config] maps it to a full configuration (outer DoP
    typically budget / dP).  Occupancy is EWMA-smoothed (weight 0.3) so
    queue noise doesn't cause reconfiguration thrash. *)

val per_task :
  loads:(unit -> float) option array ->
  dpmin:int ->
  dpmax:int ->
  unit ->
  Parcae_runtime.Morta.mechanism
(** The flat-pipeline form (ferret, Figure 8.5): each parallel stage's DoP
    is sized from its own input-queue occupancy — threads proportional to
    the load on each task, one more per 0.6 queued items above [dpmin].
    Occupancy is EWMA-smoothed (weight 0.4), and
    a stage only moves when the target differs from the current DoP by at
    least 2. *)
