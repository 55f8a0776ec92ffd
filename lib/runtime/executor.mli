(** The Morta executor (the paper's Chapters 3 and 6).

    Each worker runs the task-instance loop of Algorithm 2: invoke the
    functor; on [task_iterating] count the instance and continue; on
    [task_paused]/[task_complete] park (a count under the region monitor
    that a pause waits out) and exit.
    Reconfiguration pauses the region at a consistent state, applies a new
    configuration — possibly a different parallelization scheme — and
    relaunches. *)

val run_subregion :
  Parcae_platform.Engine.t -> Parcae_core.Task.par_descriptor -> Parcae_core.Config.t -> unit
(** Execute a nested (inner-loop) region under a fixed configuration and
    return when every worker has completed.  Inner regions are not
    independently reconfigurable: the outer task re-launches them with a
    new configuration on its next instance. *)

val run_nested : Parcae_platform.Engine.t -> Parcae_core.Task.t -> Parcae_core.Config.t -> unit
(** Instantiate and run the nested descriptor selected by the
    configuration's [choice] for the given task. *)

val launch :
  ?budget:int ->
  ?on_pause:(unit -> unit) ->
  ?on_reset:(unit -> unit) ->
  name:string ->
  Parcae_platform.Engine.t ->
  Parcae_core.Task.par_descriptor list ->
  Parcae_core.Config.t ->
  Region.t
(** Create a region over the given schemes, validate the configuration,
    and start its workers.  Callable from outside the engine or from a
    simulated thread. *)

val pause : Region.t -> bool
(** Signal the region to pause and block until every worker has parked.
    [true] if the region parked (safe to reconfigure), [false] if it raced
    to completion.  Must run on a simulated thread that is not one of the
    region's workers. *)

val resume : ?config:Parcae_core.Config.t -> Region.t -> unit
(** Resume a paused region, optionally under a new configuration.
    Switching schemes resets the region's Decima statistics.
    @raise Invalid_argument if the region is not paused. *)

val dop_only_change : Region.t -> Parcae_core.Config.t -> bool
(** Whether [cfg] differs from the current configuration only in top-level
    DoPs (same scheme, same nested choices). *)

val resize : Region.t -> Parcae_core.Config.t -> unit
(** Barrier-less DoP reconfiguration (the paper's Section 7.2): grown
    tasks get extra workers immediately; shrunk tasks retire excess lanes
    at the epoch boundary the code generator's [on_resize] hook
    establishes; sequential stages never stop.
    @raise Invalid_argument unless the region is running and the change is
    DoP-only. *)

val reconfigure : Region.t -> Parcae_core.Config.t -> unit
(** The full sequence of the paper's Section 6.2: pause, swap, resume.
    No-op if the region completed meanwhile or the configuration is
    unchanged.  DoP-only changes on a scheme with a barrier-less resize
    hook ([Region.on_resize]) go through {!resize} instead of the
    pause. *)

val await : Region.t -> unit
(** Block until the region completes. *)

val terminate : Region.t -> unit
(** Pause the region and mark it done without resuming. *)
