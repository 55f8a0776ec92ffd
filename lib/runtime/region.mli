(** A parallel region under Morta's control: the runtime image of a
    launched ParDescriptor — worker threads, current configuration,
    pause/resume bookkeeping, and Decima statistics.

    The record is exposed because the executor (same library) drives its
    state machine directly; external code should treat the fields as
    read-only and use {!Executor} to act on a region. *)

type status =
  | Init  (** created, workers not yet started *)
  | Running
  | Pausing  (** pause signalled, waiting for workers to park *)
  | Paused  (** all workers parked; safe to reconfigure *)
  | Done  (** master task completed; region terminated *)

type t = {
  name : string;
  eng : Parcae_platform.Engine.t;
  schemes : Parcae_core.Task.par_descriptor list;
      (** alternative top-level parallelizations; [config.choice] picks *)
  mutable config : Parcae_core.Config.t;
  mutable status : status;
  mutable pause_requested : bool;
  mutable master_completed : bool;
  mutable budget : int;  (** thread budget assigned by the daemon *)
  decima : Decima.t;
  mon : Parcae_platform.Engine.monitor;
      (** control-plane monitor guarding the state machine on native;
          free on sim *)
  parked : Parcae_platform.Engine.cond;
  finished : Parcae_platform.Engine.cond;
  mutable active_workers : int;  (** workers currently running *)
  mutable worker_count : int;
  on_pause : (unit -> unit) option;
      (** application callback run when a pause begins (inject wake-up
          sentinels into input queues) *)
  on_reset : (unit -> unit) option;
      (** application callback run between pause and resume (drain
          sentinels, restore channel consistency — Section 4.5) *)
  mutable on_resize : (Parcae_core.Config.t -> (int * int) list) option;
      (** hook run when a light (barrier-less) DoP resize is applied
          (Section 7.2); stamps the epoch request and returns the
          (task index, lane) workers to spawn *)
  mutable light_resizable : bool;
  mutable light_resizes : int;
  mutable reconfig_count : int;
  mutable scheme_switches : int;
  mutable pause_wait_ns : int;
  mutable reconfig_t0 : int;
      (** overhead-ledger phase stamp: pause request time, -1 when idle *)
  mutable first_park_at : int;  (** first worker park time, -1 when idle *)
  mutable restart_mark : int;  (** resume completion time, -1 when idle *)
}

val create :
  ?budget:int ->
  ?on_pause:(unit -> unit) ->
  ?on_reset:(unit -> unit) ->
  name:string ->
  Parcae_platform.Engine.t ->
  Parcae_core.Task.par_descriptor list ->
  Parcae_core.Config.t ->
  t
(** Validate and create (does not start workers; see [Executor.launch]). *)

val scheme : t -> Parcae_core.Task.par_descriptor
(** The descriptor currently selected by the configuration. *)

val scheme_name : t -> string
val config : t -> Parcae_core.Config.t
val status : t -> status
val decima : t -> Decima.t
val budget : t -> int
val set_budget : t -> int -> unit
val is_done : t -> bool

(** Overhead accounting (the paper's Section 8.3.6 / Chapter 7). *)

val reconfig_count : t -> int
val light_resizes : t -> int
val scheme_switches : t -> int
val pause_wait_ns : t -> int
