(** Common shape of a Parcae-enhanced application (the paper's Table 8.2):
    the external work queue, the registered parallelization schemes,
    pause/reset callbacks for the flush protocol, metrics, and the hooks
    the Chapter 6 mechanisms need. *)

type t = {
  name : string;
  eng : Parcae_platform.Engine.t;
  queue : Request.t Parcae_core.Pipeline.msg Parcae_platform.Chan.t;
  schemes : Parcae_core.Task.par_descriptor list;
  on_pause : unit -> unit;
  on_reset : unit -> unit;
  metrics : Metrics.t;
  wq_load : unit -> float;  (** work-queue occupancy *)
  inner_dop_config : (int -> Parcae_core.Config.t) option;
      (** two-level servers: map an inner DoP (1 = inner parallelism off)
          to a full configuration under the platform budget *)
  per_task_loads : (unit -> float) option array;
      (** flat pipelines: per-task input-queue loads *)
  fused_choice : int option;  (** scheme index with collapsed stages *)
  dpmax : int;  (** DoP beyond which parallel efficiency drops below 0.5 *)
  configs : (string * Parcae_core.Config.t) list;  (** named static configs *)
  default_config : Parcae_core.Config.t;
  seq_request_ns : int;  (** nominal sequential per-request work *)
}

val config : t -> string -> Parcae_core.Config.t
(** Named static configuration lookup.
    @raise Invalid_argument if absent (the message lists the names). *)

val alpha_fp : float -> int
(** [alpha] in 16.16 fixed point, for {!compute_scaled_fp}.  Stage
    factories convert once and close over the result. *)

val compute_scaled_fp : Parcae_platform.Engine.t -> alpha_fp:int -> Request.t -> int -> unit
(** Compute [base] ns inflated by the request scale and the current
    oversubscription factor, entirely in integer fixed point — the
    allocation-free form the serve path uses. *)
