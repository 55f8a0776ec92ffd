(** The Decima monitor (the paper's Chapter 6 and Section 4.7).

    Decima observes the application through begin/end hooks inserted into
    task functors and through load callbacks, and the platform through a
    registry of named feature callbacks.  Hooks cost the machine's
    rdtsc-equivalent; counters are plain shared-memory fields. *)

type t

val create : Parcae_platform.Engine.t -> tasks:int -> t

val reset : t -> tasks:int -> unit
(** Re-size and clear statistics (used on parallelization-scheme switch). *)

val task_count : t -> int

val set_names : t -> region:string -> scheme:string -> tasks:string array -> unit
(** Label values under which this monitor's statistics appear in the metrics
    registry ([parcae_task_compute_ns_total{region,scheme,task}] feeds the
    folded-stack profiler).  Called by [Region.create] and on scheme switch;
    registry series are cumulative, so a switch starts fresh series rather
    than clearing history. *)

(** {1 Hooks}

    A hook pair measures the CPU a worker consumed between begin and end,
    excluding time blocked on channels. *)

type hook_slot

val make_slot : unit -> hook_slot
val hook_begin : t -> hook_slot -> unit
val hook_end : t -> task:int -> hook_slot -> unit

val tick : t -> int -> unit
(** Record the completion of one dynamic instance of a task. *)

val tick_n : t -> int -> int -> unit
(** [tick_n t i n] records [n] completed instances of task [i] in one
    call — how a batch-draining stage reports its whole claim.  No-op for
    [n <= 0] or an out-of-range task. *)

val complete : t -> unit
(** Record the completion of one region-level unit of work. *)

val iters : t -> int -> int
val completions : t -> int
val hook_calls : t -> int

val compute_ns : t -> int -> int
(** Total hook-attributed compute ns of a task since the last reset. *)

val exec_time : t -> int -> float
(** Decima's estimate of a task's per-instance execution time in ns
    (the paper's [Parcae::getExecTime]). *)

val task_rate : t -> int -> float
(** Average observed completion rate of a task, instances/second, over the
    whole run. *)

(** {1 Interval throughput}

    The closed-loop controller compares configurations by the throughput
    achieved between two snapshots. *)

type snapshot

val snapshot : t -> snapshot
val rate_since : t -> snapshot -> int -> float
val iters_since : t -> snapshot -> int -> int

(** {1 Platform feature registry (Figure 5.8)} *)

val register_feature : t -> string -> (unit -> float) -> unit
val feature : t -> string -> float option

val flight_tasks : t -> Parcae_obs.Flight.task_obs list
(** Per-task measurement snapshot (label, iterations, rate, exec time)
    attached to flight-recorder decisions. *)
