(** The execution engine behind the platform abstraction.

    Every engine operation the runtime and workloads use — spawn/join,
    compute, condition wait/signal, clock, core counts — dispatches here
    over the backend chosen at engine creation: the deterministic
    discrete-event simulator ({!Parcae_sim.Engine}) or the native OCaml 5
    multicore backend ({!Parcae_native.Engine}).

    Engines, threads and conditions are tagged values, so operations that
    receive one dispatch directly.  The ambient operations ({!compute},
    {!now}, {!yield}, ...) have no argument to dispatch on; they resolve
    the calling context through the native backend's domain-local worker
    slot — an O(1) lookup that answers [None] on any non-pool domain —
    and otherwise call the simulator's ambient operations, which find the
    running simulator engine through a domain-local slot of their own.
    Sim behaviour is therefore bit-identical to calling
    {!Parcae_sim.Engine} directly.

    These dispatch modules are the whole backend contract: each operation
    calls both backends, so a backend that drifts fails to compile.  An
    operation is added here when a caller needs it. *)

type t
type thread
type cond
type monitor

exception Thread_failure of string * exn
(** Raised out of {!run} on either backend when a thread fails: the
    thread's name and the original exception. *)

(** {1 Construction} *)

val create : Parcae_sim.Machine.t -> t
(** A simulator engine — the deterministic default, source-compatible
    with the pre-abstraction API. *)

val create_native : ?pool:int -> unit -> t
(** A native engine over [pool] OCaml 5 domains (default: the host's
    recommended domain count minus one, at least 1). *)

val is_native : t -> bool

val sim_engine : t -> Parcae_sim.Engine.t option
(** The underlying simulator engine, for sim-only subsystems (the power
    sensor, virtual-platform experiments).  [None] on native. *)

val native_engine : t -> Parcae_native.Engine.t option

val machine : t -> Parcae_sim.Machine.t
(** The platform cost model.  On native, a synthetic descriptor: [cores]
    is the domain-pool size, every virtual cost is 0 (real costs land in
    wall time), powers are 0. *)

(** {1 Execution} *)

val spawn : t -> name:string -> (unit -> unit) -> thread
val run : ?until:int -> t -> int
(** Sim: process events up to [until] virtual ns.  Native: wait until
    live tasks drain or the host clock passes [until] ns. *)

val shutdown : t -> unit
(** Stop a native engine's domain pool; no-op on sim. *)

(** {1 Ambient operations (inside an engine thread)} *)

val compute : int -> unit
val now : unit -> int
val yield : unit -> unit
val sleep : int -> unit
val sleep_until : int -> unit
val spawn_thread : name:string -> (unit -> unit) -> thread

val charge : t -> int -> unit
(** Consume [n] ns of CPU with deferred accounting on the simulator: the
    cost accumulates on the calling thread and folds into a later compute
    burst ({!Parcae_sim.Engine.charge}, skew bounded by the 5µs quantum),
    so sub-microsecond costs do not each become a burst.  On native
    the cost is spun immediately, same as {!compute}. *)

val compute_in : t -> int -> unit
(** {!compute}, given the engine: on the simulator the calling thread is
    read from [t] ({!Parcae_sim.Engine.compute_in}) rather than the
    domain's slot.  Identical semantics to {!compute}; the serve path's
    stage bursts and Flex's charges use this. *)

val busy_ns_in : t -> int
(** Total CPU consumed by the calling thread of [eng] — virtual ns on sim,
    including any cost deferred by {!charge}; measured spin ns on native.
    What Decima's begin/end hooks read. *)

val current_lane : unit -> int option
(** The timeline lane of the calling context: the worker-domain index on
    native, the occupied core index on sim.  Safe from any context —
    answers [None] outside an engine thread or when the simulated caller
    holds no core. *)

val current_task_id : unit -> int
(** The engine task id of the calling context (native task id or simulated
    thread id), or -1 on a plain thread; allocates nothing.  The race
    sanitizer keys its vector clocks on this, and {!Lock} records its
    holder with it. *)

(** {1 Value-dispatched operations}

    Monitors are the cross-backend mutual-exclusion primitive.  On the
    simulator a monitor is free: cooperative scheduling already makes
    code between blocking points atomic, so {!locked} just runs the
    closure.  On native it is a real per-structure mutex from the
    work-stealing engine, and protocols that were implicitly atomic
    under the old big lock must hold the right monitor explicitly. *)

val monitor_create : t -> monitor
val locked : monitor -> (unit -> 'a) -> 'a

val cond_in : monitor -> cond
(** A condition tied to [monitor]: check-then-wait protocols hold the
    monitor across the predicate check and {!wait_on} so a concurrent
    signal cannot be lost (native); on sim this is an ordinary
    cooperative condition. *)

val wait_on : cond -> unit
(** Sim: cooperative wait.  Native: atomically release the condition's
    monitor and suspend the fiber; reacquires before returning.  Acquires
    the monitor first when the caller does not already hold it.  Mesa
    semantics on both backends: re-check the predicate in a loop. *)

val signal : cond -> unit
(** Wake one waiter (FIFO on the simulator; on native, fiber waiters
    first).  Callable with or without the condition's monitor held. *)

val broadcast : cond -> unit
val join : thread -> unit

(** {1 Introspection} *)

val time : t -> int
val online_cores : t -> int
val live_threads : t -> int
val spawned_threads : t -> int
val instant_power : t -> float
val energy_joules : t -> float

val set_online_cores : t -> int -> unit
(** Models resource-availability change on sim; on native only records
    the request for reporting (OS cores cannot be revoked). *)

val hook_cost : t -> int
(** Virtual cost of one Decima begin/end hook: the machine's [hook] on
    sim, 0 on native (the real hook cost is measured, not modelled). *)

val seconds_of_ns : int -> float
