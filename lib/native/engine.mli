(** The native OCaml 5 multicore engine: a work-stealing fiber scheduler.

    This is the real-hardware counterpart of {!Parcae_sim.Engine}.  Tasks
    are effect-based fibers multiplexed over a fixed pool of OCaml 5
    domains; [compute] runs the calibrated spin kernel of {!Calibrate};
    the clock is the host monotonic clock (ns since engine creation).

    {b Scheduling.}  Each pool domain owns a Chase–Lev deque ({!Deque}):
    it pushes and pops its own work LIFO for locality, and when empty it
    steals the oldest task from a victim chosen in randomized order.  A
    worker that finds nothing for a few rounds parks on a condition until
    a spawn, wake-up, yield or timer makes work available; while a timer
    is pending, one of them waits for it in [select] on a pipe that new
    work rings.  Blocking
    operations (condition wait, [sleep], [join]) suspend the fiber — the
    domain moves on to other work — and the wake-up may resume the fiber
    on a different domain.

    {b Concurrency model.}  There is {e no} big runtime lock: task code
    runs genuinely in parallel.  Code between two blocking points is NOT
    atomic (unlike both the simulator and the PR-4 native engine); shared
    state must be protected with {!Monitor}s, atomics, or channel
    operations.  Scheduling is not deterministic; protocol-level
    invariants (the trace oracle) still hold, and trace timestamps are
    real nanoseconds. *)

type t
(** One native engine: a domain pool with per-domain run queues. *)

type task
(** A native task: a fiber with an async/await-style join handle. *)

exception Thread_failure of string * exn
(** Raised out of {!run} when a task raises: carries the task's name and
    the original exception (first failure wins). *)

val create : ?pool:int -> unit -> t
(** Start an engine with [pool] worker domains (default
    [Domain.recommended_domain_count () - 1], at least 1).  Domains are
    spawned eagerly and live until {!shutdown}. *)

val pool_size : t -> int

val spawn : t -> name:string -> (unit -> unit) -> task
(** Create a fiber and enqueue it: onto the calling worker's own deque
    when spawning from task code, onto the injection queue otherwise.
    Work stealing balances it across the pool. *)

val run : ?until:int -> t -> int
(** Block until every live task has finished, a task fails (re-raised as
    {!Thread_failure}), or — when [until] is given — the engine clock
    passes [until].  Returns the number of tasks completed during the
    call.  On timeout, still-live tasks keep running; callers must make
    them drain (stop flags, Eos) before {!shutdown}.

    The caller waits in [select] on a pipe that the last task's
    completion or a failure rings, so it returns one OS wake-up after
    the event, not at a poll, unless the engine was created in a process
    already holding [FD_SETSIZE] descriptors, which [select] rejects: it
    then polls every 1 ms.  Any [until] is fine, [max_int] included.
    Several threads may wait at once.  After {!shutdown}, returns at
    once. *)

val shutdown : t -> unit
(** Stop and join the pool domains, then close the engine's two wake
    pipes.  Workers first drain every runnable task; fibers blocked on a
    condition or timer at that point are abandoned (their continuations
    are dropped — no OS thread leaks).  Call it after every {!run} on
    the engine has returned: a [run] still waiting would [select] on a
    closed pipe. *)

(** {1 Task-context operations} *)

val compute : task -> int -> unit
(** Burn ~[n] ns of real CPU on the hosting domain; accounts the measured
    time into the task's [busy_ns].  Runs without any lock held, so up to
    [pool] compute bursts proceed concurrently.

    After 200 µs of compute without giving up its domain, a fiber yields
    through the injection queue if another runnable is waiting for its
    worker: work on the worker's own deque, in the injection queue, or a
    due timer.  Otherwise it keeps the domain, and a parked worker stays
    asleep. *)

val now : t -> int
(** Host monotonic ns since engine creation. *)

val yield : t -> unit
(** From a fiber: reschedule through the (FIFO) injection queue so other
    runnable work gets the domain.  Elsewhere: a CPU relax hint. *)

val sleep : t -> int -> unit
(** From a fiber: suspend on the engine's timer list; the domain runs
    other work meanwhile.  An idle worker, the timekeeper, waits in
    [select] until the earliest deadline, so the fiber resumes one OS
    wake-up after it.  With every worker busy, the first to reach a
    [compute] quantum or a blocking point after the deadline fires it.
    From a system thread: a real [sleepf]. *)

val sleep_until : t -> int -> unit

val join : task -> unit
(** Await the task's completion.  From a fiber this suspends (the domain
    is not blocked) — this is what lets DOACROSS/PS-DSWP stage pipelines
    express ordering without burning a worker.  From a system thread it
    blocks on the task's condition variable. *)

val self_opt : unit -> task option
(** The fiber running on the calling domain, if any.  O(1): a
    domain-local lookup, [None] on any non-pool domain — this is what
    lets the platform layer dispatch ambient operations without taxing
    the simulator hot path. *)

(** {1 Monitors}

    The sharded replacement for the PR-4 big lock: each concurrent
    structure (channel, lock, region control-plane) owns one
    small monitor guarding only its own state.  [wait] is fiber-aware —
    a fiber waiter suspends and frees its domain; a system-thread waiter
    blocks on a host condition variable.  Mesa semantics: waiters re-check
    their predicate in a loop.  Rules: monitors do not nest across
    structures on hot paths, and a fiber must never suspend while holding
    one (the only suspension point, [wait], releases it first). *)
module Monitor : sig
  type m
  type c

  val create : unit -> m

  val locked : m -> (unit -> 'a) -> 'a
  (** Run [f] holding the monitor.  Reentrant: a no-op when the calling
      thread already holds it. *)

  val lock : m -> unit
  val unlock : m -> unit
  (** Enter and leave without [locked]'s closure.  Not reentrant, and
      nothing between the two may raise: an exception would leave the
      monitor held.  Code that can raise takes {!locked}. *)

  val held : m -> bool
  val cond : m -> c
  val monitor_of : c -> m

  val wait : c -> unit
  (** Atomically release the monitor and wait; reacquire before
      returning.  Must be called with the monitor held. *)

  val signal : c -> unit
  (** Wake one waiter (fiber waiters first, FIFO).  Takes the monitor
      internally; callable with or without it held. *)

  val broadcast : c -> unit
end

val task_engine : task -> t

val task_id : task -> int
(** The engine-unique task id stamped into [Task_spawn]/[Task_done] and
    channel trace events. *)

val worker_id_opt : unit -> int option
(** The pool-domain index (timeline lane) of the calling domain, [None]
    off the pool.  O(1), domain-local, and allocation-free: each worker
    builds its [Some] once. *)

val task_busy_ns : task -> int
(** Total measured compute ns, the native analogue of the sim thread's
    [busy_ns] field that Decima's hooks read. *)

(** {1 Introspection} *)

val time : t -> int
val online_cores : t -> int
val live_threads : t -> int
val spawned_threads : t -> int

val steal_count : t -> int
(** Successful steals since engine creation (authoritative; the
    [parcae_steals_total] metric is a best-effort mirror). *)

val steal_attempt_count : t -> int

val instant_power : t -> float
val energy_joules : t -> float
(** Always 0.0: no power model on real hardware (no RAPL access). *)

val set_online_cores : t -> int -> unit
(** Records the request for {!online_cores} reporting but cannot revoke
    OS cores; mechanisms that model resource-availability changes only
    have real effect on the simulator. *)

val seconds_of_ns : int -> float
