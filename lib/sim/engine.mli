(** The discrete-event multicore simulator.

    This substitutes for the paper's physical evaluation machines.
    Simulated threads are written in direct style: {!compute} consumes
    CPU time, {!wait_on} blocks on a condition variable, and so on.  Only
    a suspension performs an OCaml effect, one of four payload-free
    constants; every other operation is a direct call.  {!run} records
    its engine in a domain-local slot, where the ambient operations
    ({!now}, {!self}, {!compute}, ...) find it.  The engine owns a virtual
    clock (nanoseconds), a preemptive round-robin scheduler over a finite
    number of cores, and integrates platform power over time.

    Determinism: every event has a unique explicit key (time, push time,
    the first-boundary time of its scheduler run, descending, then a
    sequence number; see {!Parcae_util.Pqueue}) and all waiter sets are
    FIFO, so a simulation with a fixed seed always produces the same
    trace.  A thread that holds a core while nobody waits for one runs
    its whole burst as one event; its quantum boundaries become events
    only when competition appears.  A burst whose end event would be the
    next one processed is processed in place, without suspending the
    thread. *)

type time = int
(** Virtual nanoseconds since the simulation started. *)

type cond
(** A condition variable of one engine, with Mesa semantics: a woken
    thread must re-check its predicate.  Waiters are FIFO. *)

type thread_state = Runnable | Running | Blocked | Finished

type thread = {
  tid : int;
  tname : string;
  slot : int;
      (** the thread's index in its engine's table while it lives; an
          event names its thread by slot, so an event is an int *)
  mutable state : thread_state;
  mutable need : int;  (** remaining ns of the current compute burst *)
  mutable chunk : int;  (** CPU ns the pending slice event accounts for *)
  mutable run_start : time;  (** when the current scheduler run started *)
  mutable on_core : bool;
  mutable core : int;  (** core index while on a core, -1 otherwise *)
  mutable last_core : int;  (** last core occupied, -1 if never dispatched *)
  mutable cont : (unit -> unit) option;  (** first-turn closure *)
  mutable kont : Obj.t;
      (** the last suspended [(unit, unit) Effect.Deep.continuation], or
          the nil sentinel before the first suspension; stored raw so a
          suspension does not box an option, and not cleared on resume *)
  mutable pending : int;
      (** deferred CPU ns accumulated by {!charge}, not yet a burst *)
  mutable busy_ns : int;  (** total CPU consumed; Decima's hooks read this *)
  mutable wake_at : time;  (** wake deadline staged for a sleep suspension *)
  mutable wait_cond : cond;  (** condition staged for a blocking suspension *)
  mutable ev_seq : int;
      (** sequence number of the thread's one queued event; a popped
          event whose key carries another is stale *)
  done_cond : cond;  (** broadcast when the thread finishes *)
  mutable failed : exn option;
  self_opt : thread option;
      (** [Some this], allocated once at spawn: the thread's entry in its
          engine's table, returned by {!current} and {!self_opt} *)
}
(** A simulated thread.  The record is exposed because the monitor reads
    [busy_ns] to measure pure compute time across preemptions; treat the
    other fields as read-only. *)

type t
(** An engine instance: one simulated platform. *)

exception Thread_failure of string * exn
(** Raised out of {!run} when a simulated thread raises: carries the
    thread's name and the original exception. *)

(** {1 Construction and execution} *)

val create : Machine.t -> t

val spawn : t -> name:string -> (unit -> unit) -> thread
(** Create a thread that will start executing [body] at the current
    virtual time.  Callable both from outside the engine (setup) and from
    inside a simulated thread. *)

val run : ?until:time -> t -> int
(** Process events until the queue is empty or virtual time would exceed
    [until]; unprocessed events remain, so [run] can be called again to
    continue.  Returns the number of events processed, burst ends
    processed without suspending included; a quantum boundary nobody
    competed at is not one.

    The loop is a chain of tail calls: a suspending thread's handler
    pops the next event and resumes the next thread itself, so a run
    needs the same stack for any number of events.  A thread's first
    turn starts from [run]'s own frame, before any later event.

    [run] records [t] in a slot of the calling domain while it runs, and
    restores the previous value when it returns or raises.  A systhread
    sharing the domain sees the slot too; the [--listen] exposition
    thread is one, and nothing it calls reads the slot. *)

(** {1 Operations inside simulated threads}

    The ambient operations ({!now}, {!self}, {!compute}, {!yield},
    {!sleep}, {!spawn_thread}) act on the engine whose turn runs on this
    domain; the others take an engine, or a condition or thread of one.
    They, the bursts and the waits raise [Invalid_argument] outside a
    turn of their engine. *)

val compute : int -> unit
(** Consume n nanoseconds of CPU, competing for cores and subject to
    preemption: {!compute_in} on the running engine. *)

val charge : t -> int -> unit
(** Consume n nanoseconds of CPU {e eventually}: the cost accumulates on
    the calling thread and is folded into a real {!compute} burst once the
    total reaches the charge quantum (5µs), so sub-microsecond costs
    (channel and hook charges) do not each become a burst.
    Virtual-time skew of any deferred cost is bounded by the quantum.
    The folded burst follows {!compute_in}: it may finish without
    suspending. *)

val flush_charges : t -> bool
(** Convert any pending {!charge}d cost into a burst now, as
    {!compute_in} does; returns [true] if the thread had pending cost.
    It still returns [true] when the burst finished without suspending.
    Blocking primitives call this before their wait loops so a thread
    never sleeps owing CPU time — and because the burst may suspend, the
    caller must re-check its wait predicate when this returns [true]
    before actually waiting, or a wakeup racing the flush would be
    lost. *)

val current_busy : t -> int
(** [busy_ns] of the thread whose turn is running, pending charges
    included — the allocation-free equivalent of reading {!self} to get
    [busy_ns]. *)

val current : t -> thread option
(** The thread whose turn of [t] is running ([None] outside one), read
    from [t] rather than the domain's slot.  The engine keeps the turn
    as its thread's index in the engine's table and answers with the
    thread's [self_opt], so this allocates nothing. *)

val compute_in : t -> int -> unit
(** {!compute} on the thread of [t]'s turn.  The burst length is staged
    in a thread field and a constant effect is performed, so the
    suspension allocates no effect block.  When the burst's end would be
    the next event processed and would resume the caller at once (it
    holds its core, the burst ends in one event, no later than {!run}'s
    [until], and its key sorts before every queued event), the engine
    processes that event in place and returns without suspending; the
    schedule is the same either way. *)

val now : unit -> time
(** The current virtual time of the running engine. *)

val yield : unit -> unit
(** Give up the core and requeue. *)

val sleep_until : time -> unit
val sleep : int -> unit

val wait_on : cond -> unit
(** Block until the condition is signalled.  Mesa semantics: re-check the
    predicate in a loop. *)

val signal : cond -> unit
(** Wake one waiter (FIFO).  Never suspends, and may be called outside a
    turn, as {!set_online_cores} may. *)

val broadcast : cond -> unit
(** Wake every waiter, like {!signal}. *)

val spawn_thread : name:string -> (unit -> unit) -> thread
(** Spawn a sibling thread from within a simulated thread. *)

val self : unit -> thread

val self_opt : unit -> thread option
(** The thread whose turn is running on this domain, or [None] outside
    every engine's turn: {!self} without the exception, the twin of
    {!Parcae_native.Engine.self_opt}. *)

val core_opt : unit -> int option
(** The core that thread holds, else the core it last held: its timeline
    lane.  [None] outside every engine's turn and before the thread's
    first dispatch.  Allocates nothing. *)

val join : thread -> unit
(** Block the calling simulated thread until [th] finishes. *)

val cond_create : t -> cond
(** A condition of [t]'s threads. *)

(** {1 Introspection} *)

val time : t -> time

val inlined_bursts : t -> int
(** Burst ends processed in place since the engine was created; {!run}
    counts them among its processed events. *)

val online_cores : t -> int
val live_threads : t -> int
val spawned_threads : t -> int

val instant_power : t -> float
(** Platform power draw at the current busy-core count, watts. *)

val energy_joules : t -> float
(** Total energy consumed so far, integrated over busy-core changes. *)

val set_online_cores : t -> int -> unit
(** Change the number of cores the platform makes available, modelling
    resource-availability change (Section 8.3.4 of the paper).  Reducing
    below the busy count lets running slices finish first. *)

val machine : t -> Machine.t

val seconds_of_ns : int -> float
(** Convert virtual ns to seconds for reporting. *)
