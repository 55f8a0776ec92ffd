(* Discrete-event multicore simulator.

   This module substitutes for the paper's physical evaluation machines
   (Table 8.1).  Simulated threads are written in direct style: [compute n]
   consumes [n] nanoseconds of CPU, [wait_on c] blocks on a condition, and
   so on.  Only a suspension goes through an OCaml effect, and each of the
   four ([Burst], [Block], [Yield], [Sleep]) is a constant whose argument
   is staged in a thread field.  Every other operation is a direct call:
   [run] records its engine in a domain-local slot, where the ambient
   operations find it, as the native backend finds its worker.  The
   engine owns a virtual clock, a preemptive round-robin scheduler with a
   finite number of cores, and integrates platform power over time.

   The event loop is a chain of tail calls ([step]): the handler arm of
   a suspension pops the next event and continues the next thread's
   continuation itself, without returning to a loop, so a run takes
   the same stack for any number of events.  Only a thread's first turn
   starts from [process]'s own frame ([drive]).

   Every per-event store is an int store.  An event's payload names its
   thread by the slot the thread holds in the engine's table while it
   lives, and the running turn is that slot too ([turn_slot]).

   Determinism: every event carries a unique explicit key (see [push_wake]
   and [start_run]) and all waiter sets are FIFO queues, so a simulation
   with a fixed seed always produces the same trace. *)

module Pqueue = Parcae_util.Pqueue
module Ring = Parcae_util.Ring
module Trace = Parcae_obs.Trace
module Event = Parcae_obs.Event
module Metrics = Parcae_obs.Metrics
module Timeline = Parcae_obs.Timeline
module Hb = Parcae_obs.Hb
module Observed = Parcae_obs.Observed

(* Scheduler-level instruments, bound to the registry they were built for.
   Each engine keeps one record, rebuilt by [bind_installed] when the
   installed registry changes, and stores into the instruments' fields
   directly; while no registry is installed it holds [unbound], and an
   update costs one comparison. *)
type scheduler_metrics = {
  reg : Metrics.t;
  m_busy_ns : Metrics.counter;
  m_idle_ns : Metrics.counter;
  m_ctx_switches : Metrics.counter;
  m_spawned : Metrics.counter;
  m_runnable : Metrics.gauge;
  m_busy_cores : Metrics.gauge;
  m_online_cores : Metrics.gauge;
  m_live_threads : Metrics.gauge;
}

let bind_metrics reg =
  {
    reg;
    m_busy_ns =
      Metrics.counter reg "parcae_sim_busy_core_ns_total"
        ~help:"Core-nanoseconds spent executing simulated threads";
    m_idle_ns =
      Metrics.counter reg "parcae_sim_idle_core_ns_total"
        ~help:"Core-nanoseconds online cores spent idle";
    m_ctx_switches =
      Metrics.counter reg "parcae_sim_ctx_switches_total"
        ~help:"Context switches charged by the scheduler";
    m_spawned =
      Metrics.counter reg "parcae_sim_threads_spawned_total"
        ~help:"Simulated threads ever spawned";
    m_runnable =
      Metrics.gauge reg "parcae_sim_runnable_threads"
        ~help:"Threads ready to run but not on a core";
    m_busy_cores =
      Metrics.gauge reg "parcae_sim_busy_cores" ~help:"Cores currently executing a thread";
    m_online_cores =
      Metrics.gauge reg "parcae_sim_online_cores" ~help:"Cores the platform makes available";
    m_live_threads =
      Metrics.gauge reg "parcae_sim_live_threads" ~help:"Threads not yet finished";
  }

let unbound = bind_metrics Metrics.null

(* Int-only [min] and [max].  Stdlib's are polymorphic and compare
   through a C call; the event loop takes about two per event. *)
let min (a : int) b = if a <= b then a else b
let max (a : int) b = if a >= b then a else b

type time = int

(* A condition variable with Mesa semantics: a woken thread must re-check its
   predicate.  Waiters are FIFO for determinism and fairness.  A condition
   belongs to one engine, so signalling it needs no lookup. *)
type cond = { cwaiters : thread Ring.t; ceng : t }

and thread_state =
  | Runnable  (* wants CPU, waiting in the run queue *)
  | Running  (* currently assigned a core *)
  | Blocked  (* waiting on a condition or timer *)
  | Finished

and thread = {
  tid : int;
  tname : string;
  slot : int;  (* index in the engine's [threads] while the thread lives *)
  mutable state : thread_state;
  mutable need : int;  (* remaining ns of the current compute burst *)
  mutable chunk : int;  (* CPU ns the pending slice end accounts for *)
  mutable run_start : time;  (* when the current run started *)
  mutable on_core : bool;
  mutable core : int;  (* core index while on a core, -1 otherwise *)
  mutable last_core : int;  (* last core occupied; wait attribution lane *)
  mutable cont : (unit -> unit) option;  (* first-turn closure *)
  mutable kont : Obj.t;
      (* the last suspended [(unit, unit) Effect.Deep.continuation], or
         [kont_nil] before the first suspension.  Stored raw: a [Some k]
         box per suspension would tax every event on the serve path.
         Never cleared: [resume] tells a first turn by [cont]. *)
  mutable pending : int;  (* deferred CPU ns not yet folded into a burst *)
  mutable busy_ns : int;  (* total CPU consumed, for utilization stats *)
  mutable wake_at : time;  (* wake deadline staged for a Sleep suspension *)
  mutable wait_cond : cond;  (* condition staged for a Block suspension *)
  mutable ev_seq : int;
      (* [seq] of the thread's queued event; a popped event whose key
         carries another is stale *)
  done_cond : cond;  (* broadcast when the thread finishes *)
  mutable failed : exn option;
  self_opt : thread option;
      (* [Some this], allocated once at spawn: the thread's entry in the
         engine's table, which [current] and [self_opt ()] return *)
}

and t = {
  machine : Machine.t;
  events : Pqueue.t;  (* payload: [slot lsl 1 lor kind], see [wake_ev] *)
  coasting : Pqueue.t;
      (* burst ends of coasting runs (see [queue_run]); never non-empty while
         a thread waits for a core or the busy count exceeds [online] *)
  mutable now : time;
  run_queue : thread Ring.t;
  mutable online : int;  (* cores currently made available *)
  mutable busy : int;  (* cores currently executing a thread *)
  core_stack : int array;  (* free core indices, [0, core_top) *)
  lanes : int option array;  (* [Some c] for each core c, so [core_opt] boxes nothing *)
  mutable core_top : int;
  mutable live : int;  (* threads not yet finished *)
  mutable tid_counter : int;
  mutable threads : thread option array;
      (* live threads by slot, each entry its thread's [self_opt]; [None]
         in a free slot *)
  mutable free : int array;  (* free slots, [0, free_top) *)
  mutable free_top : int;
  mutable turn_slot : int;  (* slot of the running turn's thread, -1 outside a turn *)
  (* Energy integration.  Power is linear in the busy-core count
     (Machine.power), so the integral needs only one int accumulator of
     busy-core-ns; joules are derived lazily in [energy_joules].  Keeping
     the hot-path accumulator an immediate int (not a boxed float field)
     matters: [set_busy] runs on every core acquire/release. *)
  mutable busy_core_ns : int;
  mutable last_energy_t : time;
  mutable spawned : int;  (* total threads ever spawned *)
  mutable next_seq : int;  (* sequence numbers of event keys *)
  cur : Pqueue.key;
      (* key of the event being processed (its time is [now]); between
         [run] calls it sorts after every event at [now] *)
  spare : Pqueue.key;  (* scratch for [materialize] *)
  mutable limit : time;  (* [until] of the [run] in progress *)
  mutable inlined : int;  (* burst ends processed by [inline_burst] *)
  mutable processed : int;  (* events popped by [step] *)
  mutable starting : int;
      (* slot of a thread whose first turn [step] met, -1 if none:
         [drive] starts it *)
  mutable mx : scheduler_metrics;  (* see [bind_installed] *)
  mutable mx_epoch : int;  (* [Observed.epoch] when [mx] was last checked *)
}

(* Sentinel for an absent suspended continuation (immediate, GC-inert). *)
let kont_nil : Obj.t = Obj.repr 0

(* ------------------------------------------------------------------ *)
(* Suspensions.                                                        *)
(* ------------------------------------------------------------------ *)

(* Each is a constant: what it needs is staged in a thread field first,
   so performing one allocates no effect block. *)
type _ Effect.t +=
  | Burst : unit Effect.t  (* run the burst [need] *)
  | Block : unit Effect.t  (* wait on [wait_cond] *)
  | Yield : unit Effect.t  (* give up the core and requeue *)
  | Sleep : unit Effect.t  (* sleep until [wake_at] *)

let cond_create eng = { cwaiters = Ring.create (); ceng = eng }

exception Thread_failure of string * exn

(* ------------------------------------------------------------------ *)
(* Engine internals.                                                   *)
(* ------------------------------------------------------------------ *)

let create machine =
  {
    machine;
    events = Pqueue.create ();
    coasting = Pqueue.create ();
    now = 0;
    run_queue = Ring.create ();
    online = machine.Machine.cores;
    busy = 0;
    core_stack = Array.init machine.Machine.cores (fun i -> i);
    lanes = Array.init machine.Machine.cores Option.some;
    core_top = machine.Machine.cores;
    live = 0;
    tid_counter = 0;
    threads = [||];
    free = [||];
    free_top = 0;
    turn_slot = -1;
    busy_core_ns = 0;
    last_energy_t = 0;
    spawned = 0;
    next_seq = 0;
    cur = { time = 0; push = max_int; first = min_int; seq = max_int };
    spare = { time = 0; push = 0; first = 0; seq = 0 };
    limit = max_int;
    inlined = 0;
    processed = 0;
    starting = -1;
    mx = unbound;
    mx_epoch = -1;
  }

(* Double the thread table.  Called when every slot is taken, so the free
   stack then holds exactly the new slots, the lowest on top. *)
let grow_threads eng =
  let cap = Array.length eng.threads in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let threads = Array.make ncap None in
  Array.blit eng.threads 0 threads 0 cap;
  eng.threads <- threads;
  eng.free <- Array.init ncap (fun i -> ncap - 1 - i);
  eng.free_top <- ncap - cap

(* The thread of [eng]'s running turn, if any. *)
let current eng =
  let s = eng.turn_slot in
  if s < 0 then None else Array.unsafe_get eng.threads s

(* An event is an int: the slot of its thread, shifted, and its kind in
   the low bit.  A wake resumes a blocked, sleeping or new thread; a
   slice end closes a slice of a scheduler run (see [queue_run]). *)
let[@inline] wake_ev th = th.slot lsl 1
let[@inline] slice_ev th = (th.slot lsl 1) lor 1

let fresh_seq eng =
  let s = eng.next_seq in
  eng.next_seq <- s + 1;
  s

(* Event keys (Pqueue's order: time, push, first descending, seq).  A
   wake, sleep or spawn is keyed [(at, now, at, fresh)].  A scheduler run
   — the slices a thread executes on one core from dispatch (or from the
   start of a burst on a core it holds) until its burst ends or it is
   preempted — keys each quantum boundary [b] as [(b, p, f, s)]: [p] the
   previous boundary of the run (for the run's first event, the time the
   run started), [f] the run's first boundary and [s] one sequence number
   drawn when the run started.  Ties at the same instant therefore follow
   push time, then put younger runs first, then the order runs started. *)
let push_wake eng at th =
  let at = max at eng.now and seq = fresh_seq eng in
  th.ev_seq <- seq;
  Pqueue.push eng.events ~time:at ~push:eng.now ~first:at ~seq (wake_ev th)

(* No thread waits for a core and no core is held past [online]: a
   quantum boundary now would extend its run. *)
let uncontended eng = Ring.is_empty eng.run_queue && eng.busy <= eng.online

(* ------------------------------------------------------------------ *)
(* Inline burst ends.                                                  *)
(*                                                                     *)
(* A [Burst] from a thread that holds its core pushes the burst's end  *)
(* (see [start_run] and [queue_run]), and when that event is the next  *)
(* one [run] pops, the pop resumes the thread at once.  [inline_burst] *)
(* recognizes that case before suspending and does what the push, pop  *)
(* and resume would: it draws the run's sequence number, makes the     *)
(* event's key current, advances the clock and accounts the CPU.  The  *)
(* caller then keeps running in the same turn.  The burst must end in  *)
(* one event (within a quantum, or coasting), no later than [run]'s    *)
(* [until], and its key must sort before the top of both queues.       *)
(* Rejection reads event times first; the full key is built only on a *)
(* tie in time.                                                        *)
(* ------------------------------------------------------------------ *)

let inline_burst eng th =
  let need = th.need and ts = eng.machine.Machine.time_slice and now = eng.now in
  let stop = now + need in
  th.on_core && eng.busy <= eng.online && stop <= eng.limit
  &&
  let te = Pqueue.top_time eng.events in
  stop <= te
  && (need <= ts || uncontended eng)
  &&
  let tc = Pqueue.top_time eng.coasting in
  stop <= tc
  &&
  (* [start_run]'s key: a coasting run pushes its end under its last
     boundary. *)
  let first = now + min need ts and seq = eng.next_seq in
  let push = if need > ts then first + ((stop - first - 1) / ts * ts) else now in
  (stop < te || Pqueue.before_top eng.events stop push first seq)
  && (stop < tc || Pqueue.before_top eng.coasting stop push first seq)
  && begin
       eng.next_seq <- seq + 1;
       let cur = eng.cur in
       cur.time <- stop;
       cur.push <- push;
       cur.first <- first;
       cur.seq <- seq;
       th.run_start <- now;
       th.chunk <- need;
       th.need <- 0;
       th.busy_ns <- th.busy_ns + need;
       eng.now <- stop;
       eng.inlined <- eng.inlined + 1;
       true
     end

(* Finish the staged burst [th.need]: inline, or suspend. *)
let burst eng th = if not (inline_burst eng th) then Effect.perform Burst

let not_in_thread () = invalid_arg "Parcae_sim.Engine: not called from a simulated thread"

(* The thread of [eng]'s running turn. *)
let turn eng = match current eng with Some th -> th | None -> not_in_thread ()

(* ------------------------------------------------------------------ *)
(* Deferred micro-charging.                                            *)
(*                                                                     *)
(* Sub-microsecond costs (channel ops, monitor hooks) dominate the     *)
(* events if each one becomes its own burst.  [charge] instead         *)
(* accumulates them on the calling thread and folds the total          *)
(* into a real burst once it reaches [charge_quantum], bounding the    *)
(* virtual-time skew of any deferred cost by the quantum.  Blocking    *)
(* primitives call [flush_charges] before entering their wait loops so *)
(* a thread never sleeps owing CPU time — and because flushing may     *)
(* suspend, callers must re-check their predicate when it returns      *)
(* [true] (another thread may have run) before waiting.                *)
(* ------------------------------------------------------------------ *)

let charge_quantum = 5_000

let charge eng n =
  if n > 0 then begin
    let th = turn eng in
    let p = th.pending + n in
    if p >= charge_quantum then begin
      th.pending <- 0;
      th.need <- p;
      burst eng th
    end
    else th.pending <- p
  end

let flush_charges eng =
  match current eng with
  | Some th when th.pending > 0 ->
      th.need <- th.pending;
      th.pending <- 0;
      burst eng th;
      true
  | _ -> false

(* A burst of [n] ns on the thread of [eng]'s turn: a burst whose end
   would resume the thread at once does not suspend at all. *)
let compute_in eng n =
  if n > 0 then begin
    let th = turn eng in
    th.need <- n;
    burst eng th
  end

(* CPU consumed by the thread of the current turn, deferred charges
   included. *)
let current_busy eng = match current eng with Some th -> th.busy_ns + th.pending | None -> 0

let[@inline never] rebind eng =
  let e = Atomic.get Observed.epoch in
  let reg = Metrics.current () in
  if eng.mx.reg != reg then eng.mx <- (if Metrics.is_null reg then unbound else bind_metrics reg);
  eng.mx_epoch <- e

(* Bind the scheduler's handles to the installed registry if it changed:
   [run] does so before each event, so a registry installed between two
   events counts from the next one, and the entry points that may run
   outside an event ([spawn], [set_online_cores], [energy_joules]) do so
   on entry.  The observer epoch is read in place, so while no scope
   opens or closes this is one load and one comparison; [rebind] stays
   out of line, and with it the stores. *)
let[@inline] bind_installed eng = if Atomic.get Observed.epoch <> eng.mx_epoch then rebind eng

(* Bring the busy-core-time integral up to [eng.now] at the current busy
   level — pure int arithmetic, no boxing (this runs on every core
   acquire/release). *)
let account_energy eng =
  let dt = eng.now - eng.last_energy_t in
  if dt > 0 then begin
    eng.busy_core_ns <- eng.busy_core_ns + (dt * eng.busy);
    eng.last_energy_t <- eng.now;
    (* Integrate core busy/idle time over the same interval the energy
       accumulator covers: [busy] was the level since [last_energy_t]. *)
    let m = eng.mx in
    if m != unbound then begin
      m.m_busy_ns.count <- m.m_busy_ns.count + (dt * eng.busy);
      let idle = eng.online - eng.busy in
      if idle > 0 then m.m_idle_ns.count <- m.m_idle_ns.count + (dt * idle)
    end
  end

let set_busy eng b =
  account_energy eng;
  eng.busy <- b;
  let m = eng.mx in
  if m != unbound then begin
    m.m_busy_cores.level <- float_of_int b;
    m.m_online_cores.level <- float_of_int eng.online
  end

(* A core's timeline lane: Run while a thread holds it, Park otherwise.
   The simulator's cooperative single-threadedness makes this exact. *)
let tl_enter eng core st =
  if Atomic.get Observed.word land Observed.timeline <> 0 then
    Timeline.record_enter ~lane:core ~now:eng.now st

(* Queue the next event of [th]'s run, whose remaining burst starts
   executing at [from]; [push] is the event's push time.

   Lazy time slices: a run with more than one quantum left that starts
   or extends while [uncontended] coasts.  Instead of one event per
   quantum boundary, its burst end is its only event, kept in
   [eng.coasting] under the key that event would have had (the previous
   boundary as push time).  Every skipped boundary would have extended
   the run, because competition can only appear through [make_runnable]
   or [set_online_cores], and both call [materialize] when it does. *)
let queue_run eng th ~from ~push ~first ~seq =
  let ts = eng.machine.Machine.time_slice in
  th.ev_seq <- seq;
  if th.need > ts && uncontended eng then begin
    let stop = from + th.need in
    th.chunk <- th.need;
    Pqueue.push eng.coasting ~time:stop ~push:(first + ((stop - first - 1) / ts * ts)) ~first ~seq
      (slice_ev th)
  end
  else begin
    let chunk = min th.need ts in
    th.chunk <- chunk;
    Pqueue.push eng.events ~time:(from + chunk) ~push ~first ~seq (slice_ev th)
  end

(* Competition appeared: move every coasting run to [eng.events] at its
   next quantum boundary, where [step] extends or preempts it as
   it always has.  A boundary at [now] has already passed iff its key
   sorts before the key of the event being processed. *)
let materialize eng =
  let ts = eng.machine.Machine.time_slice and q = eng.coasting and k = eng.spare in
  while not (Pqueue.is_empty q) do
    let ev = Pqueue.pop_into q k in
    (* A coasting run's thread holds its core until the run's end pops. *)
    let th = Option.get eng.threads.(ev lsr 1) in
    let stop = k.time and first = k.first and seq = k.seq and cur = eng.cur in
    (* The run's first boundary at or after [now], and its push time. *)
    let b = if eng.now <= first then first else first + ((eng.now - first + ts - 1) / ts * ts) in
    let pb = if b = first then th.run_start else b - ts in
    let passed =
      b = eng.now && Pqueue.key_before b pb first seq eng.now cur.push cur.first cur.seq
    in
    let pb = if passed then b else pb in
    let b = if passed then b + ts else b in
    if b < stop then begin
      th.chunk <- th.chunk - (stop - b);
      Pqueue.push eng.events ~time:b ~push:pb ~first ~seq ev
    end
    else Pqueue.push eng.events ~time:stop ~push:k.push ~first ~seq ev
  done

(* Called after the run queue grows or [online] shrinks. *)
let compete eng = if not (Pqueue.is_empty eng.coasting || uncontended eng) then materialize eng

(* Start a run: [th] holds a core and executes its burst after [switch]
   ns. *)
let start_run eng th ~switch =
  th.run_start <- eng.now;
  let from = eng.now + switch in
  queue_run eng th ~from ~push:eng.now
    ~first:(from + min th.need eng.machine.Machine.time_slice)
    ~seq:(fresh_seq eng)

(* Assign cores to runnable threads while any are free. *)
let rec dispatch eng =
  if eng.busy < eng.online && not (Ring.is_empty eng.run_queue) then begin
    let th = Ring.pop eng.run_queue in
    if th.state = Runnable then begin
      th.state <- Running;
      th.on_core <- true;
      (if eng.core_top > 0 then begin
         eng.core_top <- eng.core_top - 1;
         let c = eng.core_stack.(eng.core_top) in
         th.core <- c;
         th.last_core <- c
       end
       else th.core <- -1 (* online oversubscribed past physical cores *));
      tl_enter eng th.core Timeline.Run;
      set_busy eng (eng.busy + 1);
      (* Charge the context switch, then run. *)
      start_run eng th ~switch:eng.machine.Machine.ctx_switch;
      let m = eng.mx in
      if m != unbound then begin
        m.m_ctx_switches.count <- m.m_ctx_switches.count + 1;
        m.m_runnable.level <- float_of_int (Ring.length eng.run_queue)
      end
    end;
    dispatch eng
  end

let make_runnable eng th =
  th.state <- Runnable;
  Ring.push eng.run_queue th;
  let m = eng.mx in
  if m != unbound then m.m_runnable.level <- float_of_int (Ring.length eng.run_queue);
  dispatch eng;
  compete eng

let release_core eng th =
  if th.on_core then begin
    th.on_core <- false;
    tl_enter eng th.core Timeline.Park;
    if th.core >= 0 then begin
      eng.core_stack.(eng.core_top) <- th.core;
      eng.core_top <- eng.core_top + 1;
      th.core <- -1
    end;
    set_busy eng (eng.busy - 1);
    dispatch eng
  end

let wake eng th = push_wake eng eng.now th

(* Waking pushes the waiter's wake event; nothing runs until the caller's
   turn suspends or ends, so this needs no suspension. *)
let signal c = if not (Ring.is_empty c.cwaiters) then wake c.ceng (Ring.pop c.cwaiters)

let broadcast c =
  while not (Ring.is_empty c.cwaiters) do
    wake c.ceng (Ring.pop c.cwaiters)
  done

(* ------------------------------------------------------------------ *)
(* The event loop: a chain of tail calls.                              *)
(*                                                                     *)
(* [step] pops events until one resumes a thread and continues that    *)
(* thread in tail position.  Every handler arm ends by tail-calling    *)
(* [step], so a suspending thread switches straight to the next        *)
(* thread's continuation and the stack does not grow.  Nothing may     *)
(* follow a call to [step] or [resume] on the chain: no code after it, *)
(* no [try], no [Fun.protect], or each event leaves a frame behind.    *)
(* [step] returns to [process] when both queues are empty, when the    *)
(* next event is past [limit], or when the next thread to run has not  *)
(* started: a first turn goes through [match_with], which is not a     *)
(* tail call, so [drive] starts it from its own frame.                 *)
(* ------------------------------------------------------------------ *)

let rec step eng =
  let q = Pqueue.min_of eng.coasting eng.events in
  let t = Pqueue.top_time q in
  if (t = max_int && Pqueue.is_empty q) || t > eng.limit then ()
  else begin
    let ev = Pqueue.pop_into q eng.cur in
    eng.now <- max eng.now t;
    eng.processed <- eng.processed + 1;
    bind_installed eng;
    match Array.unsafe_get eng.threads (ev lsr 1) with
    | Some th when th.ev_seq = eng.cur.seq ->
        if ev land 1 = 0 then resume eng th
        else begin
          th.need <- th.need - th.chunk;
          th.busy_ns <- th.busy_ns + th.chunk;
          if th.need <= 0 then
            (* Burst complete: keep the core and resume the thread; its
               next effect decides whether the core is released. *)
            resume eng th
          else begin
            eng.turn_slot <- -1;
            if uncontended eng then
              (* No competition: extend on the same core without a switch;
                 the run keeps its first boundary and sequence number. *)
              queue_run eng th ~from:eng.now ~push:eng.now ~first:eng.cur.first ~seq:eng.cur.seq
            else begin
              (* Preempt: go to the back of the run queue. *)
              release_core eng th;
              make_runnable eng th
            end;
            step eng
          end
        end
    | _ ->
        (* Stale: the slot is free, or its thread's queued event is
           another one (the thread that queued this one has finished). *)
        eng.turn_slot <- -1;
        step eng
  end

(* Give [th] its turn: continue it in tail position, or leave its first
   turn to [drive]. *)
and resume eng th =
  match th.cont with
  | Some _ -> eng.starting <- th.slot
  | None ->
      eng.turn_slot <- th.slot;
      Effect.Deep.continue (Obj.obj th.kont : (unit, unit) Effect.Deep.continuation) ()

(* Start the pending first turns.  Each runs the chain from this frame
   until [step] returns; a first turn met on the way is started before
   any later event, so none overtakes it. *)
let rec drive eng =
  let s = eng.starting in
  if s >= 0 then begin
    eng.starting <- -1;
    (match eng.threads.(s) with
    | Some ({ cont = Some go; _ } as th) ->
        th.cont <- None;
        eng.turn_slot <- s;
        go ()
    | _ -> ());
    drive eng
  end

let finish eng th =
  let w = Atomic.get Observed.word in
  if w land (Observed.trace lor Observed.hb) <> 0 then begin
    if w land Observed.trace <> 0 then Trace.task_done ~t:eng.now ~task:th.tid ~busy_ns:th.busy_ns;
    if w land Observed.hb <> 0 then Hb.on_task_done ~task:th.tid
  end;
  th.state <- Finished;
  eng.live <- eng.live - 1;
  (* Free the slot: the engine no longer reaches the thread, and an event
     that names the slot is stale from now on. *)
  eng.threads.(th.slot) <- None;
  eng.free.(eng.free_top) <- th.slot;
  eng.free_top <- eng.free_top + 1;
  let m = eng.mx in
  if m != unbound then m.m_live_threads.level <- float_of_int eng.live;
  release_core eng th;
  broadcast th.done_cond

(* The handler's [effc] runs once per suspension; anything it allocates
   is a per-suspension tax on the serve path.  So every arm's
   continuation-consumer is built ONCE here (per thread, at spawn) and the
   arms return the prebuilt [Some fn].  Each arm, and [retc], ends with
   [step] in tail position. *)
let rec handler eng th : (unit, unit) Effect.Deep.handler =
  let open Effect.Deep in
  let on_burst =
    Some
      (fun (k : (unit, unit) continuation) ->
        th.kont <- Obj.repr k;
        if th.on_core && eng.busy <= eng.online then begin
          (* Already holding a core (burst follows burst): keep it, no
             context switch charged. *)
          th.state <- Running;
          start_run eng th ~switch:0
        end
        else begin
          (* Either between bursts without a core, or the platform shrank
             below the held cores: go through the scheduler. *)
          release_core eng th;
          make_runnable eng th
        end;
        step eng)
  in
  let on_yield =
    Some
      (fun (k : (unit, unit) continuation) ->
        th.kont <- Obj.repr k;
        th.need <- 0;
        release_core eng th;
        make_runnable eng th;
        step eng)
  in
  let on_sleep =
    Some
      (fun (k : (unit, unit) continuation) ->
        th.kont <- Obj.repr k;
        th.state <- Blocked;
        release_core eng th;
        push_wake eng th.wake_at th;
        step eng)
  in
  let on_block =
    Some
      (fun (k : (unit, unit) continuation) ->
        th.kont <- Obj.repr k;
        th.state <- Blocked;
        release_core eng th;
        Ring.push th.wait_cond.cwaiters th;
        step eng)
  in
  {
    retc =
      (fun () ->
        finish eng th;
        step eng);
    exnc =
      (fun e ->
        th.failed <- Some e;
        finish eng th;
        eng.turn_slot <- -1;
        raise (Thread_failure (th.tname, e)));
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) Effect.Deep.continuation -> unit) option ->
        match eff with
        | Burst -> on_burst
        | Block -> on_block
        | Yield -> on_yield
        | Sleep -> on_sleep
        | _ -> None);
  }

(* Create a thread whose first turn will run [body] under this engine's
   handler.  The thread starts Blocked and is woken immediately, so it begins
   execution at the current virtual time, after already-queued events. *)
and spawn eng ~name body : thread =
  eng.tid_counter <- eng.tid_counter + 1;
  eng.spawned <- eng.spawned + 1;
  if eng.free_top = 0 then grow_threads eng;
  eng.free_top <- eng.free_top - 1;
  let slot = eng.free.(eng.free_top) in
  let done_cond = cond_create eng in
  let rec th =
    {
      tid = eng.tid_counter;
      tname = name;
      slot;
      state = Blocked;
      need = 0;
      chunk = 0;
      run_start = 0;
      on_core = false;
      core = -1;
      last_core = -1;
      cont = None;
      kont = kont_nil;
      pending = 0;
      busy_ns = 0;
      wake_at = 0;
      wait_cond = done_cond (* until a [Block] stages another *);
      ev_seq = -1;
      done_cond;
      failed = None;
      self_opt = Some th;
    }
  in
  eng.threads.(slot) <- th.self_opt;
  eng.live <- eng.live + 1;
  bind_installed eng;
  let m = eng.mx in
  if m != unbound then begin
    m.m_spawned.count <- m.m_spawned.count + 1;
    m.m_live_threads.level <- float_of_int eng.live
  end;
  let w = Atomic.get Observed.word in
  if w land (Observed.trace lor Observed.hb) <> 0 then begin
    let parent = match current eng with Some p -> p.tid | None -> -1 in
    if w land Observed.trace <> 0 then Trace.task_spawn ~t:eng.now ~task:th.tid ~parent ~name;
    if w land Observed.hb <> 0 && parent >= 0 then Hb.on_spawn ~parent ~child:th.tid
  end;
  (* Settle any deferred bookkeeping debt before the body returns, so a
     thread cannot exit owing virtual time. *)
  let body_settled () =
    body ();
    ignore (flush_charges eng : bool)
  in
  th.cont <- Some (fun () -> Effect.Deep.match_with body_settled () (handler eng th));
  push_wake eng eng.now th;
  th

(* ------------------------------------------------------------------ *)
(* Operations inside simulated threads.                                *)
(*                                                                     *)
(* [run] records its engine in a domain-local slot while it runs and   *)
(* restores the previous value when it returns or raises, so an engine *)
(* run from a thread of another shadows it for that call only.  The    *)
(* ambient operations find their engine there and the calling thread   *)
(* in its current turn; a condition carries its own engine.  Each is a *)
(* direct call into the engine-aware code above.                       *)
(* ------------------------------------------------------------------ *)

let running : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* The engine whose turn is running on this domain. *)
let engine () =
  match Domain.DLS.get running with
  | Some eng when eng.turn_slot >= 0 -> eng
  | _ -> not_in_thread ()

let self_opt () = match Domain.DLS.get running with Some eng -> current eng | None -> None
let self () = match self_opt () with Some th -> th | None -> not_in_thread ()

(* The core the running thread holds, else the one it last held. *)
let core_opt () =
  match Domain.DLS.get running with
  | Some eng -> (
      match current eng with
      | Some th ->
          let core = if th.core >= 0 then th.core else th.last_core in
          if core >= 0 then eng.lanes.(core) else None
      | None -> None)
  | None -> None

let now () = (engine ()).now
let compute n = if n > 0 then compute_in (engine ()) n

let yield () =
  ignore (engine () : t);
  Effect.perform Yield

let sleep_until t =
  (turn (engine ())).wake_at <- t;
  Effect.perform Sleep

let sleep dt = if dt > 0 then sleep_until (now () + dt)

let wait_on c =
  (turn c.ceng).wait_cond <- c;
  Effect.perform Block

let spawn_thread ~name body = spawn (engine ()) ~name body

(* Block the calling simulated thread until [th] finishes. *)
let join th =
  while th.state <> Finished do
    wait_on th.done_cond
  done

(* Process events until both queues are empty or virtual time would
   exceed [until].  Returns the number of events processed, burst ends
   finished by [inline_burst] included. *)
let process eng until =
  let processed = eng.processed and inlined = eng.inlined and saved = eng.turn_slot in
  eng.limit <- until;
  bind_installed eng;
  step eng;
  drive eng;
  eng.turn_slot <- saved;
  if not (Pqueue.is_empty eng.events && Pqueue.is_empty eng.coasting) then
    eng.now <- max eng.now until;
  eng.cur.push <- max_int;
  eng.cur.first <- min_int;
  eng.cur.seq <- max_int;
  account_energy eng;
  eng.processed - processed + (eng.inlined - inlined)

let run ?(until = max_int) eng =
  let outer = Domain.DLS.get running in
  Domain.DLS.set running (Some eng);
  Fun.protect ~finally:(fun () -> Domain.DLS.set running outer) (fun () -> process eng until)

(* ------------------------------------------------------------------ *)
(* Introspection used by Decima and the benchmark harness.             *)
(* ------------------------------------------------------------------ *)

let time eng = eng.now
let inlined_bursts eng = eng.inlined
let online_cores eng = eng.online
let live_threads eng = eng.live
let spawned_threads eng = eng.spawned

(* Instantaneous power draw at the current busy-core count. *)
let instant_power eng = Machine.power eng.machine ~busy:eng.busy

(* Derive joules from the integral: the idle floor draws for the whole
   elapsed window, each busy core adds [core_power] for its busy span. *)
let energy_joules eng =
  bind_installed eng;
  account_energy eng;
  (eng.machine.Machine.idle_power *. (float_of_int eng.now *. 1e-9))
  +. (eng.machine.Machine.core_power *. (float_of_int eng.busy_core_ns *. 1e-9))

(* Change the number of cores the platform makes available, modelling
   resource-availability change (Section 8.3.4).  Reducing below the current
   busy count lets running slices finish; no new assignments happen until
   enough cores drain. *)
let set_online_cores eng n =
  if n < 0 then invalid_arg "Engine.set_online_cores: negative";
  bind_installed eng;
  account_energy eng;
  eng.online <- n;
  if Trace.enabled () then Trace.emit ~t:eng.now (Event.Cores_online { cores = n });
  dispatch eng;
  compete eng

let machine eng = eng.machine

(* Convert virtual ns to seconds for reporting. *)
let seconds_of_ns ns = float_of_int ns *. 1e-9
