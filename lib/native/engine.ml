(* The native OCaml 5 multicore engine: a work-stealing fiber scheduler.

   Tasks are effect-based fibers, not systhreads.  Each pool domain runs a
   scheduler loop over a private Chase–Lev deque ([Deque]): the owner
   pushes and pops LIFO for locality, idle domains steal FIFO from victims
   chosen in randomized order, and a domain that finds nothing backs off
   exponentially to an idle park (short sleeps bounded by the next timer
   deadline).  A blocking operation — condition wait, sleep, join — does
   not block the domain: it performs the [Suspend] effect, the scheduler
   captures the fiber's continuation, and a later [signal]/timer/finish
   re-enqueues it, possibly on a different domain.

   There is no big runtime lock.  The engine's own shared state is a set
   of atomics (live/spawned/completed counters, shutdown flag, steal
   statistics) plus two small mutexes with disjoint footprints: the
   global injection queue (spawns and wake-ups from outside the pool) and
   the timer list.  Synchronisation *between* tasks lives in the
   structures that need it — each channel, lock and region carries its
   own [Monitor] — so the data plane of one structure never contends with
   another's.

   Consequence for client code: unlike the PR-4 big-lock engine, task code
   is NOT serialized between blocking points.  Shared mutable state must
   be protected by a [Monitor], atomics, or the channel operations; the
   runtime layer (executor, region, pipeline bookkeeping) does exactly
   that. *)

module Metrics = Parcae_obs.Metrics
module Trace = Parcae_obs.Trace
module Event = Parcae_obs.Event
module Timeline = Parcae_obs.Timeline
module Hb = Parcae_obs.Hb

type task = {
  tid : int;
  tname : string;
  eng : t;
  mutable busy_ns : int;  (* fiber-local; published by the scheduler handoff *)
  mutable unyielded_ns : int;
      (* compute ns since this fiber last gave up its domain; drives the
         cooperative preemption point in [compute] *)
  mutable finished : bool;  (* guarded by jmu *)
  mutable failed : exn option;  (* guarded by jmu *)
  jmu : Mutex.t;
  jcv : Condition.t;  (* wakes system-thread joiners *)
  mutable joiners : (unit -> unit) list;  (* fiber joiners, guarded by jmu *)
}

and runnable = { rtask : task; exec : unit -> unit }

and t = {
  pool : int;
  deques : runnable Deque.t array;  (* one per pool domain *)
  mutable domains : unit Domain.t list;
  (* Injection queue: work arriving from outside the pool (initial spawns,
     wake-ups from system threads, fiber yields for FIFO fairness). *)
  inj_mu : Mutex.t;
  inj_q : runnable Queue.t;
  inj_len : int Atomic.t;
  (* Timers for sleeping fibers: (deadline, resume), deadline-sorted. *)
  tim_mu : Mutex.t;
  mutable timers : (int * (unit -> unit)) list;
  tim_len : int Atomic.t;
  (* Sharded engine state: one atomic per concern, no shared lock. *)
  stop : bool Atomic.t;
  live : int Atomic.t;
  spawned : int Atomic.t;
  completed : int Atomic.t;
  online : int Atomic.t;
  next_tid : int Atomic.t;
  steals : int Atomic.t;
  steal_attempts : int Atomic.t;
  failure : (string * exn) option Atomic.t;  (* first failure wins, via CAS *)
  (* External waiters ([run] on a system thread). *)
  drain_mu : Mutex.t;
  drain_cv : Condition.t;
  t0 : int;  (* monotonic ns at creation *)
}

exception Thread_failure of string * exn

(* ------------------------------------------------------------------ *)
(* Worker identity.                                                    *)
(* ------------------------------------------------------------------ *)

type sched_metrics = {
  sm_steals : Metrics.counter;
  sm_attempts : Metrics.counter;
  sm_depth : Metrics.gauge array;  (* one labeled gauge per pool deque *)
}

type worker = {
  wid : int;
  weng : t;
  wdeque : runnable Deque.t;
  wrng : Random.State.t;  (* randomized steal order *)
  mutable cur : task option;  (* fiber currently executing on this domain *)
  mutable wmx : (Metrics.t * sched_metrics) option;
  mutable last_sample : int;  (* engine ns of the last periodic metric sweep *)
}

let worker_key : worker option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let self_opt () =
  match Domain.DLS.get worker_key with Some w -> w.cur | None -> None

let in_fiber () = self_opt () <> None

let worker_id_opt () =
  match Domain.DLS.get worker_key with Some w -> Some w.wid | None -> None

(* Timeline transition for this worker's lane: one load when disabled. *)
let tl_enter eng wid st =
  match Timeline.get () with
  | Some tl when wid < Timeline.lanes tl ->
      Timeline.enter tl ~lane:wid ~now:(Calibrate.now_ns () - eng.t0) st
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Scheduling.                                                         *)
(* ------------------------------------------------------------------ *)

type _ Effect.t +=
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t
  | Yield_fiber : unit Effect.t

let suspend f = Effect.perform (Suspend f)

let inject eng r =
  Mutex.lock eng.inj_mu;
  Queue.push r eng.inj_q;
  Atomic.incr eng.inj_len;
  Mutex.unlock eng.inj_mu

(* Enqueue a runnable: onto the calling worker's own deque when the caller
   is a pool domain of this engine, otherwise onto the injection queue. *)
let schedule eng r =
  match Domain.DLS.get worker_key with
  | Some w when w.weng == eng -> Deque.push w.wdeque r
  | _ -> inject eng r

let take_inject eng =
  if Atomic.get eng.inj_len = 0 then None
  else begin
    Mutex.lock eng.inj_mu;
    let r = Queue.take_opt eng.inj_q in
    (match r with Some _ -> Atomic.decr eng.inj_len | None -> ());
    Mutex.unlock eng.inj_mu;
    r
  end

let now eng = Calibrate.now_ns () - eng.t0
let time = now

let add_timer eng deadline resume =
  Mutex.lock eng.tim_mu;
  let rec ins = function
    | [] -> [ (deadline, resume) ]
    | ((d, _) as hd) :: tl when d <= deadline -> hd :: ins tl
    | l -> (deadline, resume) :: l
  in
  eng.timers <- ins eng.timers;
  Atomic.incr eng.tim_len;
  Mutex.unlock eng.tim_mu

(* Fire due timers; their resumes enqueue the sleeping fibers. *)
let poll_timers eng =
  if Atomic.get eng.tim_len = 0 then false
  else begin
    let t = now eng in
    Mutex.lock eng.tim_mu;
    let due, rest = List.partition (fun (d, _) -> d <= t) eng.timers in
    eng.timers <- rest;
    List.iter (fun _ -> Atomic.decr eng.tim_len) due;
    Mutex.unlock eng.tim_mu;
    List.iter (fun (_, resume) -> resume ()) due;
    due <> []
  end

let next_deadline eng =
  if Atomic.get eng.tim_len = 0 then None
  else begin
    Mutex.lock eng.tim_mu;
    let d = match eng.timers with [] -> None | (d, _) :: _ -> Some d in
    Mutex.unlock eng.tim_mu;
    d
  end

(* ------------------------------------------------------------------ *)
(* Task lifecycle.                                                     *)
(* ------------------------------------------------------------------ *)

let record_failure eng name e =
  ignore (Atomic.compare_and_set eng.failure None (Some (name, e)) : bool)

let wake_drain eng =
  Mutex.lock eng.drain_mu;
  Condition.broadcast eng.drain_cv;
  Mutex.unlock eng.drain_mu

let finish_task task outcome =
  let eng = task.eng in
  if Trace.enabled () then
    Trace.task_done ~t:(Calibrate.now_ns () - eng.t0) ~task:task.tid ~busy_ns:task.busy_ns;
  (* Publish the completion clock BEFORE joiners can observe [finished]. *)
  if Hb.enabled () then Hb.on_task_done ~task:task.tid;
  Mutex.lock task.jmu;
  task.failed <- outcome;
  task.finished <- true;
  let joiners = task.joiners in
  task.joiners <- [];
  Condition.broadcast task.jcv;
  Mutex.unlock task.jmu;
  (match outcome with Some e -> record_failure eng task.tname e | None -> ());
  Atomic.incr eng.completed;
  List.iter (fun resume -> resume ()) joiners;
  let was_last = Atomic.fetch_and_add eng.live (-1) = 1 in
  if was_last || outcome <> None then wake_drain eng

(* Run a fresh fiber under the scheduler's effect handler.  Deep handlers
   travel with the captured continuation, so [retc]/[exnc] fire on the
   fiber's final segment no matter which domain resumes it. *)
let run_fiber task body () =
  Effect.Deep.match_with body ()
    {
      Effect.Deep.retc = (fun () -> finish_task task None);
      exnc = (fun e -> finish_task task (Some e));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend f ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  f (fun () ->
                      schedule task.eng
                        { rtask = task; exec = (fun () -> Effect.Deep.continue k ()) }))
          | Yield_fiber ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  (* FIFO through the injection queue so a yielding fiber
                     actually cedes its domain. *)
                  inject task.eng
                    { rtask = task; exec = (fun () -> Effect.Deep.continue k ()) })
          | _ -> None);
    }

(* ------------------------------------------------------------------ *)
(* The scheduler loop.                                                 *)
(* ------------------------------------------------------------------ *)

let sched_metrics eng w =
  let reg = Metrics.current () in
  match w.wmx with
  | Some (r, h) when r == reg -> h
  | _ ->
      let h =
        {
          sm_steals =
            Metrics.counter reg "parcae_steals_total"
              ~help:"Tasks migrated between domains by work stealing.";
          sm_attempts =
            Metrics.counter reg "parcae_steal_attempts_total"
              ~help:"Steal attempts, successful or not (failed ratio = 1 - steals/attempts).";
          sm_depth =
            Array.init eng.pool (fun i ->
                Metrics.gauge reg "parcae_deque_depth"
                  ~help:"Run-queue depth per pool deque, sampled periodically."
                  ~labels:[ ("domain", string_of_int i) ]);
        }
      in
      w.wmx <- Some (reg, h);
      h

let note_steal eng w ~victim ~stolen =
  Atomic.incr eng.steals;
  if Metrics.enabled () then Metrics.inc (sched_metrics eng w).sm_steals;
  if Trace.enabled () then
    Trace.steal ~t:(Calibrate.now_ns () - eng.t0) ~task:stolen.rtask.tid ~from_lane:victim
      ~to_lane:w.wid

(* Periodic sweep, worker 0 only (single writer keeps the delta-publish of
   the attempts counter race-free): mirror the steal-attempt atomic into
   the registry and sample every deque's depth, at a ~1ms cadence. *)
let sample_period_ns = 1_000_000

let maybe_sample eng w =
  if w.wid = 0 && Metrics.enabled () then begin
    let t = Calibrate.now_ns () - eng.t0 in
    if t - w.last_sample >= sample_period_ns then begin
      w.last_sample <- t;
      let h = sched_metrics eng w in
      Metrics.inc_by h.sm_attempts
        (Atomic.get eng.steal_attempts - Metrics.counter_value h.sm_attempts);
      Array.iteri
        (fun i g -> Metrics.set_gauge_int g (Deque.size eng.deques.(i)))
        h.sm_depth
    end
  end

(* One steal sweep: random starting victim, then a linear scan.  A
   contended victim is skipped rather than retried — the next sweep
   re-randomizes. *)
let try_steal eng w =
  let n = eng.pool in
  if n <= 1 then None
  else begin
    let start = Random.State.int w.wrng n in
    let rec go i =
      if i >= n then None
      else
        let v = (start + i) mod n in
        if v = w.wid then go (i + 1)
        else begin
          Atomic.incr eng.steal_attempts;
          match Deque.steal eng.deques.(v) with
          | Deque.Stolen r ->
              note_steal eng w ~victim:v ~stolen:r;
              Some r
          | Deque.Empty | Deque.Contended -> go (i + 1)
        end
    in
    go 0
  end

let find_work eng w =
  match Deque.pop w.wdeque with
  | Some r -> Some r
  | None -> (
      let fired = poll_timers eng in
      match take_inject eng with
      | Some r -> Some r
      | None -> (
          match try_steal eng w with
          | Some r -> Some r
          | None -> if fired then Deque.pop w.wdeque else None))

let spin_rounds = 64
let max_park_ns = 1_000_000 (* 1 ms: bounds wake-up latency when fully idle *)

let sleep_ns ns =
  if ns > 0 then
    try Unix.sleepf (float_of_int ns /. 1e9)
    with Unix.Unix_error (Unix.EINTR, _, _) -> ()

let worker_loop eng wid () =
  let w =
    {
      wid;
      weng = eng;
      wdeque = eng.deques.(wid);
      wrng = Random.State.make [| 0x5eed; wid |];
      cur = None;
      wmx = None;
      last_sample = 0;
    }
  in
  Domain.DLS.set worker_key (Some w);
  let backoff = ref 0 in
  let rec loop () =
    maybe_sample eng w;
    match find_work eng w with
    | Some r ->
        backoff := 0;
        tl_enter eng wid Timeline.Run;
        w.cur <- Some r.rtask;
        (* [exec] only raises if the runtime itself is broken — fiber
           exceptions are routed to [exnc]; keep the domain alive and
           surface the error through [run]. *)
        (try r.exec () with e -> record_failure eng "scheduler" e);
        w.cur <- None;
        loop ()
    | None ->
        if Atomic.get eng.stop then ()
        else begin
          (* Exponential backoff to idle-park: spin a little for latency,
             then sleep in doubling slices capped at [max_park_ns] and at
             the next timer deadline. *)
          incr backoff;
          if !backoff <= spin_rounds then begin
            tl_enter eng wid Timeline.Steal_search;
            Domain.cpu_relax ()
          end
          else begin
            tl_enter eng wid Timeline.Park;
            let exp = Int.min 10 (!backoff - spin_rounds) in
            let park = Int.min max_park_ns (1_000 * (1 lsl exp)) in
            let park =
              match next_deadline eng with
              | Some d -> Int.max 0 (Int.min park (d - now eng))
              | None -> park
            in
            if park > 0 then sleep_ns park else Domain.cpu_relax ()
          end;
          loop ()
        end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Construction, spawning, draining.                                   *)
(* ------------------------------------------------------------------ *)

let create ?pool () =
  let pool =
    match pool with
    | Some n ->
        if n < 1 then invalid_arg "Parcae_native.Engine.create: pool must be >= 1";
        n
    | None -> Int.max 1 (Domain.recommended_domain_count () - 1)
  in
  (* Calibrate before any fiber exists so the first compute isn't skewed
     and pool domains only ever read the calibration. *)
  ignore (Calibrate.spins_per_ns () : float);
  let eng =
    {
      pool;
      deques = Array.init pool (fun _ -> Deque.create ());
      domains = [];
      inj_mu = Mutex.create ();
      inj_q = Queue.create ();
      inj_len = Atomic.make 0;
      tim_mu = Mutex.create ();
      timers = [];
      tim_len = Atomic.make 0;
      stop = Atomic.make false;
      live = Atomic.make 0;
      spawned = Atomic.make 0;
      completed = Atomic.make 0;
      online = Atomic.make pool;
      next_tid = Atomic.make 0;
      steals = Atomic.make 0;
      steal_attempts = Atomic.make 0;
      failure = Atomic.make None;
      drain_mu = Mutex.create ();
      drain_cv = Condition.create ();
      t0 = Calibrate.now_ns ();
    }
  in
  eng.domains <- List.init pool (fun i -> Domain.spawn (worker_loop eng i));
  eng

let pool_size eng = eng.pool

let spawn eng ~name body =
  if Atomic.get eng.stop then
    invalid_arg "Parcae_native.Engine.spawn: engine is shut down";
  let tid = Atomic.fetch_and_add eng.next_tid 1 in
  let task =
    {
      tid;
      tname = name;
      eng;
      busy_ns = 0;
      unyielded_ns = 0;
      finished = false;
      failed = None;
      jmu = Mutex.create ();
      jcv = Condition.create ();
      joiners = [];
    }
  in
  Atomic.incr eng.live;
  Atomic.incr eng.spawned;
  if Trace.enabled () then begin
    let parent = match self_opt () with Some p -> p.tid | None -> -1 in
    Trace.task_spawn ~t:(now eng) ~task:tid ~parent ~name
  end;
  (* The spawn edge must be published before the task is scheduled, or the
     child could start with an empty clock and report phantom races. *)
  (if Hb.enabled () then
     match self_opt () with
     | Some p -> Hb.on_spawn ~parent:p.tid ~child:tid
     | None -> ());
  schedule eng { rtask = task; exec = run_fiber task body };
  task

let run ?until eng =
  let completed0 = Atomic.get eng.completed in
  (match until with
  | None ->
      Mutex.lock eng.drain_mu;
      while Atomic.get eng.live > 0 && Atomic.get eng.failure = None do
        Condition.wait eng.drain_cv eng.drain_mu
      done;
      Mutex.unlock eng.drain_mu
  | Some deadline ->
      (* With a deadline we poll at a few-ms grain, far below any horizon
         callers use. *)
      while
        Atomic.get eng.live > 0 && Atomic.get eng.failure = None && now eng < deadline
      do
        sleep_ns 2_000_000
      done);
  let n = Atomic.get eng.completed - completed0 in
  match Atomic.get eng.failure with
  | Some (name, e) -> raise (Thread_failure (name, e))
  | None -> n

let shutdown eng =
  if not (Atomic.exchange eng.stop true) then begin
    (* Workers drain their runnable work and exit; fibers blocked on a
       condition or timer are abandoned (their continuations are simply
       dropped — no OS thread is stuck, so the domains always join). *)
    List.iter Domain.join eng.domains;
    eng.domains <- []
  end

(* ------------------------------------------------------------------ *)
(* Task-context operations.                                            *)
(* ------------------------------------------------------------------ *)

(* Fibers are cooperative: a task that computes forever without blocking
   would monopolize its domain and starve runnable fibers (the controller,
   watchers) that the old systhread engine relied on the OS to preempt.
   [compute] is the natural preemption point — after [yield_quantum_ns] of
   unyielded spin the fiber reschedules itself through the FIFO injection
   queue, bounding any runnable fiber's wait at roughly one quantum per
   busy domain. *)
let yield_quantum_ns = 200_000

let compute task n =
  if n > 0 then begin
    let dt = Calibrate.spin_ns n in
    task.busy_ns <- task.busy_ns + dt;
    task.unyielded_ns <- task.unyielded_ns + dt;
    if task.unyielded_ns >= yield_quantum_ns && in_fiber () then begin
      task.unyielded_ns <- 0;
      Effect.perform Yield_fiber
    end
  end

let yield _eng = if in_fiber () then Effect.perform Yield_fiber else Domain.cpu_relax ()

let sleep eng ns =
  if ns > 0 then
    if in_fiber () then suspend (fun resume -> add_timer eng (now eng + ns) resume)
    else sleep_ns ns

let sleep_until eng t = sleep eng (t - now eng)

let join task =
  if in_fiber () then begin
    Mutex.lock task.jmu;
    let fin = task.finished in
    Mutex.unlock task.jmu;
    if not fin then
      suspend (fun resume ->
          Mutex.lock task.jmu;
          if task.finished then begin
            Mutex.unlock task.jmu;
            resume ()
          end
          else begin
            task.joiners <- resume :: task.joiners;
            Mutex.unlock task.jmu
          end)
  end
  else begin
    Mutex.lock task.jmu;
    while not task.finished do
      Condition.wait task.jcv task.jmu
    done;
    Mutex.unlock task.jmu
  end

(* ------------------------------------------------------------------ *)
(* Monitors: the sharded replacement for the big lock.                 *)
(* ------------------------------------------------------------------ *)

module Monitor = struct
  type m = { mu : Mutex.t; mutable owner : int (* Thread.id, -1 if free *) }

  type c = {
    mon : m;
    cv : Condition.t;  (* system-thread waiters *)
    fibers : (unit -> unit) Queue.t;  (* fiber waiters, FIFO *)
  }

  let create () = { mu = Mutex.create (); owner = -1 }

  (* Ownership is only ever compared against the reader's own thread id; a
     thread observes its own writes in order, so the unsynchronized read
     cannot produce a false positive.  A fiber never suspends while
     holding a monitor (the only suspension point, [wait], releases it),
     so thread identity is a faithful proxy for fiber identity here. *)
  let me () = Thread.id (Thread.self ())
  let held m = m.owner = me ()

  let lock m =
    Mutex.lock m.mu;
    m.owner <- me ()

  let unlock m =
    m.owner <- -1;
    Mutex.unlock m.mu

  let locked m f =
    if held m then f ()
    else begin
      lock m;
      match f () with
      | v ->
          unlock m;
          v
      | exception e ->
          unlock m;
          raise e
    end

  let cond m = { mon = m; cv = Condition.create (); fibers = Queue.create () }
  let monitor_of c = c.mon

  (* Atomically release the monitor and wait; reacquire before returning.
     Mesa semantics — the caller re-checks its predicate in a loop. *)
  let wait c =
    let m = c.mon in
    if not (held m) then invalid_arg "Monitor.wait: monitor not held";
    if in_fiber () then begin
      suspend (fun resume ->
          (* Runs after the continuation is captured, on this thread:
             register, then release the monitor.  A signaler needs the
             monitor to pop us, so the wakeup cannot be lost. *)
          Queue.push resume c.fibers;
          m.owner <- -1;
          Mutex.unlock m.mu);
      lock m
    end
    else begin
      m.owner <- -1;
      Condition.wait c.cv m.mu;
      m.owner <- me ()
    end

  let signal c =
    locked c.mon (fun () ->
        match Queue.take_opt c.fibers with
        | Some resume -> resume ()
        | None -> Condition.signal c.cv)

  let broadcast c =
    locked c.mon (fun () ->
        while not (Queue.is_empty c.fibers) do
          (Queue.pop c.fibers) ()
        done;
        Condition.broadcast c.cv)
end

(* ------------------------------------------------------------------ *)
(* Introspection.                                                      *)
(* ------------------------------------------------------------------ *)

let task_engine task = task.eng
let task_id task = task.tid
let task_busy_ns task = task.busy_ns
let online_cores eng = Atomic.get eng.online
let live_threads eng = Atomic.get eng.live
let spawned_threads eng = Atomic.get eng.spawned
let steal_count eng = Atomic.get eng.steals
let steal_attempt_count eng = Atomic.get eng.steal_attempts
let instant_power _ = 0.0
let energy_joules _ = 0.0

let set_online_cores eng n = Atomic.set eng.online (Int.max 1 (Int.min eng.pool n))

let seconds_of_ns ns = float_of_int ns /. 1e9
