(* The trace invariant checker: replays an event trace and asserts the
   runtime-protocol invariants, turning any traced workload run into a
   protocol test.

   Invariants checked (violations carry the event index and time):

   - time is monotone: events are stamped with non-decreasing virtual time;
   - controller FSM (Figure 6.3): per region, the first state is INIT and
     every transition is one of
       INIT -> CALIB | MONITOR        (straight to MONITOR when a region
                                       exposes no parallel scheme)
       CALIB -> CALIB | OPT | MONITOR (CALIB -> CALIB on a config-cache hit,
                                       CALIB/OPT -> MONITOR adopting best)
       OPT -> CALIB | MONITOR
       MONITOR -> INIT                (workload/resource change re-triggers)
   - pause/resume protocol (Section 6.2): pauses and resumes of a region
     alternate; a Resume without a preceding Pause, or a Pause while
     already paused, is a violation.  A Pause may be closed by Region_stop
     (the terminate path) or left dangling by trace truncation (counted,
     not a violation);
   - channel flush (Section 4.5), with [require_flush]: every
     Pause ... Resume window contains at least one Chan_flush;
   - region lifecycle: no duplicate Region_start, no Pause/Resume/
     Dop_change after Region_stop, Ctrl/Pause/Resume only for started
     regions;
   - budget (Section 6.4.3), with [check_budget]: the thread total of every
     launch, resume, and DoP change is within the region budget recorded
     at the moment of the change.  Opt-in because administrator-selected
     mechanisms (e.g. WQT-H's Pthreads-OS oversubscription point) may
     deliberately exceed the hardware budget — the closed-loop controller
     must never do so;
   - daemon shares (Algorithm 5): every repartition grants each program at
     least one thread, and shares sum to at most the platform total
     (whenever the platform has at least one thread per program);
   - sample sanity: hook samples have non-negative task index and compute
     time, budget grants and core counts are non-negative.

   A sink that overflowed holds only a suffix of the run, in which the
   protocol context of the first events is lost; check [Sink.dropped]
   before drawing conclusions from a failing suffix trace. *)

type violation = { index : int; time : int; what : string }

type stats = {
  events : int;
  regions : int;  (* distinct regions observed *)
  ctrl_transitions : int;  (* Ctrl_state events *)
  pauses : int;
  resumes : int;
  dop_changes : int;
  flushes : int;
  repartitions : int;
  hook_samples : int;
  dangling_pauses : int;  (* pauses open at end of trace (truncation) *)
}

let violation_to_string v =
  Printf.sprintf "[%d] t=%d: %s" v.index v.time v.what

let violations_to_string vs = String.concat "\n" (List.map violation_to_string vs)

(* Per-region protocol state accumulated during replay. *)
type region_state = {
  mutable started : bool;
  mutable stopped : bool;
  mutable paused : bool;
  mutable ctrl : Event.ctrl_state option;
  mutable flushes_at_pause : int;  (* global flush count when Pause seen *)
}

let fresh_region () =
  { started = false; stopped = false; paused = false; ctrl = None; flushes_at_pause = 0 }

let fsm_ok (from : Event.ctrl_state) (to_ : Event.ctrl_state) =
  match (from, to_) with
  | Event.Init, (Event.Calibrate | Event.Monitor) -> true
  | Event.Calibrate, (Event.Calibrate | Event.Optimize | Event.Monitor) -> true
  | Event.Optimize, (Event.Calibrate | Event.Monitor) -> true
  | Event.Monitor, Event.Init -> true
  | _ -> false

let check ?(require_flush = false) ?(check_budget = false) events =
  let regions : (string, region_state) Hashtbl.t = Hashtbl.create 7 in
  let state_of region =
    match Hashtbl.find_opt regions region with
    | Some s -> s
    | None ->
        let s = fresh_region () in
        Hashtbl.add regions region s;
        s
  in
  let violations = ref [] in
  let n = ref 0 in
  let ctrl_transitions = ref 0 and pauses = ref 0 and resumes = ref 0 in
  let dop_changes = ref 0 and flushes = ref 0 and repartitions = ref 0 in
  let hook_samples = ref 0 in
  let prev_time = ref min_int in
  List.iter
    (fun { Event.t; kind } ->
      let index = !n in
      incr n;
      let bad fmt = Printf.ksprintf (fun what -> violations := { index; time = t; what } :: !violations) fmt in
      if t < !prev_time then bad "time went backwards (%d after %d)" t !prev_time;
      prev_time := max !prev_time t;
      match kind with
      | Event.Region_start { region; threads; budget; _ } ->
          let s = state_of region in
          if s.started && not s.stopped then bad "duplicate region_start for %s" region
          else begin
            (* A stopped name may be reused by a later region. *)
            Hashtbl.replace regions region
              { (fresh_region ()) with started = true }
          end;
          if threads < 1 then bad "region %s launched with %d threads" region threads;
          if check_budget && threads > budget then
            bad "region %s launched with %d threads over budget %d" region threads budget
      | Event.Region_stop { region } ->
          let s = state_of region in
          if not s.started then bad "region_stop for %s without region_start" region
          else if s.stopped then bad "duplicate region_stop for %s" region;
          s.stopped <- true;
          (* A stop closes any open pause (the terminate path). *)
          s.paused <- false
      | Event.Ctrl_state { region; state } ->
          incr ctrl_transitions;
          let s = state_of region in
          (match s.ctrl with
          | None ->
              if state <> Event.Init then
                bad "controller for %s started in %s, not INIT" region
                  (Event.ctrl_state_to_string state)
          | Some prev ->
              if not (fsm_ok prev state) then
                bad "controller for %s made illegal transition %s -> %s" region
                  (Event.ctrl_state_to_string prev)
                  (Event.ctrl_state_to_string state));
          s.ctrl <- Some state
      | Event.Pause { region } ->
          incr pauses;
          let s = state_of region in
          if not s.started then bad "pause of unstarted region %s" region;
          if s.stopped then bad "pause of stopped region %s" region;
          if s.paused then bad "pause of already-paused region %s" region;
          s.paused <- true;
          s.flushes_at_pause <- !flushes
      | Event.Resume { region; threads; _ } ->
          incr resumes;
          let s = state_of region in
          if s.stopped then bad "resume of stopped region %s" region;
          if not s.paused then bad "resume of %s without a matching pause" region;
          if require_flush && s.paused && !flushes <= s.flushes_at_pause then
            bad "resume of %s with no channel flush since its pause" region;
          if threads < 1 then bad "resume of %s with %d threads" region threads;
          s.paused <- false
      | Event.Dop_change { region; old_dop; new_dop; budget; light; _ } ->
          incr dop_changes;
          let s = state_of region in
          if s.stopped then bad "dop_change on stopped region %s" region;
          if light && s.paused then bad "light resize of %s while paused" region;
          if (not light) && not s.paused then
            bad "non-light dop_change of %s outside a pause window" region;
          if new_dop < 1 then bad "dop_change of %s to %d threads" region new_dop;
          if old_dop < 1 then bad "dop_change of %s from %d threads" region old_dop;
          if check_budget && new_dop > budget then
            bad "dop_change of %s to %d threads over budget %d" region new_dop budget
      | Event.Chan_flush { dropped; _ } ->
          incr flushes;
          if dropped < 0 then bad "chan_flush with negative dropped count %d" dropped
      | Event.Budget_grant { region; budget } ->
          if budget < 1 then bad "budget_grant of %d to %s" budget region
      | Event.Daemon_repartition { shares; total } ->
          incr repartitions;
          let sum = List.fold_left (fun acc (_, b) -> acc + b) 0 shares in
          List.iter
            (fun (p, b) -> if b < 1 then bad "daemon granted %s only %d threads" p b)
            shares;
          if List.length shares <= total && sum > total then
            bad "daemon shares sum to %d > total %d" sum total
      | Event.Hook_sample { task; dt_ns } ->
          incr hook_samples;
          if task < 0 then bad "hook_sample with task index %d" task;
          if dt_ns < 0 then bad "hook_sample with negative compute time %d" dt_ns
      | Event.Feature_sample _ -> ()
      | Event.Cores_online { cores } ->
          if cores < 0 then bad "cores_online with %d cores" cores
      | Event.Trace_overflow { dropped } ->
          if dropped <= 0 then bad "trace_overflow marker with %d dropped" dropped
      | Event.Span_overflow { dropped } ->
          if dropped <= 0 then bad "span_overflow marker with %d dropped" dropped
      | Event.Task_spawn { task; parent; _ } ->
          if task < 0 then bad "task_spawn with task id %d" task;
          if parent < -1 then bad "task_spawn with parent id %d" parent
      | Event.Task_done { task; busy_ns } ->
          if task < 0 then bad "task_done with task id %d" task;
          if busy_ns < 0 then bad "task_done with negative busy time %d" busy_ns
      | Event.Chan_send_ev { seq; busy_ns; _ } | Event.Chan_recv_ev { seq; busy_ns; _ } ->
          if seq < 0 then bad "channel event with sequence number %d" seq;
          if busy_ns < 0 then bad "channel event with negative busy time %d" busy_ns
      | Event.Steal_ev { task; from_lane; to_lane } ->
          if task < 0 then bad "steal with task id %d" task;
          if from_lane < 0 || to_lane < 0 then
            bad "steal between lanes %d -> %d" from_lane to_lane)
    events;
  let dangling =
    Hashtbl.fold (fun _ s acc -> if s.paused then acc + 1 else acc) regions 0
  in
  match List.rev !violations with
  | [] ->
      Ok
        {
          events = !n;
          regions = Hashtbl.length regions;
          ctrl_transitions = !ctrl_transitions;
          pauses = !pauses;
          resumes = !resumes;
          dop_changes = !dop_changes;
          flushes = !flushes;
          repartitions = !repartitions;
          hook_samples = !hook_samples;
          dangling_pauses = dangling;
        }
  | vs -> Error vs
