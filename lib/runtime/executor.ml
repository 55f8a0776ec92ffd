(* The Morta executor (Chapters 3 and 6).

   Morta owns the worker threads of every region.  Each worker runs the
   task-instance loop of Algorithm 2: invoke the task functor; on
   [task_iterating] count the instance and continue; on [task_paused] or
   [task_complete] park and exit.  Parking
   decrements the region's active-worker count under the region monitor;
   the last worker out broadcasts [parked], which a pause waits on.
   Reconfiguration (Section 6.2) pauses the region at a consistent state,
   applies a new configuration — possibly a different parallelization
   scheme — and relaunches workers. *)

module Engine = Parcae_platform.Engine
module Config = Parcae_core.Config
module Task = Parcae_core.Task
module Task_status = Parcae_core.Task_status
module Trace = Parcae_obs.Trace
module Event = Parcae_obs.Event
module Metrics = Parcae_obs.Metrics
module Ledger = Parcae_obs.Ledger
module Timeline = Parcae_obs.Timeline
module Hb = Parcae_obs.Hb
module Span = Parcae_obs.Span
module Lane_name = Parcae_util.Lane_name

(* Pause and reconfiguration are rare (controller-period) events, so their
   metrics go through the registry's family lookup directly instead of a
   cached handle record. *)
let note_pause (r : Region.t) ~t0 =
  if Metrics.enabled () then
    Metrics.observe_summary
      (Metrics.summary (Metrics.current ()) "parcae_exec_pause_ns"
         ~labels:[ ("region", r.Region.name) ]
         ~help:"Virtual time from pause request until all workers parked.")
      (Engine.time r.Region.eng - t0)

let note_reconfig (r : Region.t) ~kind ~t0 =
  if Metrics.enabled () then begin
    let reg = Metrics.current () in
    let labels = [ ("region", r.Region.name); ("kind", kind) ] in
    Metrics.inc
      (Metrics.counter reg "parcae_exec_reconfigs_total" ~labels
         ~help:"Applied reconfigurations by kind (light = barrier-less).");
    Metrics.observe_summary
      (Metrics.summary reg "parcae_exec_reconfig_ns" ~labels
         ~help:"Virtual time each reconfiguration took end to end.")
      (Engine.time r.Region.eng - t0)
  end

(* Attribute [ns] of reconfiguration time to [phase] for the overhead
   ledger (Chapter 7 decomposition: signal propagation, barrier wait,
   channel flush, task restart). *)
let note_phase (r : Region.t) ~phase ns =
  Ledger.note ~t:(Engine.time r.Region.eng) ~region:r.Region.name ~phase ns

(* Explain measured control-plane time (pause protocol, flush window) as
   Reconfig on the lane executing it.  Works without the overhead ledger:
   the timeline's install cell is its own switch. *)
let tl_reconfig ns =
  if ns > 0 && Timeline.enabled () then
    match Engine.current_lane () with
    | Some lane -> ignore (Timeline.record_attribute ~lane Timeline.Reconfig ns)
    | None -> ()

(* Mark the region Done, emit the trace event, and wake joiners — the
   single exit point for both completion paths and [terminate].  Runs
   under the region's control-plane monitor (reentrant, so callers that
   already hold it are fine). *)
let finish_region (r : Region.t) =
  Engine.locked r.Region.mon (fun () ->
      (* A reconfiguration interrupted by completion never closes its phases. *)
      r.Region.reconfig_t0 <- -1;
      r.Region.first_park_at <- -1;
      r.Region.restart_mark <- -1;
      r.Region.status <- Region.Done;
      if Trace.enabled () then
        Trace.emit ~t:(Engine.time r.Region.eng)
          (Event.Region_stop { region = r.Region.name });
      Engine.broadcast r.Region.finished)

(* A worker thread is named "<owner>/<task>.<lane>", where the owner is
   the region or the nested descriptor: the prefix is built once per task
   and each lane appended to it. *)
let worker_prefix owner (task : Task.t) = String.concat "" [ owner; "/"; task.Task.name; "." ]

(* ------------------------------------------------------------------ *)
(* Nested (inner-loop) regions: fixed configuration, run to completion. *)
(* ------------------------------------------------------------------ *)

(* Execute descriptor [pd] under [cfg] and return when every worker has
   completed.  Inner regions are not independently reconfigurable: the outer
   task re-launches them with a new configuration on its next instance,
   which is exactly how DoP changes reach inner loops in the paper's
   transcoding example. *)
let rec run_subregion eng (pd : Task.par_descriptor) (cfg : Config.t) =
  let tasks = Array.of_list pd.Task.tasks in
  if Array.length cfg.Config.tasks <> Array.length tasks then
    invalid_arg ("run_subregion " ^ pd.Task.pd_name ^ ": config arity mismatch");
  let threads = ref [] in
  Array.iteri
    (fun i task ->
      let tc = cfg.Config.tasks.(i) in
      let prefix = worker_prefix pd.Task.pd_name task in
      for lane = 0 to tc.Config.dop - 1 do
        let th =
          Engine.spawn eng ~name:(Lane_name.append prefix lane) (fun () ->
              subregion_worker eng task tc lane)
        in
        threads := th :: !threads
      done)
    tasks;
  List.iter Engine.join (List.rev !threads)

and subregion_worker eng task tc lane =
  Option.iter (fun f -> f ()) task.Task.init;
  let continue_ = ref true in
  (* One context per worker activation, reused across instances: the
     per-instance fast path must not allocate (DESIGN.md section 14). *)
  let ctx =
    {
      Task.lane;
      dop = tc.Config.dop;
      iter = 0;
      items = -1;
      get_status = (fun () -> Task_status.Iterating);
      hook_begin = ignore;
      hook_end = ignore;
      nested_cfg = tc.Config.nested;
      run_nested = (fun inner -> run_nested eng task inner);
    }
  in
  while !continue_ do
    ctx.Task.items <- -1;
    match task.Task.body ctx with
    | Task_status.Iterating -> ctx.Task.iter <- ctx.Task.iter + 1
    | Task_status.Paused | Task_status.Complete -> continue_ := false
  done

(* Instantiate and run the nested descriptor [cfg.choice] of [task]. *)
and run_nested eng (task : Task.t) (cfg : Config.t) =
  match List.nth_opt task.Task.nested cfg.Config.choice with
  | None -> invalid_arg (task.Task.name ^ ": nested choice out of range")
  | Some nc ->
      let pd = nc.Task.nc_make () in
      run_subregion eng pd cfg

(* ------------------------------------------------------------------ *)
(* Top-level managed regions.                                          *)
(* ------------------------------------------------------------------ *)

(* One worker executing lane [lane] of task [idx] under the region's
   current configuration.  When its task pauses, completes, or retires (a
   light resize shrank its lane away), the worker exits; the last active
   worker publishes the region's new status and wakes Morta. *)
(* Sanitizer edges for the region's park protocol: every worker releases
   into the region clock as it parks, and whoever waits the parks out
   (pause, await) acquires it.  Workers started afterwards inherit the
   joined clock through their spawn edge, so work before a reconfiguration
   happens-before work after it — the full-pause barrier, expressed
   causally.  The barrier-less light resize deliberately has no such edge:
   it provides no cross-lane ordering, and legal light-resizable schemes
   need none. *)
let hb_release r =
  if Hb.enabled () then
    let task = Engine.current_task_id () in
    if task >= 0 then Hb.on_release ~task ~key:r.Region.hb_key

let hb_acquire r =
  if Hb.enabled () then
    let task = Engine.current_task_id () in
    if task >= 0 then Hb.on_acquire ~task ~key:r.Region.hb_key

let region_worker (r : Region.t) (task : Task.t) idx tc lane =
  Option.iter (fun f -> f ()) task.Task.init;
  let slot = Decima.make_slot () in
  let outcome = ref Task_status.Complete in
  let continue_ = ref true in
  (* One context per worker activation, reused across instances: the
     per-instance fast path must not allocate a record or closures
     (DESIGN.md section 14).  [iter] and [items] are the mutable fields. *)
  let ctx =
    {
      Task.lane;
      dop = tc.Config.dop;
      iter = 0;
      items = -1;
      get_status =
        (fun () -> if r.Region.pause_requested then Task_status.Paused else Task_status.Iterating);
      hook_begin = (fun () -> Decima.hook_begin r.Region.decima slot);
      hook_end = (fun () -> Decima.hook_end r.Region.decima ~task:idx slot);
      nested_cfg = tc.Config.nested;
      run_nested = (fun inner -> run_nested r.Region.eng task inner);
    }
  in
  while !continue_ do
    ctx.Task.items <- -1;
    let status = task.Task.body ctx in
    (* Batch-draining bodies report their processed-item count through
       [ctx.items] regardless of status (a batch cut short by a sentinel
       still processed its prefix); classic bodies leave it at -1 and are
       counted one instance per Iterating, as before. *)
    if ctx.Task.items >= 0 then Decima.tick_n r.Region.decima idx ctx.Task.items
    else if status = Task_status.Iterating then Decima.tick r.Region.decima idx;
    match status with
    | Task_status.Iterating ->
        (* First completed iteration after a resume closes the restart and
           total phases of the reconfiguration being measured.  The plain
           read keeps the per-iteration fast path monitor-free (it is -1
           outside measured reconfigurations); the claim itself re-checks
           under the monitor so exactly one worker reports. *)
        if r.Region.restart_mark >= 0 then
          Engine.locked r.Region.mon (fun () ->
              let mark = r.Region.restart_mark in
              if mark >= 0 then begin
                r.Region.restart_mark <- -1;
                let t0r = r.Region.reconfig_t0 in
                r.Region.reconfig_t0 <- -1;
                let now = Engine.time r.Region.eng in
                note_phase r ~phase:"restart" (now - mark);
                if t0r >= 0 then note_phase r ~phase:"total" (now - t0r)
              end);
        ctx.Task.iter <- ctx.Task.iter + 1
    | Task_status.Paused ->
        outcome := Task_status.Paused;
        continue_ := false
    | Task_status.Complete ->
        outcome := Task_status.Complete;
        continue_ := false
  done;
  (* The park transition runs under the control-plane monitor: worker
     counting, the first-park ledger stamp and the last-worker status
     decision must be atomic against pause/resume and each other. *)
  Engine.locked r.Region.mon (fun () ->
      hb_release r;
      if !outcome = Task_status.Complete && idx = 0 then r.Region.master_completed <- true;
      (* Overhead ledger: the first worker to park dates the end of signal
         propagation (pause request -> first park). *)
      if r.Region.pause_requested && r.Region.reconfig_t0 >= 0 && r.Region.first_park_at < 0
      then r.Region.first_park_at <- Engine.time r.Region.eng;
      r.Region.active_workers <- r.Region.active_workers - 1;
      if r.Region.active_workers = 0 then begin
        (* Last worker out: decide what the park means. *)
        if r.Region.master_completed && not r.Region.pause_requested then finish_region r
        else if r.Region.pause_requested then r.Region.status <- Region.Paused
        else
          (* All tasks completed without an explicit pause: region is done. *)
          finish_region r;
        Engine.broadcast r.Region.parked
      end)

(* Spawn one worker for lane [lane] of task [idx], named from the task's
   [prefix] ([worker_prefix]).  Caller holds the region monitor, so the
   active-worker count is raised before any spawned worker can run its
   park transition. *)
let spawn_worker (r : Region.t) (task : Task.t) idx tc ~prefix lane =
  r.Region.active_workers <- r.Region.active_workers + 1;
  r.Region.worker_count <- r.Region.worker_count + 1;
  ignore
    (Engine.spawn r.Region.eng ~name:(Lane_name.append prefix lane) (fun () ->
         region_worker r task idx tc lane))

(* Spawn the worker teams for the region's current configuration.  The
   whole launch — counting every lane and publishing Running — is one
   critical section, so a worker that finishes instantly cannot observe a
   half-started region (its park transition blocks on the monitor until
   the full team is counted). *)
let start_workers (r : Region.t) =
  Engine.locked r.Region.mon (fun () ->
      let pd = Region.scheme r in
      let tasks = Array.of_list pd.Task.tasks in
      let cfg = r.Region.config in
      r.Region.worker_count <- 0;
      Array.iteri
        (fun i task ->
          let tc = cfg.Config.tasks.(i) in
          let prefix = worker_prefix r.Region.name task in
          for lane = 0 to tc.Config.dop - 1 do
            spawn_worker r task i tc ~prefix lane
          done)
        tasks;
      r.Region.status <- Region.Running)

(* Launch a region: validate, create, start workers.  Must be called either
   from outside the engine (before [Engine.run]) or from a simulated
   thread. *)
let launch ?budget ?on_pause ?on_reset ~name eng schemes config =
  let r = Region.create ?budget ?on_pause ?on_reset ~name eng schemes config in
  start_workers r;
  r

(* Signal the region to pause and block until every worker has parked.
   Returns [true] if the region parked in [Paused] (safe to reconfigure),
   [false] if it raced to completion.  Must run on a simulated thread that
   is not one of the region's workers (the Morta executive). *)
let pause (r : Region.t) =
  Engine.locked r.Region.mon (fun () ->
      match r.Region.status with
      | Region.Done -> false
      | Region.Paused -> true
      | Region.Init | Region.Pausing -> invalid_arg "Executor.pause: bad region state"
      | Region.Running ->
          let t0 = Engine.time r.Region.eng in
          if Ledger.active () then begin
            r.Region.reconfig_t0 <- t0;
            r.Region.first_park_at <- -1
          end;
          r.Region.pause_requested <- true;
          r.Region.status <- Region.Pausing;
          if Trace.enabled () then
            Trace.emit ~t:t0 (Event.Pause { region = r.Region.name });
          (* on_pause injects wake-up sentinels: channel monitors nest
             inside the region monitor (never the reverse), so this is
             deadlock-free. *)
          Option.iter (fun f -> f ()) r.Region.on_pause;
          while r.Region.status = Region.Pausing do
            (* Releases the region monitor while waiting, so workers can
               run their park transitions. *)
            Engine.wait_on r.Region.parked
          done;
          hb_acquire r;
          r.Region.pause_wait_ns <- r.Region.pause_wait_ns + (Engine.time r.Region.eng - t0);
          note_pause r ~t0;
          tl_reconfig (Engine.time r.Region.eng - t0);
          (* Requests in flight during this pause window were stalled, not
             waiting on work: feed the window to the span accumulator so
             completion-time carving can re-attribute it as Reconfig. *)
          Span.note_stall (Engine.time r.Region.eng - t0);
          let parked = r.Region.status = Region.Paused in
          if r.Region.reconfig_t0 >= 0 then
            if parked then begin
              let now = Engine.time r.Region.eng in
              let fp = if r.Region.first_park_at >= 0 then r.Region.first_park_at else now in
              note_phase r ~phase:"signal" (fp - t0);
              note_phase r ~phase:"barrier" (now - fp)
            end
            else r.Region.reconfig_t0 <- -1;
          parked)

(* Resume a paused region, optionally under a new configuration. *)
let resume ?config (r : Region.t) =
 Engine.locked r.Region.mon @@ fun () ->
  (match r.Region.status with
  | Region.Paused -> ()
  | _ -> invalid_arg "Executor.resume: region not paused");
  let prev_config = r.Region.config in
  let tl0 = if Timeline.enabled () then Engine.time r.Region.eng else min_int in
  let sp0 = if Span.enabled () then Engine.time r.Region.eng else min_int in
  let flush0 = if Ledger.active () then Engine.time r.Region.eng else min_int in
  (match config with
  | None -> ()
  | Some cfg ->
      if cfg.Config.choice < 0 || cfg.Config.choice >= List.length r.Region.schemes then
        invalid_arg "Executor.resume: config.choice out of range";
      Task.validate_config (List.nth r.Region.schemes cfg.Config.choice) cfg;
      if cfg.Config.choice <> r.Region.config.Config.choice then begin
        r.Region.scheme_switches <- r.Region.scheme_switches + 1;
        Decima.reset r.Region.decima ~tasks:(Array.length cfg.Config.tasks);
        let pd = List.nth r.Region.schemes cfg.Config.choice in
        Decima.set_names r.Region.decima ~region:r.Region.name ~scheme:pd.Task.pd_name
          ~tasks:(Array.of_list (List.map (fun (tk : Task.t) -> tk.Task.name) pd.Task.tasks))
      end;
      r.Region.config <- cfg);
  Option.iter (fun f -> f ()) r.Region.on_reset;
  (* The flush phase covers channel draining and statistics resets done
     while the region is quiescent. *)
  if flush0 > min_int then note_phase r ~phase:"flush" (Engine.time r.Region.eng - flush0);
  r.Region.pause_requested <- false;
  r.Region.master_completed <- false;
  r.Region.reconfig_count <- r.Region.reconfig_count + 1;
  if Trace.enabled () then begin
    let t = Engine.time r.Region.eng in
    let cfg = r.Region.config in
    if not (Config.equal cfg prev_config) then
      Trace.emit ~t
        (Event.Dop_change
           {
             region = r.Region.name;
             scheme = Region.scheme_name r;
             old_dop = Config.threads prev_config;
             new_dop = Config.threads cfg;
             budget = Region.budget r;
             light = false;
           });
    Trace.emit ~t
      (Event.Resume
         { region = r.Region.name; scheme = Region.scheme_name r; threads = Config.threads cfg })
  end;
  start_workers r;
  if tl0 > min_int then tl_reconfig (Engine.time r.Region.eng - tl0);
  if sp0 > min_int then Span.note_stall (Engine.time r.Region.eng - sp0);
  (* Restart phase: from here until the first worker completes an
     iteration (closed in [region_worker]). *)
  if Ledger.active () then r.Region.restart_mark <- Engine.time r.Region.eng

(* Whether [cfg] differs from the current configuration only in the DoPs
   of top-level tasks (same scheme, same nested choices). *)
let dop_only_change (r : Region.t) (cfg : Config.t) =
  let cur = r.Region.config in
  cfg.Config.choice = cur.Config.choice
  && Array.length cfg.Config.tasks = Array.length cur.Config.tasks
  && Array.for_all2
       (fun (a : Config.task_config) (b : Config.task_config) ->
         match (a.Config.nested, b.Config.nested) with
         | None, None -> true
         | Some x, Some y -> Config.equal x y
         | _ -> false)
       cfg.Config.tasks cur.Config.tasks

(* Barrier-less DoP reconfiguration (Section 7.2): grown tasks get extra
   workers immediately; shrunk tasks retire their excess lanes at the
   epoch boundary the code generator's resize hook establishes.  The
   sequential stages never stop.  Only valid for DoP-only changes on a
   scheme whose generated code installed a resize hook ([on_resize]). *)
let resize (r : Region.t) cfg =
 Engine.locked r.Region.mon @@ fun () ->
  (match r.Region.status with
  | Region.Running when not r.Region.master_completed -> ()
  | _ -> invalid_arg "Executor.resize: region not running");
  if not (dop_only_change r cfg) then invalid_arg "Executor.resize: not a DoP-only change";
  Task.validate_config (Region.scheme r) cfg;
  let prev_config = r.Region.config in
  r.Region.config <- cfg;
  r.Region.light_resizes <- r.Region.light_resizes + 1;
  if Trace.enabled () then
    Trace.emit ~t:(Engine.time r.Region.eng)
      (Event.Dop_change
         {
           region = r.Region.name;
           scheme = Region.scheme_name r;
           old_dop = Config.threads prev_config;
           new_dop = Config.threads cfg;
           budget = Region.budget r;
           light = true;
         });
  (* The hook stamps the epoch boundary (the in-band tokens follow when the
     master crosses it) and says which lanes need new workers; lanes whose
     previous worker has not retired yet simply continue into the new
     epoch. *)
  let spawns = match r.Region.on_resize with Some f -> f cfg | None -> [] in
  let pd = Region.scheme r in
  let tasks = Array.of_list pd.Task.tasks in
  List.iter
    (fun (i, lane) ->
      let task = tasks.(i) in
      spawn_worker r task i cfg.Config.tasks.(i) ~prefix:(worker_prefix r.Region.name task) lane)
    spawns

(* The full reconfiguration sequence of Section 6.2: pause, swap the
   configuration, resume.  No-op if the region completed meanwhile.  If the
   new configuration equals the current one the region is left running;
   DoP-only changes on a light-resizable scheme avoid the barrier
   entirely (Section 7.2). *)
let reconfigure (r : Region.t) cfg =
 (* The whole decision + action sequence holds the control-plane monitor
    (released while [pause] waits for parks), so the status read cannot
    race a concurrent completion into an [invalid_arg]. *)
 Engine.locked r.Region.mon @@ fun () ->
  if not (Region.is_done r) && not (Config.equal cfg r.Region.config) then begin
    let t0 = Engine.time r.Region.eng in
    if
      Option.is_some r.Region.on_resize
      && r.Region.status = Region.Running
      && (not r.Region.master_completed)
      && dop_only_change r cfg
    then begin
      resize r cfg;
      note_reconfig r ~kind:"light" ~t0
    end
    else if pause r then begin
      resume ~config:cfg r;
      note_reconfig r ~kind:"full" ~t0
    end
  end

(* Block until the region completes. *)
let await (r : Region.t) =
  Engine.locked r.Region.mon (fun () ->
      while r.Region.status <> Region.Done do
        Engine.wait_on r.Region.finished
      done;
      hb_acquire r)

(* Pause the region and terminate it without resuming (used to shut an
   experiment down cleanly). *)
let terminate (r : Region.t) = if pause r then finish_region r
