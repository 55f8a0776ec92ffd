(* The closed-loop run-time controller (Section 6.4).

   This is Morta's default optimization mechanism: a finite-state machine
   (Figure 6.3) that establishes a sequential baseline, calibrates each
   parallel scheme exposed by the compiler or programmer, optimizes the
   degrees of parallelism by finite-difference gradient ascent
   (Section 6.4.2, Algorithm 4), and then passively monitors for workload or
   resource change, re-entering calibration when the environment shifts.

   The controller optimizes:  maximize iteration throughput, and subject to
   that, minimize threads used (saving energy).  Optimized configurations
   are cached per (scheme, thread budget) and reused on re-entry
   (Section 6.4.2), and the thread count actually needed is reported to the
   platform-wide daemon so slack can be redistributed (Section 6.4.3). *)

module Engine = Parcae_platform.Engine
module Series = Parcae_util.Series
module Config = Parcae_core.Config
module Task = Parcae_core.Task
module Trace = Parcae_obs.Trace
module Metrics = Parcae_obs.Metrics
module Flight = Parcae_obs.Flight
module Event = Parcae_obs.Event

(* The FSM state type lives in the observability layer, which sits below
   the runtime and decodes it from traces and flight logs. *)
type state = Event.ctrl_state = Init | Calibrate | Optimize | Monitor

(* The optimization objective (Section 6.4: "Morta could be re-targeted at
   minimizing the energy delay squared product, since delay can be measured
   directly and energy can be indirectly computed from running power and
   elapsed execution time measurements"). *)
type objective =
  | Max_throughput  (* iterations/second; ties prefer fewer threads *)
  | Min_energy_delay2
      (* minimize E*D^2 per iteration = avg_power / throughput^3; the
         fitness maximized is throughput^3 / avg_power *)

type params = {
  objective : objective;
  nseq : int;  (* baseline iterations measured in Init (paper: 10) *)
  npar_factor : int;
      (* iterations measured per DoP probe = max(nseq, npar_factor * dop);
         the paper uses 2, but short iterations need longer windows to
         smooth round-quantization noise *)
  poll_ns : int;  (* polling granularity while waiting for iterations *)
  monitor_ns : int;  (* sampling period in the Monitor state *)
  change_frac : float;  (* relative throughput change that re-triggers *)
  max_monitor_rounds : int;  (* 0 = unlimited *)
}

(* Profitability: a scheme's parallel efficiency (throughput over threads
   times sequential throughput) must clear this floor, else the scheme is
   not worth its threads. *)
let efficiency_floor = 0.5

let default_params =
  {
    objective = Max_throughput;
    nseq = 10;
    npar_factor = 2;
    poll_ns = 20_000;
    monitor_ns = 50_000_000;
    change_frac = 0.25;
    max_monitor_rounds = 0;
  }

type t = {
  region : Region.t;
  params : params;
  mutable state : state;
  mutable state_since : int;  (* virtual time of the last state entry *)
  mutable resource_dirty : bool;  (* budget changed since last look *)
  mutable last_budget : int;
  mutable best_throughput : float;  (* T* *)
  mutable seq_throughput : float;  (* Tseq *)
  cache : (int * int, Config.t) Hashtbl.t;  (* (choice, budget) -> config *)
  states : Series.t;  (* (time s, state code) timeline *)
  throughputs : Series.t;  (* (time s, iterations/s) timeline *)
  mutable on_usage : int -> unit;  (* report optimized thread usage *)
}

let create ?(params = default_params) region =
  {
    region;
    params;
    state = Init;
    state_since = Engine.time region.Region.eng;
    resource_dirty = false;
    last_budget = Region.budget region;
    best_throughput = 0.0;
    seq_throughput = 0.0;
    cache = Hashtbl.create 7;
    states = Series.create "controller-state";
    throughputs = Series.create "throughput";
    on_usage = ignore;
  }

let states t = t.states
let throughputs t = t.throughputs

(* The daemon pokes this when it changes the region's budget. *)
let notify_resource_change t =
  t.resource_dirty <- true

let set_usage_callback t f = t.on_usage <- f

(* ------------------------------------------------------------------ *)
(* Scheme classification.                                              *)
(* ------------------------------------------------------------------ *)

let scheme_is_sequential (pd : Task.par_descriptor) =
  List.for_all (fun task -> task.Task.ttype = Task.Seq) pd.Task.tasks

(* Indices of the parallel tasks in a descriptor. *)
let parallel_tasks (pd : Task.par_descriptor) =
  List.mapi (fun i task -> (i, task)) pd.Task.tasks
  |> List.filter (fun (_, task) -> task.Task.ttype = Task.Par)
  |> List.map fst

let seq_task_count pd =
  List.length (List.filter (fun task -> task.Task.ttype = Task.Seq) pd.Task.tasks)

(* ------------------------------------------------------------------ *)
(* Measurement.                                                        *)
(* ------------------------------------------------------------------ *)

let now_s t = Engine.seconds_of_ns (Engine.time t.region.Region.eng)

let record_state t =
  Series.add t.states ~time:(now_s t) ~value:(float_of_int (Event.ctrl_state_code t.state))

(* Attribute the dwell time of the state being left to its counter series. *)
let note_dwell t ~now =
  if Metrics.enabled () && now > t.state_since then
    Metrics.inc_by
      (Metrics.counter (Metrics.current ()) "parcae_ctrl_state_dwell_ns_total"
         ~labels:
           [ ("region", t.region.Region.name); ("state", Event.ctrl_state_to_string t.state) ]
         ~help:"Virtual time the controller spent in each FSM state.")
      (now - t.state_since)

let enter t state =
  let now = Engine.time t.region.Region.eng in
  note_dwell t ~now;
  t.state_since <- now;
  t.state <- state;
  record_state t;
  if Trace.enabled () then
    Trace.emit
      ~t:(Engine.time t.region.Region.eng)
      (Event.Ctrl_state { region = t.region.Region.name; state })

let note_throughput t thr =
  Series.add t.throughputs ~time:(now_s t) ~value:thr;
  if Metrics.enabled () then
    Metrics.set_gauge
      (Metrics.gauge (Metrics.current ()) "parcae_ctrl_throughput"
         ~labels:[ ("region", t.region.Region.name) ]
         ~help:"Most recent throughput sample observed by the controller.")
      thr

let finished t = Region.is_done t.region

(* Apply [cfg] if it differs from the current configuration. *)
let apply t cfg = Executor.reconfigure t.region cfg

(* One flight-recorder decision, stamped with the current FSM state and a
   Decima snapshot.  [candidate] is where the rule started, [chosen] where
   it settled; [probes] is the calibration table it consulted. *)
let record_flight t ?(probes = []) ?gradient ?(inputs = []) ~reason ~candidate ~chosen () =
  if Flight.enabled () then begin
    let region = t.region in
    Flight.decision
      ~t:(Engine.time region.Region.eng)
      ~actor:"controller" ~region:region.Region.name ~state:t.state ~reason
      ~tasks:(Decima.flight_tasks (Region.decima region))
      ~probes ?gradient ~inputs ~candidate ~chosen
      ~threads:(Config.threads (Region.config region))
      ~budget:(Region.budget region) ()
  end

(* Wait until the region's output task completes [n] more instances;
   returns the measured fitness (throughput for [Max_throughput];
   throughput^3 / average power for [Min_energy_delay2]), or None if the
   region completed / the controller was stopped meanwhile. *)
let measure_iters t n =
  let d = Region.decima t.region in
  let eng = t.region.Region.eng in
  let last = Decima.task_count d - 1 in
  let snap = Decima.snapshot d in
  let t0 = Engine.time eng and e0 = Engine.energy_joules eng in
  let rec wait () =
    if finished t then None
    else if Decima.iters_since d snap last >= n then begin
      let thr = Decima.rate_since d snap last in
      note_throughput t thr;
      match t.params.objective with
      | Max_throughput -> Some thr
      | Min_energy_delay2 ->
          let dt = Engine.seconds_of_ns (Engine.time eng - t0) in
          let avg_power =
            if dt > 0.0 then (Engine.energy_joules eng -. e0) /. dt else infinity
          in
          Some (thr *. thr *. thr /. Float.max 1.0 avg_power)
    end
    else begin
      Engine.sleep t.params.poll_ns;
      wait ()
    end
  in
  wait ()

(* Wait for [n] iterations without recording (the settle window: right
   after a reconfiguration the pipeline still carries mixed-configuration
   work, especially under barrier-less resizes). *)
let settle_iters t n =
  let d = Region.decima t.region in
  let last = Decima.task_count d - 1 in
  let snap = Decima.snapshot d in
  let rec wait () =
    if finished t then ()
    else if Decima.iters_since d snap last >= n then ()
    else begin
      Engine.sleep t.params.poll_ns;
      wait ()
    end
  in
  wait ()

(* Measure the throughput of configuration [cfg] over [n] iterations,
   after letting the configuration settle for half a window. *)
let measure_config t cfg n =
  let changed = not (Config.equal cfg (Region.config t.region)) in
  apply t cfg;
  if changed then settle_iters t (n / 2);
  measure_iters t n

(* Npar from Section 6.4.1: max(Nseq, npar_factor * current DoP). *)
let npar t d = max t.params.nseq (t.params.npar_factor * d)

(* ------------------------------------------------------------------ *)
(* Gradient ascent on one task's DoP (Section 6.4.2).                  *)
(* ------------------------------------------------------------------ *)

(* Optimize task [i]'s DoP within [1, cap], starting from the current
   configuration.  Returns the best (config, throughput) found, or None if
   the run ended.  The decision rule itself — probe both neighbours of the
   starting DoP to establish a direction, then climb while finite
   differences of measured fitness improve, implementing the unimodal
   assumption of Figure 6.4 — is the pure [Flight.Ascent.climb], shared
   with the offline replayer so recorded runs re-execute literally the
   same code.  Here its measurement function reconfigures the live region
   and samples Decima; offline it looks fitness up in the recorded probe
   table. *)
let gradient_ascent t i cap =
  let cfg0 = Region.config t.region in
  let d0 = (Config.dops cfg0).(i) in
  let d0 = min d0 cap in
  let thr_at d =
    if Metrics.enabled () then
      Metrics.inc
        (Metrics.counter (Metrics.current ()) "parcae_ctrl_gradient_steps_total"
           ~labels:[ ("region", t.region.Region.name) ]
           ~help:"Finite-difference DoP probes taken during gradient ascent.");
    let cfg = Config.with_dop cfg0 i d in
    measure_config t cfg (npar t d)
  in
  match Flight.Ascent.climb ~measure:thr_at ~d0 ~cap with
  | None -> None
  | Some oc ->
      let best = Config.with_dop cfg0 i oc.Flight.Ascent.chosen in
      apply t best;
      record_flight t ~reason:oc.Flight.Ascent.reason ~probes:oc.Flight.Ascent.probes
        ?gradient:(Flight.Ascent.gradient ~d0 oc.Flight.Ascent.probes)
        ~inputs:[ ("task", float_of_int i); ("cap", float_of_int cap) ]
        ~candidate:d0 ~chosen:oc.Flight.Ascent.chosen ();
      Some (best, oc.Flight.Ascent.fitness)

(* Algorithm 4: optimize every parallel task's DoP, prioritizing tasks with
   the lowest throughput, under the region budget.  Returns the optimized
   throughput, or None if the run ended. *)
let optimize_dops t =
  let region = t.region in
  let pd = Region.scheme region in
  let d = Region.decima region in
  let budget = Region.budget region in
  let par = parallel_tasks pd in
  let seqs = seq_task_count pd in
  let navail = max 1 (budget - seqs) in
  let opt = Hashtbl.create 7 and sat = Hashtbl.create 7 in
  let result = ref (Some 0.0) in
  let total_dop () =
    Array.fold_left ( + ) 0 (Config.dops (Region.config region))
    - seqs
  in
  let continue_ = ref true in
  while !continue_ && not (finished t) do
    continue_ := false;
    (* Sort parallel tasks by ascending measured throughput. *)
    let order =
      List.sort
        (fun a b -> compare (Decima.task_rate d a) (Decima.task_rate d b))
        par
    in
    let rec try_tasks = function
      | [] -> ()
      | i :: rest ->
          let cur = (Config.dops (Region.config region)).(i) in
          let cap = max 1 (navail - total_dop () + cur) in
          let needs_opt = not (Hashtbl.mem opt i) in
          let has_headroom = cur < cap && not (Hashtbl.mem sat i) in
          if needs_opt || has_headroom then begin
            (match gradient_ascent t i cap with
            | None -> result := None
            | Some (_, thr) ->
                Hashtbl.replace opt i true;
                let new_dop = (Config.dops (Region.config region)).(i) in
                if new_dop >= cap then Hashtbl.remove sat i else Hashtbl.replace sat i true;
                result := Some thr);
            if !result <> None then continue_ := true
          end
          else try_tasks rest
    in
    try_tasks order
  done;
  if finished t then None else !result

(* ------------------------------------------------------------------ *)
(* The finite-state machine (Figure 6.3).                              *)
(* ------------------------------------------------------------------ *)

(* Default parallel DoP vector for a scheme under the current budget:
   every parallel task starts at half its fair share (Section 6.4.2). *)
let default_parallel_config region choice =
  let pd = List.nth region.Region.schemes choice in
  let budget = Region.budget region in
  let par = parallel_tasks pd in
  let n_par = max 1 (List.length par) in
  let seqs = seq_task_count pd in
  let navail = max 1 (budget - seqs) in
  let fair = max 1 (navail / (2 * n_par)) in
  let tasks =
    List.map
      (fun task -> if task.Task.ttype = Task.Par then Config.task fair else Config.seq_task)
      pd.Task.tasks
  in
  { (Config.make tasks) with Config.choice }

(* One full pass: baseline, then calibrate+optimize every scheme, adopt the
   best.  [schemes_to_try] lists the choices to explore. *)
let optimize_pass t ~seq_choice ~par_choices =
  let region = t.region in
  (* State 1: sequential baseline. *)
  enter t Init;
  let run_baseline c =
    let pd = List.nth region.Region.schemes c in
    let cfg = { (Task.default_config pd) with Config.choice = c } in
    apply t cfg;
    match measure_iters t t.params.nseq with
    | Some thr ->
        t.seq_throughput <- thr;
        let threads = Config.threads cfg in
        record_flight t ~reason:"baseline"
          ~probes:[ (c, thr) ]
          ~inputs:[ ("choice", float_of_int c) ]
          ~candidate:threads ~chosen:threads ()
    | None -> ()
  in
  (match seq_choice with
  | Some c -> run_baseline c
  | None -> (
      (* No sequential version available: baseline is the default config of
         the first scheme to try. *)
      match par_choices with c :: _ -> run_baseline c | [] -> ()));
  if not (finished t) then begin
    (* (scheme choice, measured fitness) table feeding the final
       adopt-best decision; seeded with the baseline when it stands as a
       candidate. *)
    let scheme_probes = ref [] in
    let note_scheme_probe c thr = scheme_probes := (c, thr) :: !scheme_probes in
    let best : (Config.t * float) option ref =
      ref
        (match seq_choice with
        | Some c ->
            let pd = List.nth region.Region.schemes c in
            note_scheme_probe c t.seq_throughput;
            Some ({ (Task.default_config pd) with Config.choice = c }, t.seq_throughput)
        | None -> None)
    in
    List.iter
      (fun choice ->
        if not (finished t) then begin
          let budget = Region.budget region in
          match Hashtbl.find_opt t.cache (choice, budget) with
          | Some cached ->
              (* Cache hit: reuse the optimized configuration directly. *)
              if Metrics.enabled () then
                Metrics.inc
                  (Metrics.counter (Metrics.current ()) "parcae_ctrl_cache_hits_total"
                     ~labels:[ ("region", t.region.Region.name) ]
                     ~help:"Optimized configurations reused from the (scheme, budget) cache.");
              enter t Calibrate;
              apply t cached;
              let threads = Config.threads cached in
              record_flight t ~reason:"cache_hit"
                ~inputs:[ ("choice", float_of_int choice); ("budget", float_of_int budget) ]
                ~candidate:threads ~chosen:threads ();
              (match measure_iters t t.params.nseq with
              | Some thr -> (
                  note_scheme_probe choice thr;
                  match !best with
                  | Some (_, bt) when bt >= thr -> ()
                  | _ -> best := Some (cached, thr))
              | None -> ())
          | None ->
              (* State 2: calibrate the scheme's default configuration. *)
              enter t Calibrate;
              let cfg = default_parallel_config region choice in
              apply t cfg;
              let threads = Config.threads cfg in
              record_flight t ~reason:"calibration_point"
                ~inputs:[ ("choice", float_of_int choice) ]
                ~candidate:threads ~chosen:threads ();
              (match measure_iters t t.params.nseq with
              | None -> ()
              | Some _ -> (
                  (* State 3: optimize DoPs. *)
                  enter t Optimize;
                  match optimize_dops t with
                  | None -> ()
                  | Some thr ->
                      let optimized = Region.config region in
                      let used = Config.threads optimized in
                      let profitable =
                        t.seq_throughput <= 0.0
                        || thr >= efficiency_floor *. float_of_int used *. t.seq_throughput
                      in
                      if profitable then begin
                        Hashtbl.replace t.cache (choice, budget) optimized;
                        note_scheme_probe choice thr;
                        match !best with
                        | Some (_, bt) when bt >= thr -> ()
                        | _ -> best := Some (optimized, thr)
                      end))
        end)
      par_choices;
    (* Adopt the best configuration found. *)
    match !best with
    | Some (cfg, thr) when not (finished t) ->
        apply t cfg;
        t.best_throughput <- thr;
        record_flight t ~reason:"adopt_best"
          ~probes:(List.rev !scheme_probes)
          ~inputs:[ ("choice", float_of_int cfg.Config.choice) ]
          ~candidate:(Config.threads cfg) ~chosen:(Config.threads cfg) ();
        t.on_usage (Config.threads cfg)
    | _ -> ()
  end

(* The Monitor state (State 4): passively watch throughput; detect workload
   change (relative drift beyond [change_frac]) and resource change (budget
   updates from the daemon).  Returns the reason monitoring ended. *)
let monitor t =
  enter t Monitor;
  let d = Region.decima t.region in
  let last = Decima.task_count d - 1 in
  let rounds = ref 0 in
  let reason = ref `Finished in
  (* Named scalars the exit rule depended on, recorded with the decision
     so the replayer can re-check it. *)
  let exit_inputs = ref [] in
  (* Workload drift is detected against the first clean monitor window's
     raw throughput (fitness units differ per objective, but workload
     change always shows in the iteration rate). *)
  let base = ref 0.0 in
  let continue_ = ref true in
  while !continue_ && not (finished t) do
    let snap = Decima.snapshot d in
    Engine.sleep t.params.monitor_ns;
    incr rounds;
    if finished t then continue_ := false
    else if t.resource_dirty then begin
      t.resource_dirty <- false;
      let old_budget = t.last_budget in
      let grew = Region.budget t.region > old_budget in
      t.last_budget <- Region.budget t.region;
      exit_inputs :=
        [ ("old_budget", float_of_int old_budget);
          ("new_budget", float_of_int t.last_budget) ];
      reason := (if grew then `Resources_grew else `Resources_shrank);
      continue_ := false
    end
    else begin
      let thr = Decima.rate_since d snap last in
      note_throughput t thr;
      if !base <= 0.0 then base := thr
      else if abs_float (thr -. !base) /. !base > t.params.change_frac then begin
        exit_inputs :=
          [ ("base", !base); ("thr", thr); ("change_frac", t.params.change_frac) ];
        reason := (if thr < !base then `Workload_slowed else `Workload_sped_up);
        continue_ := false
      end;
      if t.params.max_monitor_rounds > 0 && !rounds >= t.params.max_monitor_rounds then begin
        (* Overrides a drift detected in the same round, as before. *)
        exit_inputs := [];
        reason := `Rounds_exhausted;
        continue_ := false
      end
    end
  done;
  (let threads = Config.threads (Region.config t.region) in
   let tag =
     match !reason with
     | `Finished -> "finished"
     | `Rounds_exhausted -> "rounds_exhausted"
     | `Resources_grew -> "resources_grew"
     | `Resources_shrank -> "resources_shrank"
     | `Workload_slowed -> "workload_slowed"
     | `Workload_sped_up -> "workload_sped_up"
   in
   record_flight t ~reason:tag ~inputs:!exit_inputs ~candidate:threads ~chosen:threads ());
  !reason

(* Main controller loop: run as the body of a dedicated simulated thread. *)
let run t =
  let region = t.region in
  let seq_choice =
    List.mapi (fun i pd -> (i, pd)) region.Region.schemes
    |> List.find_opt (fun (_, pd) -> scheme_is_sequential pd)
    |> Option.map fst
  in
  let par_choices =
    List.mapi (fun i pd -> (i, pd)) region.Region.schemes
    |> List.filter (fun (_, pd) -> not (scheme_is_sequential pd))
    |> List.map fst
  in
  t.last_budget <- Region.budget region;
  let continue_ = ref true in
  while !continue_ && not (finished t) do
    optimize_pass t ~seq_choice ~par_choices;
    if finished t then continue_ := false
    else begin
      match monitor t with
      | `Finished -> continue_ := false
      | `Rounds_exhausted -> continue_ := false
      | `Resources_grew | `Workload_sped_up ->
          (* Keep the current DoP as a starting point; recalibrate. *)
          ()
      | `Resources_shrank | `Workload_slowed ->
          (* Reset: cached configurations for larger budgets do not apply. *)
          ()
    end
  done;
  (* Close out the dwell of the state the controller stopped in. *)
  let now = Engine.time region.Region.eng in
  note_dwell t ~now;
  t.state_since <- now

(* Spawn the controller on its own simulated thread. *)
let spawn eng t =
  Engine.spawn eng ~name:("controller:" ^ t.region.Region.name) (fun () -> run t)
