(* The Decima monitor (Chapter 6, Section 4.7).

   Decima observes the application through the begin/end hooks Nona (or the
   programmer) inserts into task functors, and through load callbacks; it
   observes the platform through a registry of named feature callbacks
   ("SystemPower", ...).  Everything is per-region and cheap: hook costs are
   charged to the calling simulated thread at the machine's rdtsc-equivalent
   cost, and counters are plain mutable fields (the paper implements them in
   shared memory without synchronization).

   Telemetry is stored flat (DESIGN.md section 14): per-task iteration,
   compute and EWMA state live in parallel int arrays rather than one
   record per task, and the EWMA itself is integer fixed-point (whole
   nanoseconds) — a float-valued mixed record would box a float on every
   sample, taxing the serve path's hook_end with an allocation per
   instance. *)

module Engine = Parcae_platform.Engine
module Observed = Parcae_obs.Observed
module Trace = Parcae_obs.Trace
module Sink = Parcae_obs.Sink
module Event = Parcae_obs.Event
module Metrics = Parcae_obs.Metrics

(* Registry handles, one set per task plus region-level completions.  The
   compute counter is labeled (region, scheme, task) — exactly the frames
   Obs.Profile folds into flamegraph stacks. *)
type task_metrics = {
  dm_compute : Metrics.counter;
  dm_hook : Metrics.summary;
  dm_iters : Metrics.counter;
}

type decima_metrics = { dm_tasks : task_metrics array; dm_completions : Metrics.counter }

(* The handles with the registry they belong to and the [Observed.epoch]
   at which that registry was last found installed.  Immutable and
   swapped in one store, so a hook on another domain never pairs an
   epoch with another binding's handles. *)
type binding = { b_epoch : int; b_reg : Metrics.t; b_mx : decima_metrics }

(* What a monitor is bound to until its first update under a registry,
   and again after a reset or renaming: its registry is never installed
   and no epoch matches. *)
let unbound =
  {
    b_epoch = -1;
    b_reg = Metrics.create ();
    b_mx = { dm_tasks = [||]; dm_completions = Metrics.counter Metrics.null "" };
  }

(* EWMA weight of the newest sample is 1/ewma_inv (alpha = 0.2). *)
let ewma_inv = 5

type t = {
  eng : Engine.t;
  mutable iters_a : int array;  (* completed dynamic instances across all lanes *)
  mutable compute_a : int array;  (* total CPU ns between begin/end hooks *)
  mutable ewma_a : int array;  (* per-instance compute estimate, ns; -1 = unprimed *)
  features : (string, unit -> float) Hashtbl.t;
  mutable hook_calls : int;
  mutable completions : int;  (* region-level unit-of-work completions *)
  mutable region_name : string;  (* label values for the registry series; *)
  mutable scheme_name : string;  (* set by Region.create / Executor.resume *)
  mutable task_names : string array;
  mutable mx : binding;
}

let create eng ~tasks =
  {
    eng;
    iters_a = Array.make tasks 0;
    compute_a = Array.make tasks 0;
    ewma_a = Array.make tasks (-1);
    features = Hashtbl.create 7;
    hook_calls = 0;
    completions = 0;
    region_name = "";
    scheme_name = "";
    task_names = [||];
    mx = unbound;
  }

(* Re-size and clear task statistics; used when the runtime switches to a
   parallelization scheme with a different task count. *)
let reset t ~tasks =
  t.iters_a <- Array.make tasks 0;
  t.compute_a <- Array.make tasks 0;
  t.ewma_a <- Array.make tasks (-1);
  t.mx <- unbound

let task_count t = Array.length t.iters_a

(* Name the label values under which this monitor's statistics appear in the
   metrics registry.  Registry series are cumulative across resets, so a
   scheme switch moves attribution to a fresh (region, scheme, task) series
   instead of clearing history. *)
let set_names t ~region ~scheme ~tasks =
  t.region_name <- region;
  t.scheme_name <- scheme;
  t.task_names <- tasks;
  t.mx <- unbound

let task_label t i =
  if i < Array.length t.task_names then t.task_names.(i) else Printf.sprintf "t%d" i

let build t reg =
  {
    dm_tasks =
      Array.init (task_count t) (fun i ->
          let name = task_label t i in
          {
            dm_compute =
              Metrics.counter reg "parcae_task_compute_ns_total"
                ~labels:
                  [
                    ("region", t.region_name);
                    ("scheme", t.scheme_name);
                    ("task", name);
                  ]
                ~help:"Hook-attributed compute ns per (region, scheme, task).";
            dm_hook =
              Metrics.summary reg "parcae_decima_hook_ns"
                ~labels:[ ("region", t.region_name); ("task", name) ]
                ~help:"Per-instance compute time between begin/end hooks.";
            dm_iters =
              Metrics.counter reg "parcae_decima_iters_total"
                ~labels:[ ("region", t.region_name); ("task", name) ]
                ~help:"Completed dynamic task instances.";
          });
    dm_completions =
      Metrics.counter reg "parcae_decima_completions_total"
        ~labels:[ ("region", t.region_name) ]
        ~help:"Region-level unit-of-work completions.";
  }

let rebind t =
  let e = Atomic.get Observed.epoch in
  let reg = Metrics.current () in
  let b = t.mx in
  let h = if reg == b.b_reg then b.b_mx else build t reg in
  t.mx <- { b_epoch = e; b_reg = reg; b_mx = h };
  h

(* The handles for the installed registry, rebound once per registry
   change: per task, so a hook stores into its task's series directly.
   While no scope opened or closed since they were checked, one load of
   the observer epoch says they are current. *)
let handles t =
  let b = t.mx in
  if b.b_epoch = Atomic.get Observed.epoch then b.b_mx else rebind t

(* ---- Hooks (Section 4.7) ---- *)

(* A hook pair measures the CPU consumed by a worker between begin and end,
   excluding time spent blocked on channels — the simulator's per-thread
   busy-time counter gives exactly that.  Each hook costs [machine.hook] ns,
   modelling the rdtsc reads whose overhead Section 8.3.6 reports. *)
type hook_slot = { mutable t0 : int; mutable open_ : bool }

let make_slot () = { t0 = 0; open_ = false }

(* Hook costs are sub-microsecond, so they go through [Engine.charge]
   (deferred, bounded-skew) rather than paying an effect suspension each;
   the busy read likewise avoids the ambient [Self] effect. *)
let hook_begin t slot =
  Engine.charge t.eng (Engine.hook_cost t.eng);
  t.hook_calls <- t.hook_calls + 1;
  slot.t0 <- Engine.busy_ns_in t.eng;
  slot.open_ <- true

let hook_end t ~task slot =
  Engine.charge t.eng (Engine.hook_cost t.eng);
  t.hook_calls <- t.hook_calls + 1;
  if slot.open_ then begin
    slot.open_ <- false;
    let dt = Engine.busy_ns_in t.eng - slot.t0 in
    if task >= 0 && task < task_count t then begin
      t.compute_a.(task) <- t.compute_a.(task) + dt;
      (* Integer EWMA, newest sample weighted 1/ewma_inv: whole-ns
         precision is far below hook noise, and the update touches no
         boxed float. *)
      let prev = t.ewma_a.(task) in
      t.ewma_a.(task) <-
        (if prev < 0 then dt else prev + ((dt - prev) / ewma_inv));
      (* One read of the observer word; the sample is written straight
         into the installed sink, like a channel's events. *)
      let w = Atomic.get Observed.word in
      if w land Observed.trace <> 0 then
        Sink.hook_sample (Atomic.get Trace.current) ~t:(Engine.time t.eng) ~task ~dt_ns:dt;
      if w land Observed.metrics <> 0 then begin
        let m = (handles t).dm_tasks.(task) in
        m.dm_compute.count <- m.dm_compute.count + dt;
        Parcae_obs.Hdr.observe m.dm_hook dt
      end
    end
  end

(* Record the completion of [n] dynamic instances of task [i] — a batch
   drain reports its whole claim in one call. *)
let tick_n t i n =
  if n > 0 && i >= 0 && i < task_count t then begin
    t.iters_a.(i) <- t.iters_a.(i) + n;
    if Atomic.get Observed.word land Observed.metrics <> 0 then begin
      let c = (handles t).dm_tasks.(i).dm_iters in
      c.count <- c.count + n
    end
  end

(* Record the completion of one dynamic instance of task [i]. *)
let tick t i = tick_n t i 1

(* Record the completion of one region-level unit of work (one transcoded
   video, one answered query, ...). *)
let complete t =
  t.completions <- t.completions + 1;
  if Metrics.enabled () then Metrics.inc (handles t).dm_completions

let iters t i = t.iters_a.(i)
let completions t = t.completions
let hook_calls t = t.hook_calls

(* Total hook-attributed compute ns of task [i] since the last reset —
   matches the [parcae_task_compute_ns_total] series one-for-one when the
   region never switched scheme. *)
let compute_ns t i = t.compute_a.(i)

(* Decima's estimate of a task's per-instance execution time in ns
   (Parcae::getExecTime). *)
let exec_time t i =
  let e = t.ewma_a.(i) in
  if e >= 0 then float_of_int e
  else if t.iters_a.(i) > 0 then float_of_int t.compute_a.(i) /. float_of_int t.iters_a.(i)
  else 0.0

(* Average observed throughput of task [i] in instances per second, over the
   whole run so far. *)
let task_rate t i =
  let now = Engine.time t.eng in
  if now = 0 then 0.0 else float_of_int t.iters_a.(i) /. Engine.seconds_of_ns now

(* ---- Snapshots for interval throughput ---- *)

(* The closed-loop controller compares configurations by the iteration
   throughput achieved between two snapshots. *)
type snapshot = { at : int; iters_v : int array }

let snapshot t = { at = Engine.time t.eng; iters_v = Array.copy t.iters_a }

(* Iterations per second of task [i] between [a] and the present. *)
let rate_since t (a : snapshot) i =
  let dt = Engine.time t.eng - a.at in
  if dt <= 0 then 0.0
  else float_of_int (t.iters_a.(i) - a.iters_v.(i)) /. Engine.seconds_of_ns dt

let iters_since t (a : snapshot) i = t.iters_a.(i) - a.iters_v.(i)

(* ---- Platform feature registry (Figure 5.8) ---- *)

let register_feature t name cb = Hashtbl.replace t.features name cb

let feature t name =
  match Hashtbl.find_opt t.features name with
  | None -> None
  | Some cb ->
      let value = cb () in
      if Trace.enabled () then
        Trace.emit ~t:(Engine.time t.eng) (Event.Feature_sample { name; value });
      if Metrics.enabled () then
        Metrics.set_gauge
          (Metrics.gauge (Metrics.current ()) "parcae_decima_feature"
             ~labels:[ ("name", name) ]
             ~help:"Last sampled platform feature value.")
          value;
      Some value

(* ---- Flight-recorder snapshot ---- *)

(* The per-task measurement block every flight decision carries: what the
   monitor currently believes about each task's progress and cost. *)
let flight_tasks t =
  List.init (task_count t) (fun i ->
      {
        Parcae_obs.Flight.task = task_label t i;
        iters = iters t i;
        ips = task_rate t i;
        exec_ns = exec_time t i;
      })
