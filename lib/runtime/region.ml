(* A parallel region under Morta's control.

   A region is the runtime image of a launched ParDescriptor (Figure 5.1):
   the set of worker threads executing its tasks, the current parallelism
   configuration, pause/resume bookkeeping, and the Decima statistics for
   its tasks.  A region may expose several alternative top-level
   parallelization schemes (e.g. the SEQ / DOANY / PS-DSWP versions Nona
   emits, Section 3.2); [config.choice] selects among them. *)

module Engine = Parcae_platform.Engine
module Config = Parcae_core.Config
module Task = Parcae_core.Task
module Trace = Parcae_obs.Trace
module Event = Parcae_obs.Event

type status =
  | Init  (* created, workers not yet started *)
  | Running  (* workers executing task instances *)
  | Pausing  (* pause signalled, waiting for workers to park *)
  | Paused  (* all workers parked; safe to reconfigure *)
  | Done  (* master task completed; region terminated *)

type t = {
  name : string;
  hb_key : string;  (* ["region:" ^ name], the sanitizer's sync key *)
  eng : Engine.t;
  schemes : Task.par_descriptor list;
      (* alternative top-level parallelizations; config.choice picks one *)
  mutable config : Config.t;
  mutable status : status;
  mutable pause_requested : bool;
  mutable master_completed : bool;
  mutable budget : int;  (* thread budget assigned by the platform daemon *)
  decima : Decima.t;
  mon : Engine.monitor;
      (* control-plane monitor: guards status, active_workers,
         master_completed and the ledger stamps on the native backend
         (free on sim).  Workers' per-iteration fast paths stay outside
         it; only park/pause/resume/resize transitions take it. *)
  parked : Engine.cond;  (* broadcast when all workers have parked *)
  finished : Engine.cond;  (* broadcast when the region is Done *)
  mutable active_workers : int;  (* workers currently running *)
  mutable worker_count : int;
  on_pause : (unit -> unit) option;
      (* application callback run when a pause begins; typically injects
         wake-up sentinels into input queues so blocked workers notice *)
  on_reset : (unit -> unit) option;
      (* application callback run between pause and resume; drains leftover
         sentinels and restores channel consistency (Section 4.5, item 5) *)
  mutable on_resize : (Parcae_core.Config.t -> (int * int) list) option;
      (* hook run when a light (barrier-less) DoP resize is applied
         (Section 7.2); stamps the epoch request and returns the
         (task index, lane) workers that must be spawned — lanes whose
         previous worker has not retired yet are NOT re-spawned.  [None]
         when the current scheme changes DoP only through the full
         pause. *)
  mutable light_resizes : int;  (* count of barrier-less reconfigurations *)
  (* Overhead accounting for Section 8.3.6 / Chapter 7 ablations. *)
  mutable reconfig_count : int;
  mutable scheme_switches : int;
  mutable pause_wait_ns : int;  (* total time spent waiting for parks *)
  (* Phase timestamps for the overhead ledger (Chapter 7 decomposition).
     -1 means "not in a measured reconfiguration"; the executor stamps
     them only while Ledger.active (). *)
  mutable reconfig_t0 : int;  (* when the pause was requested *)
  mutable first_park_at : int;  (* when the first worker parked *)
  mutable restart_mark : int;  (* when resume finished relaunching workers *)
}

let create ?(budget = max_int) ?on_pause ?on_reset ~name eng schemes config =
  (match schemes with [] -> invalid_arg "Region.create: no schemes" | _ -> ());
  if config.Config.choice < 0 || config.Config.choice >= List.length schemes then
    invalid_arg "Region.create: config.choice out of range";
  Task.validate_config (List.nth schemes config.Config.choice) config;
  if Trace.enabled () then
    Trace.emit ~t:(Engine.time eng)
      (Event.Region_start
         {
           region = name;
           scheme = (List.nth schemes config.Config.choice).Task.pd_name;
           threads = Config.threads config;
           budget;
         });
  let pd = List.nth schemes config.Config.choice in
  let decima = Decima.create eng ~tasks:(Task.arity pd) in
  Decima.set_names decima ~region:name ~scheme:pd.Task.pd_name
    ~tasks:(Array.of_list (List.map (fun (tk : Task.t) -> tk.Task.name) pd.Task.tasks));
  let mon = Engine.monitor_create eng in
  {
    name;
    hb_key = "region:" ^ name;
    eng;
    schemes;
    config;
    status = Init;
    pause_requested = false;
    master_completed = false;
    budget;
    decima;
    mon;
    parked = Engine.cond_in mon;
    finished = Engine.cond_in mon;
    active_workers = 0;
    worker_count = 0;
    on_pause;
    on_reset;
    on_resize = None;
    light_resizes = 0;
    reconfig_count = 0;
    scheme_switches = 0;
    pause_wait_ns = 0;
    reconfig_t0 = -1;
    first_park_at = -1;
    restart_mark = -1;
  }

(* The ParDescriptor currently selected by the configuration. *)
let scheme t = List.nth t.schemes t.config.Config.choice

let scheme_name t = (scheme t).Task.pd_name
let config t = t.config
let status t = t.status
let decima t = t.decima
let budget t = t.budget
let set_budget t n =
  t.budget <- max 1 n;
  if Trace.enabled () then
    Trace.emit ~t:(Engine.time t.eng)
      (Event.Budget_grant { region = t.name; budget = t.budget })
let is_done t = t.status = Done
let reconfig_count t = t.reconfig_count
let light_resizes t = t.light_resizes
let scheme_switches t = t.scheme_switches
let pause_wait_ns t = t.pause_wait_ns
