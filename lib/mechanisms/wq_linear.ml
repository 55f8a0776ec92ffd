(* Work Queue Linear (Section 6.3.1).

   Instead of toggling between two configurations, WQ-Linear degrades the
   latency-oriented degree of parallelism continuously with load:

       dP = max(dPmin, dPmax - k * WQo)        (Equation 6.1)
       k  = (dPmax - dPmin) / Qmax             (Equation 6.2)

   where WQo is the instantaneous work-queue occupancy and Qmax is derived
   from the maximum response-time degradation acceptable to the user.

   Two variants are provided:
   - [nested]: the two-level loop-nest form used by the transcoding-style
     servers, where dP is the *inner* DoP and a workload-supplied
     [make_config] maps it to a full configuration (outer DoP typically
     budget / dP);
   - [per_task]: the flat-pipeline form used for ferret (Figure 8.5), where
     each parallel stage's DoP is sized from its own input-queue occupancy,
     allocating threads proportional to the load on each task. *)

module Config = Parcae_core.Config
module Region = Parcae_runtime.Region
module Morta = Parcae_runtime.Morta

(* Equation 6.1/6.2. *)
let dop_of_load ~dpmin ~dpmax ~qmax q =
  let k = float_of_int (dpmax - dpmin) /. qmax in
  let d = float_of_int dpmax -. (k *. q) in
  max dpmin (min dpmax (int_of_float (Float.round d)))

(* The work-queue occupancy is smoothed with an EWMA of this weight before
   Equation 6.1 is applied, so transient bursts don't cause
   reconfiguration thrash (each reconfiguration drains the in-flight
   requests, so flapping between adjacent DoPs is pure overhead). *)
let nested_smooth = 0.3

let nested ~load ~dpmin ~dpmax ~qmax ~make_config () : Morta.mechanism =
  let ewma = Parcae_util.Stats.Ewma.create ~alpha:nested_smooth in
  fun region ->
    Parcae_util.Stats.Ewma.observe ewma (load ());
    let q = Parcae_util.Stats.Ewma.value ewma in
    let dp = dop_of_load ~dpmin ~dpmax ~qmax q in
    let cfg = make_config dp in
    if Config.equal cfg (Region.config region) then None
    else Morta.propose ~why:"queue_linear" cfg

(* Per-task sizing for single-level pipelines: parallel task [i] gets
   dpmin + ceil(loads.(i) / per_item) threads, capped at dpmax.  Sequential
   tasks (signalled by a [None] load) stay at DoP 1.

   Queue occupancies are EWMA-smoothed (weight [per_task_smooth]) and a
   task's DoP only moves when the target differs from the current value by
   at least [deadband] — every applied change pauses and drains the
   pipeline, so chasing queue noise costs more latency than it saves.

   The flat apps' stage queues are bounded at 8 entries, so [per_item]
   must be small enough that a full queue maps to a large DoP. *)
let per_item = 0.6
let per_task_smooth = 0.4
let deadband = 2

let per_task ~loads ~dpmin ~dpmax () : Morta.mechanism =
  let ewmas =
    Array.map (Option.map (fun _ -> Parcae_util.Stats.Ewma.create ~alpha:per_task_smooth)) loads
  in
  fun region ->
    let cur = Region.config region in
    let tasks =
      Array.mapi
        (fun i tc ->
          match (loads.(i), ewmas.(i)) with
          | Some load, Some ewma ->
              Parcae_util.Stats.Ewma.observe ewma (load ());
              let q = Parcae_util.Stats.Ewma.value ewma in
              let target =
                max dpmin (min dpmax (dpmin + int_of_float (ceil (q /. per_item))))
              in
              if abs (target - tc.Config.dop) >= deadband then { tc with Config.dop = target }
              else tc
          | _ -> tc)
        cur.Config.tasks
    in
    let cfg = { cur with Config.tasks } in
    if Config.equal cfg cur then None else Morta.propose ~why:"queue_linear" cfg
