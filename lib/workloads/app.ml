(* Common shape of a Parcae-enhanced application (Table 8.2).

   Every workload model exposes: the external work queue, the top-level
   parallelization schemes registered with Morta, pause/reset callbacks for
   the flush protocol, response/throughput metrics, and the hooks the
   mechanisms of Chapter 6 need (work-queue load, configuration
   constructors, per-task loads, dPmax). *)

module Engine = Parcae_platform.Engine
module Chan = Parcae_platform.Chan
module Config = Parcae_core.Config
module Task = Parcae_core.Task
module Pipeline = Parcae_core.Pipeline

type t = {
  name : string;
  eng : Engine.t;
  queue : Request.t Pipeline.msg Chan.t;  (* external work queue *)
  schemes : Task.par_descriptor list;
  on_pause : unit -> unit;
  on_reset : unit -> unit;
  metrics : Metrics.t;
  (* Mechanism hooks. *)
  wq_load : unit -> float;  (* work-queue occupancy *)
  inner_dop_config : (int -> Config.t) option;
      (* two-level servers: map an inner DoP (1 = inner parallelism off) to
         a full configuration under the platform budget *)
  per_task_loads : (unit -> float) option array;
      (* flat pipelines: per-task input-queue loads (None for seq tasks) *)
  fused_choice : int option;  (* scheme index with collapsed stages, if any *)
  dpmax : int;  (* DoP beyond which parallel efficiency drops below 0.5 *)
  configs : (string * Config.t) list;  (* named static configurations *)
  default_config : Config.t;
  seq_request_ns : int;  (* nominal sequential per-request work *)
}

(* Named static configuration lookup. *)
let config t name =
  match List.assoc_opt name t.configs with
  | Some c -> c
  | None ->
      invalid_arg
        (Printf.sprintf "%s: no configuration %S (have: %s)" t.name name
           (String.concat ", " (List.map fst t.configs)))

(* Oversubscription penalty on compute cost: when the process keeps many
   more threads alive than there are cores, context-switch churn and cache
   pollution inflate each thread's work — the effect that makes
   "Pthreads-OS" oversubscription unprofitable for memory-bound dedup but
   still profitable for ferret (Table 8.5).  [alpha] is the per-app
   sensitivity; the factor is 1 when the thread count fits the cores.
   Live threads (not just runnable ones) drive the penalty because cache
   footprint scales with resident working sets.

   The factor is kept in 16.16 fixed point with [alpha] pre-converted, so
   the serve path's per-stage cost scaling performs no float operation:
   factor = 1 + alpha * max 0 (live/online - 1)
          = 65536 + alpha_fp * (live - online) / online. *)
let oversub_factor_fp eng ~alpha_fp =
  if Engine.is_native eng then 65536
    (* Real hardware charges its own oversubscription penalty (scheduler
       churn lands in wall time); modelling it on top would double-count. *)
  else begin
    let online = Int.max 1 (Engine.online_cores eng) in
    let over = Engine.live_threads eng - online in
    if over <= 0 then 65536 else 65536 + (alpha_fp * over / online)
  end

let alpha_fp alpha = int_of_float ((alpha *. 65536.0) +. 0.5)

(* Compute [base] ns inflated by the request scale and the current
   oversubscription factor — all-integer (16.16 fixed point, rounded to
   nearest at each step) and suspended through the payload-free effect,
   so a stage burst costs the serve path zero non-runtime allocation.
   Stage factories pre-convert alpha once ({!alpha_fp}) and close over
   it. *)
let compute_scaled_fp eng ~alpha_fp (req : Request.t) base =
  let f = oversub_factor_fp eng ~alpha_fp in
  let scaled = (((base * f) + 32768) asr 16) * req.Request.scale_fp in
  Engine.compute_in eng ((scaled + 32768) asr 16)
