(* Builder for two-level loop-nest servers (Figure 2.3 / Section 5.1).

   The outer loop iterates over user requests pulled from a work queue
   (DOALL across requests); each request can itself be processed in
   parallel, either by a pipeline over its items (x264 frames, bzip blocks)
   or by a DOALL over independent chunks (swaptions simulations, gimp
   tiles).  The configuration space is exactly the paper's
   <C_outer, C_inner> = <(k, DOALL), (l, PIPE | DOALL | SEQ)>: at any
   moment, k outer instances run with l threads each. *)

module Engine = Parcae_platform.Engine
module Chan = Parcae_platform.Chan
module Lock = Parcae_platform.Lock
module Config = Parcae_core.Config
module Task = Parcae_core.Task
module Task_status = Parcae_core.Task_status
module Pipeline = Parcae_core.Pipeline
module Executor = Parcae_runtime.Executor

(* The inner (per-request) parallel structure. *)
type inner_kind =
  | Pipe of { items : int; stage_ns : int array }
      (* a pipeline over [items] work units; [stage_ns] gives per-item cost
         of each stage — first and last stages sequential, middle parallel
         (x264's read / transform / write) *)
  | Doall of { chunks : int; chunk_ns : int; serial_ns : int; beta : float }
      (* independent chunks plus a serial (critical-section) portion per
         chunk — the reduction updates that limit scaling — and a
         communication coefficient [beta] that inflates per-chunk cost by
         (1 + beta * (dop - 1)), modelling the synchronization and
         cross-core traffic that grows with team size (x264's pipeline
         dependencies between frame encoders) *)

let seq_request_ns = function
  | Pipe { items; stage_ns } -> items * Array.fold_left ( + ) 0 stage_ns
  | Doall { chunks; chunk_ns; serial_ns; _ } -> chunks * (chunk_ns + serial_ns)

(* ------------------------------------------------------------------ *)
(* Inner-region execution.                                             *)
(* ------------------------------------------------------------------ *)

(* Build the per-request inner pipeline: source feeds item indices, middle
   stages transform, sink writes.  [stage_ns] must have length >= 2; all
   middle entries form parallel stages. *)
let run_inner_pipe eng ~alpha (req : Request.t) ~items ~stage_ns (cfg : Config.t) =
  let alpha_fp = App.alpha_fp alpha in
  let nstages = Array.length stage_ns in
  let queues = Array.init (nstages - 1) (fun i -> Chan.create ~capacity:4 eng (Printf.sprintf "iq%d" i)) in
  let emitted = ref 0 in
  let head =
    Pipeline.source ~name:"read"
      ~forward:(Pipeline.forward_to queues.(0))
      (fun _ctx ->
        if !emitted >= items then Task_status.Complete
        else begin
          incr emitted;
          App.compute_scaled_fp eng ~alpha_fp req stage_ns.(0);
          Pipeline.send queues.(0) !emitted;
          Task_status.Iterating
        end)
  in
  let middles =
    List.init (nstages - 2) (fun s ->
        let i = s + 1 in
        Pipeline.drain_stage ~max_batch:1 ~name:(Printf.sprintf "stage%d" i)
          ~input:queues.(i - 1) ~forward:(Pipeline.forward_to queues.(i))
          (fun _ctx item ->
            App.compute_scaled_fp eng ~alpha_fp req stage_ns.(i);
            Pipeline.send queues.(i) item;
            Task_status.Iterating))
  in
  let tail =
    Pipeline.drain_stage ~max_batch:1 ~ttype:Task.Seq ~name:"write"
      ~input:queues.(nstages - 2) ~forward:(fun _ -> ())
      (fun _ctx _item ->
        App.compute_scaled_fp eng ~alpha_fp req stage_ns.(nstages - 1);
        Task_status.Iterating)
  in
  let stages = (head :: middles) @ [ tail ] in
  let pd =
    Task.descriptor ~name:"inner-pipe" (List.map (fun s -> s.Pipeline.task) stages)
  in
  Executor.run_subregion eng pd cfg

(* Inner DOALL: workers claim chunks from a shared countdown; each chunk has
   a parallel portion and a serial portion guarded by a lock (the reduction
   update), which is what caps scalability per Amdahl.  An app with no
   serial portion (x264) gets no lock. *)
let run_inner_doall eng ~alpha (req : Request.t) ~chunks ~chunk_ns ~serial_ns ~beta
    (cfg : Config.t) =
  let alpha_fp = App.alpha_fp alpha in
  let remaining = ref chunks in
  let lock = if serial_ns > 0 then Some (Lock.create eng "reduction") else None in
  let worker =
    Task.parallel ~name:"chunk" (fun ctx ->
        if !remaining <= 0 then Task_status.Complete
        else begin
          decr remaining;
          (* Communication overhead grows with the team size. *)
          let comm = 1.0 +. (beta *. float_of_int (ctx.Task.dop - 1)) in
          let cost = int_of_float (Float.round (float_of_int chunk_ns *. comm)) in
          App.compute_scaled_fp eng ~alpha_fp req cost;
          (match lock with
          | Some lock ->
              Lock.with_lock lock (fun () -> App.compute_scaled_fp eng ~alpha_fp req serial_ns)
          | None -> ());
          Task_status.Iterating
        end)
  in
  let pd = Task.descriptor ~name:"inner-doall" [ worker ] in
  Executor.run_subregion eng pd cfg

(* ------------------------------------------------------------------ *)
(* Configuration constructors.                                         *)
(* ------------------------------------------------------------------ *)

(* Inner configuration using [l] threads in total (the paper's inner DoP). *)
let inner_config kind l =
  match kind with
  | Pipe { stage_ns; _ } ->
      let nstages = Array.length stage_ns in
      (* first and last stage sequential; middle stages share l - 2 threads *)
      let mid = max 1 (l - 2) in
      let per_stage = max 1 (mid / max 1 (nstages - 2)) in
      Config.make
        (List.init nstages (fun i ->
             if i = 0 || i = nstages - 1 then Config.seq_task else Config.task per_stage))
  | Doall _ -> Config.make [ Config.task (max 1 l) ]

(* Threads consumed by the inner configuration for DoP [l]. *)
let inner_threads kind l =
  match kind with Pipe _ -> max 3 l | Doall _ -> max 1 l

(* Inner DoPs that tile the budget without waste: l must divide the budget
   (so k * l = budget) and, for pipelines, be at least 3 (two sequential
   stages plus one transform thread).  Requesting an infeasible l snaps
   down to the nearest feasible value. *)
let feasible_inner_dops ~budget kind =
  let min_l = match kind with Pipe _ -> 3 | Doall _ -> 2 in
  let divisors =
    List.filter (fun l -> budget mod l = 0) (List.init budget (fun i -> i + 1))
  in
  1 :: List.filter (fun l -> l >= min_l) divisors

let snap_inner_dop ~budget kind l =
  let feas = feasible_inner_dops ~budget kind in
  List.fold_left (fun best cand -> if cand <= l && cand > best then cand else best) 1 feas

(* Full <(k, DOALL), (l, ...)> configuration under [budget] threads:
   l <= 1 turns inner parallelism off and gives every thread to the outer
   loop.  l is snapped to a feasible value so k * l = budget exactly. *)
let make_config ~budget kind l =
  let l = snap_inner_dop ~budget kind l in
  if l <= 1 then Config.make [ Config.task budget ]
  else begin
    let li = inner_threads kind l in
    let k = max 1 (budget / li) in
    Config.make [ Config.task ~nested:(inner_config kind l) k ]
  end

(* ------------------------------------------------------------------ *)
(* The application.                                                    *)
(* ------------------------------------------------------------------ *)

(* Build a two-level server named [name] with the given inner structure.
   [alpha] is the oversubscription sensitivity; [dpmax] the inner DoP at
   which parallel efficiency falls to ~0.5 (the value WQT-H toggles to). *)
let make ?(alpha = 0.05) ~name ~kind ~dpmax ~budget eng =
  let alpha_fp = App.alpha_fp alpha in
  let queue = Chan.create eng "work-queue" in
  let metrics = Metrics.create eng in
  (* The outer DOALL drains its work queue in small batches: requests are
     heavy (an entire inner region each), so the claim is capped low to
     keep pause latency bounded — [drain_stage]'s mid-claim poll hands
     unprocessed requests back to the queue when a pause lands, where they
     survive the reconfiguration. *)
  let master =
    Pipeline.drain_stage ~poll:true ~max_batch:4 ~name:(name ^ "-outer") ~input:queue
      ~load:(Pipeline.load queue)
      ~span_of:(fun (r : Request.t) -> r.Request.span)
      ~span_clock:(fun () -> Engine.time eng)
      ~forward:(fun _ -> ())
      ~nested:
        [
          Task.nested_choice ~name:"inner"
            ~seq:
              (match kind with
              | Pipe { stage_ns; _ } ->
                  List.init (Array.length stage_ns) (fun i ->
                      i = 0 || i = Array.length stage_ns - 1)
              | Doall _ -> [ false ])
            (fun () -> failwith "two_level: inner descriptor is per-request");
        ]
      (fun ctx req ->
        Request.note_start req ~now:(Engine.time eng);
        ctx.Task.hook_begin ();
        (match (ctx.Task.nested_cfg, kind) with
        | None, _ ->
            (* Inner parallelism off: process the request inline. *)
            App.compute_scaled_fp eng ~alpha_fp req (seq_request_ns kind)
        | Some icfg, Pipe { items; stage_ns } ->
            run_inner_pipe eng ~alpha req ~items ~stage_ns icfg
        | Some icfg, Doall { chunks; chunk_ns; serial_ns; beta } ->
            run_inner_doall eng ~alpha req ~chunks ~chunk_ns ~serial_ns ~beta icfg);
        ctx.Task.hook_end ();
        Metrics.note_complete metrics req;
        Request.free req;
        Task_status.Iterating)
  in
  let pd = Task.descriptor ~name [ master.Pipeline.task ] in
  let mk = make_config ~budget kind in
  let cfg_outer_only = mk 1 in
  let cfg_inner_max = mk dpmax in
  {
    App.name;
    eng;
    queue;
    schemes = [ pd ];
    on_pause = (fun () -> Pipeline.inject_flush queue);
    on_reset = Pipeline.make_reset ~stages:[ master ] ~channels:[ queue ];
    metrics;
    wq_load = Pipeline.load queue;
    inner_dop_config = Some mk;
    per_task_loads = [| Some (Pipeline.load queue) |];
    fused_choice = None;
    dpmax;
    configs =
      [ ("outer-only", cfg_outer_only); ("inner-max", cfg_inner_max) ];
    default_config = cfg_outer_only;
    seq_request_ns = seq_request_ns kind;
  }
