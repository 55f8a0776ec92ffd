(* Per-operation costs of each layer, timed from outside with Bechamel OLS;
   report.ml multiplies them by per-request operation counts to rebuild
   each workload's CPU per request.

   Every benchmark calls public functions only.  A row whose operation
   needs an engine turn (sim channel ops, spawns, Decima hooks, drain
   batches) runs a small fixed batch inside one fresh engine and divides
   by the batch size, so the engine's own set-up is amortized into the
   per-op figure.  The native rows repeat bench/microbench.ml's. *)

open Bechamel
open Toolkit
module Engine = Parcae_platform.Engine
module Chan = Parcae_platform.Chan
module Machine = Parcae_sim.Machine
module Config = Parcae_core.Config
module Task = Parcae_core.Task
module Task_status = Parcae_core.Task_status
module Pipeline = Parcae_core.Pipeline
module Pool = Parcae_core.Pool
module R = Parcae_runtime
module Obs = Parcae_obs
module Kernels = Parcae_ir.Kernels
module Interp = Parcae_ir.Interp

(* The OLS estimate of one test, in ns per call. *)
let ols_ns ~quota test =
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second quota) () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] test in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun _ o acc ->
      match Analyze.OLS.estimates o with Some (x :: _) -> x | _ -> acc)
    results nan

(* Rows that rebuild sim CPU are scaled to a quiet host like that CPU is
   (Workloads.run_timed), by the probe before and after each; the native
   rows stay as measured, like native CPU. *)
let bench ?(scaled = true) ~quota name ~per f =
  let k0 = Host.slowdown () in
  let ns = ols_ns ~quota (Test.make ~name (Staged.stage f)) in
  let k1 = Host.slowdown () in
  let ns = if scaled then Host.on_quiet_host ~sensitivity:1.0 ns ~before:k0 ~after:k1 else ns in
  ns /. float_of_int per

let test_machine = Machine.test_machine ~cores:4 ()

(* Run [body] as the only thread of a fresh sim engine. *)
let in_sim body =
  let eng = Engine.create test_machine in
  ignore (Engine.spawn eng ~name:"bench" (fun () -> body eng));
  Engine.run eng

let sim_events () =
  let eng = Engine.create test_machine in
  for _ = 1 to 4 do
    ignore
      (Engine.spawn eng ~name:"w" (fun () ->
           for _ = 1 to 125 do
             Engine.compute 100
           done))
  done;
  Engine.run eng

let spawn_batch = 100

let sim_spawns () =
  in_sim (fun _ ->
      for _ = 1 to spawn_batch do
        ignore (Engine.spawn_thread ~name:"t" ignore)
      done)

let chan_batch = 500

let sim_chan () =
  in_sim (fun eng ->
      let ch = Chan.create eng "bench" in
      for i = 1 to chan_batch do
        Chan.send ch i;
        ignore (Chan.recv ch)
      done)

let drain_items = 400
let drain_msgs = List.init drain_items (fun i -> Pipeline.Item i)

(* One drain stage at DoP 1 claiming batches of 4 from a pre-filled queue
   and forwarding each with one send_batch. *)
let drain () =
  let eng = Engine.create test_machine in
  let q1 = Chan.create eng "in" and q2 = Chan.create eng "out" in
  let st =
    Pipeline.drain_stage ~max_batch:4 ~name:"drain" ~input:q1 ~next:q2
      ~forward:(Pipeline.forward_to q2) (fun _ _ -> Task_status.Iterating)
  in
  ignore
    (Engine.spawn eng ~name:"fill" (fun () ->
         Chan.send_batch q1 drain_msgs;
         Pipeline.inject_eos q1));
  ignore
    (R.Executor.launch ~budget:1 ~name:"drain" eng
       [ Task.descriptor ~name:"drain" [ st.Pipeline.task ] ]
       (Config.make [ Config.task 1 ])
       ~on_reset:(Pipeline.make_reset ~stages:[ st ] ~channels:[ q1; q2 ]));
  ignore (Engine.run eng)

let hook_batch = 500

let decima_hooks () =
  in_sim (fun eng ->
      let d = R.Decima.create eng ~tasks:1 in
      let slot = R.Decima.make_slot () in
      for _ = 1 to hook_batch do
        R.Decima.hook_begin d slot;
        R.Decima.hook_end d ~task:0 slot
      done)

(* The host-side work of one controller epoch: read Decima's counters
   against the previous snapshot, then one hill-climb decision.  The
   reconfiguration a decision may trigger is counted under exec.*. *)
let ctrl_epoch () =
  let eng = Engine.create test_machine in
  let d = R.Decima.create eng ~tasks:4 in
  fun () ->
    let snap = R.Decima.snapshot d in
    for i = 0 to 3 do
      ignore (R.Decima.rate_since d snap i)
    done;
    ignore
      (Obs.Flight.Ascent.climb
         ~measure:(fun dop -> Some (float_of_int (12 - abs (dop - 6))))
         ~d0:3 ~cap:24)

type costs = {
  sim_event_ns : float;
  sim_spawn_ns : float;
  chan_op_ns : float;
  pool_op_ns : float;
  drain_batch_ns : float;
  span_op_ns : float;
  span_lifecycle_ns : float;
  metrics_inc_ns : float;
  metrics_observe_summary_ns : float;
  trace_emit_ns : float;
  decima_hook_ns : float;
  ctrl_epoch_us : float;
  native_chan_op_ns : float;
  native_deque_owner_ns : float;
  native_deque_steal_ns : float;
  native_spin_error : float;
  pdg_build_us : float;
  scc_build_us : float;
  ir_iter_ns : float;
}

let measure ~quota =
  let b = bench ~quota and nb = bench ~scaled:false ~quota in
  let events_per_run = sim_events () in
  let pool = Pool.create ~name:"perf-bench" ~dummy:(ref 0) (fun () -> ref 0) in
  let reg = Obs.Metrics.create () in
  let counter = Obs.Metrics.counter reg "perf_bench_total" in
  let summary = Obs.Metrics.summary reg "perf_bench_ns" in
  let sc = Obs.Span.create () in
  let sp = Obs.Span.make_span () in
  let sink = Obs.Sink.create ~capacity:4096 () in
  let span_ns =
    Obs.Span.with_collector sc (fun () ->
        Obs.Span.reset sp ~id:0 ~arrival_ns:0;
        let pair =
          b "span enter+exit" ~per:1 (fun () ->
              let tok = Obs.Span.enter sp ~now:1 in
              Obs.Span.exit sp ~token:tok ~now:2)
        in
        let life =
          b "span reset+finish" ~per:1 (fun () ->
              Obs.Span.reset sp ~id:0 ~arrival_ns:0;
              Obs.Span.finish sp ~now:3)
        in
        (pair, life))
  in
  let trace_emit_ns =
    Obs.Trace.with_sink sink (fun () ->
        b "trace emit" ~per:1 (fun () ->
            Obs.Trace.emit ~t:1 (Obs.Event.Hook_sample { task = 0; dt_ns = 1 })))
  in
  let neng = Parcae_native.Engine.create ~pool:1 () in
  let native =
    Fun.protect
      ~finally:(fun () -> Parcae_native.Engine.shutdown neng)
      (fun () ->
        let module NC = Parcae_native.Chan in
        let ch = NC.create neng "bench" in
        let dq = Parcae_native.Deque.create () in
        let chan =
          nb "native chan send+recv" ~per:2 (fun () ->
              NC.send ch 1;
              ignore (NC.recv ch))
        in
        let owner =
          nb "native deque push+pop" ~per:1 (fun () ->
              Parcae_native.Deque.push dq 1;
              ignore (Parcae_native.Deque.pop dq))
        in
        let steal =
          nb "native deque push+steal" ~per:1 (fun () ->
              Parcae_native.Deque.push dq 1;
              ignore (Parcae_native.Deque.steal dq))
        in
        let spin =
          nb "native spin 100us" ~per:1 (fun () ->
              ignore (Parcae_native.Calibrate.spin_ns 100_000))
        in
        (chan, owner, steal, Float.abs ((spin /. 100_000.0) -. 1.0)))
  in
  let native_chan_op_ns, native_deque_owner_ns, native_deque_steal_ns, native_spin_error =
    native
  in
  let crc = Kernels.crc32 ~n:10 () in
  let pdg = Parcae_pdg.Pdg.build crc in
  let iter_loops = [ Kernels.crc32 ~n:2000 (); Kernels.kmeans ~n:2000 () ] in
  {
    sim_event_ns = b "sim events" ~per:events_per_run (fun () -> ignore (sim_events ()));
    sim_spawn_ns = b "sim spawn" ~per:spawn_batch (fun () -> ignore (sim_spawns ()));
    chan_op_ns = b "sim chan send+recv" ~per:(2 * chan_batch) (fun () -> ignore (sim_chan ()));
    pool_op_ns =
      b "pool acquire+release" ~per:1 (fun () -> Pool.release pool (Pool.acquire pool));
    drain_batch_ns = b "drain_stage batch" ~per:(drain_items / 4) drain;
    span_op_ns = fst span_ns;
    span_lifecycle_ns = snd span_ns;
    metrics_inc_ns = b "metrics inc" ~per:1 (fun () -> Obs.Metrics.inc counter);
    metrics_observe_summary_ns =
      b "metrics observe_summary" ~per:1 (fun () -> Obs.Metrics.observe_summary summary 12_345);
    trace_emit_ns;
    decima_hook_ns = b "decima hook" ~per:(2 * hook_batch) (fun () -> ignore (decima_hooks ()));
    ctrl_epoch_us = b "controller epoch" ~per:1 (ctrl_epoch ()) /. 1e3;
    native_chan_op_ns;
    native_deque_owner_ns;
    native_deque_steal_ns;
    native_spin_error;
    pdg_build_us = b "pdg build" ~per:1 (fun () -> ignore (Parcae_pdg.Pdg.build crc)) /. 1e3;
    scc_build_us = b "scc build" ~per:1 (fun () -> ignore (Parcae_pdg.Scc.build pdg)) /. 1e3;
    ir_iter_ns =
      b "interp iteration" ~per:4000 (fun () ->
          List.iter (fun l -> ignore (Interp.run l)) iter_loops);
  }
