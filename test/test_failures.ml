(* Failure-injection tests: hostile environments that stress the
   adaptation machinery — platform cores fluctuating mid-run, thread
   budgets thrashing, bursty arrival patterns, and load generators that
   stall.  In every case the system must terminate and preserve
   semantics. *)

open Parcae_ir
open Parcae_sim

(* Engine/value types come from the platform dispatch layer (the runtime's
   own types); [Machine]/[Power]/etc. remain from [Parcae_sim] above. *)
module Engine = Parcae_platform.Engine
module Chan = Parcae_platform.Chan
module Lock = Parcae_platform.Lock
open Parcae_core
open Parcae_nona
open Parcae_workloads
module R = Parcae_runtime
module Mech = Parcae_mechanisms
module Rng = Parcae_util.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let machine = Machine.xeon_x7460

let test_core_fluctuation_under_controller () =
  (* The platform's online core count oscillates 24 -> 6 -> 16 -> 2 -> 24
     while a controller-managed kernel runs.  (This is below the runtime's
     knowledge: the OS silently takes cores away, as when co-scheduled
     processes compete.)  The run must finish correctly. *)
  let c = Compiler.compile (Kernels.kmeans ~n:60_000 ()) in
  let eng = Engine.create machine in
  let h = Compiler.launch ~budget:24 eng c in
  let params =
    { R.Controller.default_params with R.Controller.nseq = 8; npar_factor = 8; monitor_ns = 20_000_000 }
  in
  ignore (R.Controller.spawn eng (R.Controller.create ~params h.Compiler.region));
  let _ =
    Engine.spawn eng ~name:"os" (fun () ->
        List.iter
          (fun cores ->
            Engine.sleep 300_000_000;
            Engine.set_online_cores eng cores)
          [ 6; 16; 2; 24; 8; 24 ])
  in
  ignore (Engine.run ~until:600_000_000_000 eng);
  check_bool "done" true (R.Region.is_done h.Compiler.region);
  check_bool "semantics" true (Compiler.preserves_semantics h)

let test_budget_thrash () =
  (* The daemon-style budget flaps rapidly; the controller must keep
     recalibrating without wedging. *)
  let c = Compiler.compile (Kernels.blackscholes ~n:120_000 ()) in
  let eng = Engine.create machine in
  let h = Compiler.launch ~budget:24 eng c in
  let params =
    { R.Controller.default_params with R.Controller.nseq = 8; npar_factor = 8; monitor_ns = 10_000_000 }
  in
  let ctl = R.Controller.create ~params h.Compiler.region in
  ignore (R.Controller.spawn eng ctl);
  let _ =
    Engine.spawn eng ~name:"thrash" (fun () ->
        let budgets = [ 4; 20; 2; 16; 6; 24; 3; 24 ] in
        List.iter
          (fun b ->
            Engine.sleep 100_000_000;
            if not (R.Region.is_done h.Compiler.region) then begin
              R.Region.set_budget h.Compiler.region b;
              R.Controller.notify_resource_change ctl
            end)
          budgets)
  in
  ignore (Engine.run ~until:600_000_000_000 eng);
  check_bool "done" true (R.Region.is_done h.Compiler.region);
  check_bool "semantics" true (Compiler.preserves_semantics h);
  check_int "all iterations" 120_000 h.Compiler.rs.Flex.next_iter

let test_bursty_load_on_server () =
  (* Square-wave arrivals: silence, then a burst far above capacity,
     repeatedly, under WQ-Linear.  Every submitted request must complete. *)
  let eng = Engine.create machine in
  let app = Transcode.make ~budget:24 eng in
  let region =
    R.Executor.launch ~budget:24 ~name:"bursty" eng app.App.schemes
      ~on_pause:app.App.on_pause ~on_reset:app.App.on_reset (App.config app "inner-max")
  in
  let mechanism = Option.get (List.assoc "wq-linear" Experiments.mechanisms) app in
  ignore
    (R.Morta.spawn
       ~stop:(fun () -> R.Region.is_done region)
       ~period_ns:500_000_000 ~mechanism eng region);
  let rng = Rng.create 5 in
  let submitted = ref 0 in
  ignore
    (Engine.spawn eng ~name:"bursts" (fun () ->
         for _burst = 1 to 4 do
           (* 40 requests in 0.25 s (far above the ~14/s capacity)... *)
           for _ = 1 to 40 do
             Engine.sleep (int_of_float (Rng.exponential rng ~rate:160.0 *. 1e9));
             let req =
               Request.create ~id:!submitted ~arrival_ns:(Engine.now ())
                 ~scale:(Float.max 0.5 (Rng.gaussian rng ~mu:1.0 ~sigma:0.08))
             in
             incr submitted;
             Metrics.note_submit app.App.metrics;
             Pipeline.send app.App.queue req
           done;
           (* ... then three seconds of silence. *)
           Engine.sleep 3_000_000_000
         done;
         Pipeline.inject_eos app.App.queue));
  ignore (Engine.run ~until:120_000_000_000 eng);
  check_bool "done" true (R.Region.is_done region);
  check_int "every burst request served" !submitted (Metrics.completed app.App.metrics)

let test_online_cores_zero_then_restore () =
  (* A brief total outage: online cores drop to 0 (everything stalls), then
     restore; execution must pick up where it left off. *)
  let eng = Engine.create machine in
  let count = ref 0 in
  let t =
    Task.parallel ~name:"work" (fun ctx ->
        match ctx.Task.get_status () with
        | Task_status.Paused -> Task_status.Paused
        | _ ->
            if !count >= 2000 then Task_status.Complete
            else begin
              incr count;
              Engine.compute 10_000;
              Task_status.Iterating
            end)
  in
  let pd = Task.descriptor ~name:"w" [ t ] in
  let r = R.Executor.launch ~budget:8 ~name:"w" eng [ pd ] (Config.make [ Config.task 8 ]) in
  let progress_during_outage = ref (-1) in
  let _ =
    Engine.spawn eng ~name:"outage" (fun () ->
        Engine.sleep 1_000_000;
        let before = !count in
        Engine.set_online_cores eng 0;
        Engine.sleep 5_000_000;
        progress_during_outage := !count - before;
        Engine.set_online_cores eng 24)
  in
  ignore (Engine.run ~until:60_000_000_000 eng);
  check_bool "done after restore" true (R.Region.is_done r);
  check_int "all iterations" 2000 !count;
  (* At most the already-running slices finished during the outage. *)
  check_bool "outage froze progress" true (!progress_during_outage <= 24)

let test_generator_stall_and_resume () =
  (* The load generator stalls for a long stretch mid-stream; blocked
     master lanes must survive mechanism reconfigurations meanwhile. *)
  let eng = Engine.create machine in
  let app = Swaptions.make ~budget:24 eng in
  let region =
    R.Executor.launch ~budget:24 ~name:"stall" eng app.App.schemes
      ~on_pause:app.App.on_pause ~on_reset:app.App.on_reset (App.config app "inner-max")
  in
  let mechanism =
    Mech.Wqt_h.make ~load:app.App.wq_load ~threshold:8.0 ~non:2 ~noff:2
      ~light:(App.config app "inner-max") ~heavy:(App.config app "outer-only") ()
  in
  ignore
    (R.Morta.spawn
       ~stop:(fun () -> R.Region.is_done region)
       ~period_ns:300_000_000 ~mechanism eng region);
  let rng = Rng.create 11 in
  ignore
    (Engine.spawn eng ~name:"gen" (fun () ->
         let send i =
           let req =
             Request.create ~id:i ~arrival_ns:(Engine.now ())
               ~scale:(Float.max 0.5 (Rng.gaussian rng ~mu:1.0 ~sigma:0.05))
           in
           Metrics.note_submit app.App.metrics;
           Pipeline.send app.App.queue req
         in
         for i = 1 to 20 do
           Engine.sleep 100_000_000;
           send i
         done;
         (* stall: nothing for 8 seconds — several mechanism periods *)
         Engine.sleep 8_000_000_000;
         for i = 21 to 40 do
           Engine.sleep 100_000_000;
           send i
         done;
         Pipeline.inject_eos app.App.queue));
  ignore (Engine.run ~until:120_000_000_000 eng);
  check_bool "done" true (R.Region.is_done region);
  check_int "all requests served" 40 (Metrics.completed app.App.metrics)

let suite =
  [
    Alcotest.test_case "failure: core fluctuation" `Quick test_core_fluctuation_under_controller;
    Alcotest.test_case "failure: budget thrash" `Quick test_budget_thrash;
    Alcotest.test_case "failure: bursty load" `Quick test_bursty_load_on_server;
    Alcotest.test_case "failure: total core outage" `Quick test_online_cores_zero_then_restore;
    Alcotest.test_case "failure: generator stall" `Quick test_generator_stall_and_resume;
  ]
