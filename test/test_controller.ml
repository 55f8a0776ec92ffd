(* Tests for the closed-loop run-time controller (Section 6.4) and the
   platform-wide daemon (Section 6.4.3): convergence to a parallel
   configuration, gradient ascent behaviour, workload-change and
   resource-change reactions, and thread partitioning across programs. *)

open Parcae_ir
open Parcae_sim

(* Engine/value types come from the platform dispatch layer (the runtime's
   own types); [Machine]/[Power]/etc. remain from [Parcae_sim] above. *)
module Engine = Parcae_platform.Engine
module Chan = Parcae_platform.Chan
module Lock = Parcae_platform.Lock
open Parcae_nona
module R = Parcae_runtime
module Config = Parcae_core.Config

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let machine = Machine.xeon_x7460

let controller_params =
  {
    R.Controller.default_params with
    R.Controller.nseq = 8;
    poll_ns = 20_000;
    monitor_ns = 10_000_000;
    change_frac = 0.3;
  }

(* Launch a compiled kernel under a controller; returns after the sim. *)
let run_with_controller ?params ?(budget = 24) ?(horizon = 60_000_000_000) ?driver loop =
  let c = Compiler.compile loop in
  let eng = Engine.create machine in
  let h = Compiler.launch ~budget eng c in
  let ctl =
    R.Controller.create
      ?params:(Some (Option.value params ~default:controller_params))
      h.Compiler.region
  in
  ignore (R.Controller.spawn eng ctl);
  Option.iter (fun f -> ignore (Engine.spawn eng ~name:"driver" (fun () -> f eng h ctl))) driver;
  ignore (Engine.run ~until:horizon eng);
  (h, ctl, eng)

let test_controller_reaches_monitor () =
  let h, ctl, _ = run_with_controller (Kernels.blackscholes ~n:8000 ()) in
  check_bool "region completed" true (R.Region.is_done h.Compiler.region);
  check_bool "semantics preserved" true (Compiler.preserves_semantics h);
  let states = R.Controller.states ctl in
  let codes = Parcae_util.Series.values states in
  check_bool "visited INIT" true (Array.exists (fun v -> v = 0.0) codes);
  check_bool "visited CALIB" true (Array.exists (fun v -> v = 1.0) codes);
  check_bool "visited OPT" true (Array.exists (fun v -> v = 2.0) codes);
  check_bool "reached MONITOR" true (Array.exists (fun v -> v = 3.0) codes)

let test_controller_beats_sequential () =
  (* Controller-managed run must be much faster than sequential. *)
  let loop = Kernels.blackscholes ~n:8000 () in
  let seq_ns = (Interp.run loop).Interp.work_ns in
  let h, _, eng = run_with_controller loop in
  check_bool "done" true (R.Region.is_done h.Compiler.region);
  let speedup = float_of_int seq_ns /. float_of_int (Engine.time eng) in
  check_bool (Printf.sprintf "speedup %.1f > 4" speedup) true (speedup > 4.0)

let test_controller_picks_parallel_scheme () =
  let h, _, _ = run_with_controller (Kernels.kmeans ~n:8000 ()) in
  let cfg = R.Region.config h.Compiler.region in
  check_bool "chose a parallel scheme" true (cfg.Config.choice > 0);
  check_bool "uses multiple threads" true (Config.threads cfg > 4)

let test_controller_keeps_recurrence_sequential () =
  (* No parallel scheme exists; the controller must settle on SEQ and the
     run must still complete correctly. *)
  let h, _, _ = run_with_controller (Kernels.recurrence ~n:5000 ()) in
  check_bool "done" true (R.Region.is_done h.Compiler.region);
  check_bool "semantics" true (Compiler.preserves_semantics h);
  check_int "SEQ scheme" 0 (R.Region.config h.Compiler.region).Config.choice

let test_controller_workload_change () =
  (* Crank the per-iteration work up mid-run: the monitor must detect the
     throughput drop and re-enter calibration. *)
  let driver _eng (h : Compiler.handle) _ctl =
    Engine.sleep 400_000_000;
    (* The loop only loads the knob, so its working array is the loop's
       own: this write also changes the loop's [knob], which
       [Kernels.adaptive] builds fresh on every call. *)
    let knob = List.assoc "knob" h.Compiler.rs.Flex.arrays in
    knob.(0) <- 240_000
  in
  let h, ctl, _ =
    run_with_controller ~driver (Kernels.adaptive ~n:400_000 ~work:60_000 ())
  in
  check_bool "done" true (R.Region.is_done h.Compiler.region);
  (* The state timeline must re-enter CALIB after having reached MONITOR. *)
  let codes = Parcae_util.Series.values (R.Controller.states ctl) in
  let monitor_seen = ref false and recalibrated = ref false in
  Array.iter
    (fun v ->
      if v = 3.0 then monitor_seen := true
      else if !monitor_seen && (v = 1.0 || v = 0.0) then recalibrated := true)
    codes;
  check_bool "re-entered calibration after workload change" true !recalibrated

let test_controller_resource_change () =
  (* Shrink the region's thread budget mid-run (as the daemon would when
     another program launches); the controller must recalibrate and fit
     within the new budget. *)
  let final_threads = ref max_int in
  let driver _eng (h : Compiler.handle) ctl =
    Engine.sleep 400_000_000;
    R.Region.set_budget h.Compiler.region 6;
    R.Controller.notify_resource_change ctl;
    (* Wait for the controller to act, then sample the configuration. *)
    Engine.sleep 1_500_000_000;
    if not (R.Region.is_done h.Compiler.region) then
      final_threads := Config.threads (R.Region.config h.Compiler.region)
  in
  let h, _, _ = run_with_controller ~driver (Kernels.blackscholes ~n:300_000 ()) in
  check_bool "done" true (R.Region.is_done h.Compiler.region);
  check_bool
    (Printf.sprintf "config fits reduced budget (threads=%d)" !final_threads)
    true (!final_threads <= 6)

let test_daemon_partitions_two_programs () =
  let eng = Engine.create machine in
  let daemon = R.Daemon.create eng ~total_threads:24 in
  let launch kernel name =
    let c = Compiler.compile kernel in
    let h = Compiler.launch ~budget:24 ~name eng c in
    let ctl = R.Controller.create ~params:controller_params h.Compiler.region in
    R.Daemon.register daemon h.Compiler.region ctl;
    ignore (R.Controller.spawn eng ctl);
    h
  in
  let h1 = launch (Kernels.blackscholes ~n:9000 ()) "p1" in
  let h2 = launch (Kernels.kmeans ~n:3000 ()) "p2" in
  ignore (R.Daemon.spawn eng daemon);
  (* While both run, each budget is half the platform. *)
  check_int "p1 budget" 12 (R.Region.budget h1.Compiler.region);
  check_int "p2 budget" 12 (R.Region.budget h2.Compiler.region);
  ignore (Engine.run ~until:120_000_000_000 eng);
  check_bool "p1 done" true (R.Region.is_done h1.Compiler.region);
  check_bool "p2 done" true (R.Region.is_done h2.Compiler.region);
  check_bool "p1 semantics" true (Compiler.preserves_semantics h1);
  check_bool "p2 semantics" true (Compiler.preserves_semantics h2)

let test_gradient_ascent_converges_synthetic () =
  (* The region's throughput curve is unimodal in the DoP with a peak at 6
     (efficiency collapses beyond); the gradient ascent should settle near
     it rather than at the budget cap. *)
  let loop = Kernels.url ~n:40_000 () in
  let params = { controller_params with R.Controller.max_monitor_rounds = 1 } in
  let h, _, _ = run_with_controller ~params ~budget:12 loop in
  check_bool "done" true (R.Region.is_done h.Compiler.region);
  check_bool "semantics" true (Compiler.preserves_semantics h)

let suite =
  [
    Alcotest.test_case "controller: reaches monitor" `Quick test_controller_reaches_monitor;
    Alcotest.test_case "controller: beats sequential" `Quick test_controller_beats_sequential;
    Alcotest.test_case "controller: picks parallel scheme" `Quick test_controller_picks_parallel_scheme;
    Alcotest.test_case "controller: recurrence stays SEQ" `Quick test_controller_keeps_recurrence_sequential;
    Alcotest.test_case "controller: workload change" `Quick test_controller_workload_change;
    Alcotest.test_case "controller: resource change" `Quick test_controller_resource_change;
    Alcotest.test_case "daemon: two programs" `Quick test_daemon_partitions_two_programs;
    Alcotest.test_case "controller: bounded budget" `Quick test_gradient_ascent_converges_synthetic;
  ]

let test_energy_delay_objective () =
  (* Section 6.4's retargeting example: under Min_energy_delay2 the
     controller trades a little throughput for a lot of power when the
     marginal speedup of extra threads is poor; it must choose no more
     threads than the throughput-maximizing controller, and strictly fewer
     on a kernel with visible saturation. *)
  let run objective =
    let loop = Kernels.finegrain ~n:400_000 () in
    let c = Compiler.compile loop in
    let eng = Engine.create machine in
    let h = Compiler.launch ~budget:24 eng c in
    let params =
      { controller_params with R.Controller.objective; npar_factor = 24 }
    in
    ignore (R.Controller.spawn eng (R.Controller.create ~params h.Compiler.region));
    ignore (Engine.run ~until:600_000_000_000 eng);
    check_bool "done" true (R.Region.is_done h.Compiler.region);
    check_bool "semantics" true (Compiler.preserves_semantics h);
    Config.threads (R.Region.config h.Compiler.region)
  in
  let thr_threads = run R.Controller.Max_throughput in
  let ed2_threads = run R.Controller.Min_energy_delay2 in
  check_bool
    (Printf.sprintf "ED2 uses no more threads (%d <= %d)" ed2_threads thr_threads)
    true
    (ed2_threads <= thr_threads)

let suite =
  suite
  @ [ Alcotest.test_case "controller: energy-delay objective" `Quick test_energy_delay_objective ]
