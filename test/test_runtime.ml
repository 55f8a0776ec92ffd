(* Tests for the Morta executor: region lifecycle, the pause/resume
   protocol with sentinel-based pipeline flushing, scheme switching, nested
   regions, and Decima accounting. *)

open Parcae_sim

(* Engine/value types come from the platform dispatch layer (the runtime's
   own types); [Machine]/[Power]/etc. remain from [Parcae_sim] above. *)
module Engine = Parcae_platform.Engine
module Chan = Parcae_platform.Chan
module Lock = Parcae_platform.Lock
open Parcae_core
open Parcae_runtime

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let machine () =
  { (Machine.test_machine ~cores:8 ()) with Machine.ctx_switch = 0; chan_op = 5; time_slice = 1_000_000 }

(* A three-stage pipeline: produce [n] items, transform (parallel), consume.
   Built with the Pipeline helpers so the flush protocol is exercised. *)
let make_pipeline ?(work = 100) eng n =
  let q1 = Chan.create eng "q1" and q2 = Chan.create eng "q2" in
  let produced = ref 0 and consumed = ref [] in
  let produce =
    Pipeline.source ~name:"produce"
      ~forward:(Pipeline.forward_to q1)
      (fun _ctx ->
        if !produced >= n then Task_status.Complete
        else begin
          Engine.compute (work / 2);
          Pipeline.send q1 !produced;
          incr produced;
          Task_status.Iterating
        end)
  in
  let transform =
    Pipeline.drain_stage ~max_batch:1 ~name:"transform" ~input:q1 ~load:(Pipeline.load q1)
      ~forward:(Pipeline.forward_to q2)
      (fun ctx v ->
        ctx.Task.hook_begin ();
        Engine.compute work;
        ctx.Task.hook_end ();
        Pipeline.send q2 (v * 2);
        Task_status.Iterating)
  in
  let consume =
    Pipeline.drain_stage ~max_batch:1 ~ttype:Task.Seq ~name:"consume" ~input:q2
      ~forward:(fun _ -> ())
      (fun _ctx v ->
        consumed := v :: !consumed;
        Task_status.Iterating)
  in
  let pd =
    Task.descriptor ~name:"pipeline"
      [ produce.Pipeline.task; transform.Pipeline.task; consume.Pipeline.task ]
  in
  let on_reset =
    Pipeline.make_reset ~stages:[ produce; transform; consume ] ~channels:[ q1; q2 ]
  in
  (pd, on_reset, produced, consumed, q1, q2)

let pipeline_config dop = Config.make [ Config.seq_task; Config.task dop; Config.seq_task ]

let test_region_completes () =
  let eng = Engine.create (machine ()) in
  let pd, on_reset, _, consumed, _, _ = make_pipeline eng 50 in
  let r = Executor.launch ~name:"p" eng [ pd ] ~on_reset (pipeline_config 2) in
  ignore (Engine.run eng);
  check_bool "region done" true (Region.is_done r);
  check_int "all items consumed" 50 (List.length !consumed);
  let sorted = List.sort compare !consumed in
  Alcotest.(check (list int)) "values correct" (List.init 50 (fun i -> i * 2)) sorted

let test_seq_consumer_order_preserved () =
  (* With transform at DoP 1 the pipeline must preserve order end-to-end. *)
  let eng = Engine.create (machine ()) in
  let pd, on_reset, _, consumed, _, _ = make_pipeline eng 30 in
  let _ = Executor.launch ~name:"p" eng [ pd ] ~on_reset (pipeline_config 1) in
  ignore (Engine.run eng);
  Alcotest.(check (list int)) "in order" (List.init 30 (fun i -> i * 2)) (List.rev !consumed)

let test_single_task_region () =
  let eng = Engine.create (machine ()) in
  let count = ref 0 in
  let t =
    Task.parallel ~name:"doall" (fun ctx ->
        match ctx.Task.get_status () with
        | Task_status.Paused -> Task_status.Paused
        | _ ->
            if !count >= 40 then Task_status.Complete
            else begin
              incr count;
              Engine.compute 10;
              Task_status.Iterating
            end)
  in
  let pd = Task.descriptor ~name:"doall" [ t ] in
  let r = Executor.launch ~name:"r" eng [ pd ] (Config.make [ Config.task 4 ]) in
  ignore (Engine.run eng);
  check_bool "done" true (Region.is_done r);
  check_int "instances" 40 !count

let test_pause_resume () =
  let eng = Engine.create (machine ()) in
  let pd, on_reset, produced, consumed, _, _ = make_pipeline ~work:2000 eng 200 in
  let observed_paused = ref false in
  let _ =
    Engine.spawn eng ~name:"morta" (fun () ->
        let r = Executor.launch ~name:"p" eng [ pd ] ~on_reset (pipeline_config 1) in
        Engine.sleep 30_000;
        let ok = Executor.pause r in
        check_bool "paused" true ok;
        observed_paused := Region.status r = Region.Paused;
        (* Pipeline flushed: everything produced has been consumed. *)
        let mid_produced = !produced and mid_consumed = List.length !consumed in
        check_bool "made progress before pause" true (mid_produced > 0);
        check_bool "progress incomplete at pause" true (mid_produced < 200);
        check_int "pipeline drained" mid_produced mid_consumed;
        Executor.resume ~config:(pipeline_config 4) r;
        Executor.await r;
        check_int "all consumed exactly once" 200 (List.length !consumed))
  in
  ignore (Engine.run eng);
  check_bool "pause observed" true !observed_paused;
  check_int "no duplicates" 200 (List.length (List.sort_uniq compare !consumed))

let test_repeated_reconfigurations () =
  (* Hammer the pause/resume path: reconfigure every 20 us across DoPs 1-6;
     no item may be lost or duplicated. *)
  let eng = Engine.create (machine ()) in
  let pd, on_reset, _, consumed, _, _ = make_pipeline ~work:300 eng 500 in
  let _ =
    Engine.spawn eng ~name:"morta" (fun () ->
        let r = Executor.launch ~name:"p" eng [ pd ] ~on_reset (pipeline_config 1) in
        let dop = ref 1 in
        while not (Region.is_done r) do
          Engine.sleep 20_000;
          dop := (!dop mod 6) + 1;
          Executor.reconfigure r (pipeline_config !dop)
        done)
  in
  ignore (Engine.run eng);
  check_int "all consumed" 500 (List.length !consumed);
  check_int "no duplicates" 500 (List.length (List.sort_uniq compare !consumed))

let test_reconfigure_changes_dop () =
  let eng = Engine.create (machine ()) in
  let pd, on_reset, _, consumed, _, _ = make_pipeline ~work:500 eng 400 in
  let _ =
    Engine.spawn eng ~name:"morta" (fun () ->
        let r = Executor.launch ~name:"p" eng [ pd ] ~on_reset (pipeline_config 1) in
        Engine.sleep 50_000;
        Executor.reconfigure r (pipeline_config 6);
        check_int "dop applied" 6 (Config.dops (Region.config r)).(1);
        check_int "one reconfiguration" 1 (Region.reconfig_count r);
        Executor.await r)
  in
  ignore (Engine.run eng);
  check_int "all consumed" 400 (List.length !consumed)

let test_scheme_switch () =
  let eng = Engine.create (machine ()) in
  let n = 300 in
  let next = ref 0 in
  let results = ref [] in
  let results_lock = Lock.create eng "results" in
  let doall name =
    Task.parallel ~name (fun ctx ->
        match ctx.Task.get_status () with
        | Task_status.Paused -> Task_status.Paused
        | _ ->
            if !next >= n then Task_status.Complete
            else begin
              let i = !next in
              incr next;
              Engine.compute 200;
              Lock.with_lock results_lock (fun () -> results := i :: !results);
              Task_status.Iterating
            end)
  in
  let scheme_a = Task.descriptor ~name:"DOANY-A" [ doall "a" ] in
  let scheme_b = Task.descriptor ~name:"DOANY-B" [ doall "b" ] in
  let _ =
    Engine.spawn eng ~name:"morta" (fun () ->
        let r =
          Executor.launch ~name:"r" eng [ scheme_a; scheme_b ]
            (Config.make ~choice:0 [ Config.task 2 ])
        in
        Engine.sleep 10_000;
        Executor.reconfigure r (Config.make ~choice:1 [ Config.task 4 ]);
        check_int "scheme switched" 1 (Region.scheme_switches r);
        Alcotest.(check string) "scheme name" "DOANY-B" (Region.scheme_name r);
        Executor.await r)
  in
  ignore (Engine.run eng);
  check_int "all processed exactly once" n (List.length (List.sort_uniq compare !results))

let test_nested_region () =
  let eng = Engine.create (machine ()) in
  let total = ref 0 in
  let make_inner () =
    let remaining = ref 10 in
    let inner =
      Task.parallel ~name:"inner" (fun _ctx ->
          if !remaining <= 0 then Task_status.Complete
          else begin
            decr remaining;
            Engine.compute 50;
            incr total;
            Task_status.Iterating
          end)
    in
    Task.descriptor ~name:"inner" [ inner ]
  in
  let outer_count = ref 0 in
  let outer =
    Task.parallel ~name:"outer"
      ~nested:[ Task.nested_choice ~name:"inner" ~seq:[ false ] make_inner ]
      (fun ctx ->
        if !outer_count >= 5 then Task_status.Complete
        else begin
          incr outer_count;
          (match ctx.Task.nested_cfg with
          | Some inner_cfg -> ctx.Task.run_nested inner_cfg
          | None ->
              Engine.compute 500;
              total := !total + 10);
          Task_status.Iterating
        end)
  in
  let pd = Task.descriptor ~name:"outer" [ outer ] in
  let cfg = Config.make [ Config.task ~nested:(Config.make [ Config.task 3 ]) 1 ] in
  let r = Executor.launch ~name:"r" eng [ pd ] cfg in
  ignore (Engine.run eng);
  check_bool "done" true (Region.is_done r);
  check_int "nested instances" 50 !total;
  check_int "thread accounting" 3 (Config.threads cfg)

let test_decima_accounting () =
  let eng = Engine.create (machine ()) in
  let pd, on_reset, _, _, _, _ = make_pipeline ~work:1000 eng 100 in
  let r = Executor.launch ~name:"p" eng [ pd ] ~on_reset (pipeline_config 2) in
  ignore (Engine.run eng);
  let d = Region.decima r in
  check_int "produce iters" 100 (Decima.iters d 0);
  check_int "transform iters" 100 (Decima.iters d 1);
  check_int "consume iters" 100 (Decima.iters d 2);
  check_bool "transform exec time measured" true (Decima.exec_time d 1 >= 900.0);
  check_bool "hooks were called" true (Decima.hook_calls d > 0)

let test_terminate () =
  let eng = Engine.create (machine ()) in
  let pd, on_reset, _, consumed, _, _ = make_pipeline eng 1_000_000 in
  let _ =
    Engine.spawn eng ~name:"morta" (fun () ->
        let r = Executor.launch ~name:"p" eng [ pd ] ~on_reset (pipeline_config 2) in
        Engine.sleep 50_000;
        Executor.terminate r;
        check_bool "done after terminate" true (Region.is_done r))
  in
  ignore (Engine.run eng);
  check_bool "partial progress only" true (List.length !consumed < 1_000_000)

let test_budget () =
  let eng = Engine.create (machine ()) in
  let pd, on_reset, _, _, _, _ = make_pipeline eng 10 in
  let r = Executor.launch ~budget:8 ~name:"p" eng [ pd ] ~on_reset (pipeline_config 2) in
  check_int "budget" 8 (Region.budget r);
  Region.set_budget r 4;
  check_int "budget updated" 4 (Region.budget r);
  check_int "threads in use" 4 (Region.threads_in_use r);
  ignore (Engine.run eng)

let test_pause_on_blocked_master () =
  (* The master blocks on an empty work queue; on_pause must inject a
     sentinel so the pause completes anyway. *)
  let eng = Engine.create (machine ()) in
  let wq = Chan.create eng "wq" in
  let served = ref 0 in
  let master =
    Pipeline.drain_stage ~max_batch:1 ~poll:true ~name:"serve" ~input:wq
      ~forward:(fun _ -> ())
      (fun _ctx () ->
        incr served;
        Task_status.Iterating)
  in
  let pd = Task.descriptor ~name:"server" [ master.Pipeline.task ] in
  let on_pause () = Pipeline.inject_flush wq in
  let on_reset = Pipeline.make_reset ~stages:[ master ] ~channels:[ wq ] in
  let paused_at = ref (-1) in
  let _ =
    Engine.spawn eng ~name:"morta" (fun () ->
        let r =
          Executor.launch ~name:"server" eng [ pd ] ~on_pause ~on_reset
            (Config.make [ Config.task 3 ])
        in
        Engine.sleep 5_000;
        (* All three lanes are blocked on the empty queue now. *)
        let ok = Executor.pause r in
        check_bool "pause succeeded despite blocked master" true ok;
        paused_at := Engine.now ();
        Executor.resume r;
        (* Feed two requests, then end the stream. *)
        Pipeline.send wq ();
        Pipeline.send wq ();
        Engine.sleep 5_000;
        Pipeline.inject_flush wq;
        Executor.await r)
  in
  ignore (Engine.run eng);
  check_bool "pause completed promptly" true (!paused_at >= 0 && !paused_at < 1_000_000);
  check_int "requests served after resume" 2 !served

let suite =
  [
    Alcotest.test_case "region: completes" `Quick test_region_completes;
    Alcotest.test_case "region: order preserved at dop 1" `Quick test_seq_consumer_order_preserved;
    Alcotest.test_case "region: single task" `Quick test_single_task_region;
    Alcotest.test_case "region: pause/resume" `Quick test_pause_resume;
    Alcotest.test_case "region: repeated reconfigurations" `Quick test_repeated_reconfigurations;
    Alcotest.test_case "region: reconfigure dop" `Quick test_reconfigure_changes_dop;
    Alcotest.test_case "region: scheme switch" `Quick test_scheme_switch;
    Alcotest.test_case "region: nested" `Quick test_nested_region;
    Alcotest.test_case "decima: accounting" `Quick test_decima_accounting;
    Alcotest.test_case "region: terminate" `Quick test_terminate;
    Alcotest.test_case "region: budget" `Quick test_budget;
    Alcotest.test_case "region: pause with blocked master" `Quick test_pause_on_blocked_master;
  ]

let test_decima_feature_registry () =
  (* The platform-feature registry of the paper's Figure 5.8: the
     mechanism developer registers named callbacks ("SystemPower", ...)
     that Morta samples. *)
  let eng = Engine.create (machine ()) in
  let d = Decima.create eng ~tasks:1 in
  Alcotest.(check (option (float 0.0))) "unknown feature" None (Decima.feature d "SystemPower");
  let calls = ref 0 in
  Decima.register_feature d "SystemPower" (fun () ->
      incr calls;
      Engine.instant_power eng);
  (match Decima.feature d "SystemPower" with
  | Some w -> check_bool "idle power" true (w >= 0.0)
  | None -> Alcotest.fail "registered feature missing");
  Decima.register_feature d "SystemPower" (fun () -> 42.0);
  Alcotest.(check (option (float 1e-9))) "re-registration replaces" (Some 42.0)
    (Decima.feature d "SystemPower");
  check_int "callback invoked" 1 !calls

let suite =
  suite
  @ [ Alcotest.test_case "decima: feature registry" `Quick test_decima_feature_registry ]
