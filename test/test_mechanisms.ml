(* Unit tests for the mechanism decision rules (Chapter 6), independent of
   full workload runs: WQT-H's hysteresis state machine, WQ-Linear's
   Equation 6.1, TBF's proportional allocation and imbalance trigger, and
   SEDA's local growth. *)

open Parcae_sim

(* Engine/value types come from the platform dispatch layer (the runtime's
   own types); [Machine]/[Power]/etc. remain from [Parcae_sim] above. *)
module Engine = Parcae_platform.Engine
module Chan = Parcae_platform.Chan
module Lock = Parcae_platform.Lock
open Parcae_core
open Parcae_runtime
module Mech = Parcae_mechanisms

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let machine = Machine.test_machine ~cores:8 ()

(* A minimal region whose single task spins until told to stop; mechanisms
   only need it for its current configuration and Decima statistics. *)
let make_trivial_region ?load eng ~dop =
  let stop = ref false in
  let task =
    Task.parallel ?load ~name:"spin" (fun ctx ->
        match ctx.Task.get_status () with
        | Task_status.Paused -> Task_status.Paused
        | _ ->
            if !stop then Task_status.Complete
            else begin
              Engine.compute 100;
              Task_status.Iterating
            end)
  in
  let pd = Task.descriptor ~name:"trivial" [ task ] in
  let r = Executor.launch ~budget:8 ~name:"trivial" eng [ pd ] (Config.make [ Config.task dop ]) in
  (r, stop)

(* ---------------------------- WQT-H ---------------------------- *)

let test_wqt_h_hysteresis () =
  let eng = Engine.create machine in
  let region, stop = make_trivial_region eng ~dop:2 in
  (* Both targets differ from the running configuration so a flip is
     always an observable proposal. *)
  let light = Config.make [ Config.task 3 ] and heavy = Config.make [ Config.task 6 ] in
  let load = ref 0.0 in
  let mech = Mech.Wqt_h.make ~load:(fun () -> !load) ~threshold:5.0 ~non:2 ~noff:2 ~light ~heavy () in
  (* Starts in Heavy; two low observations flip to Light. *)
  load := 1.0;
  check_bool "first low obs: no flip yet" true (mech region = None);
  (match mech region with
  | Some p ->
      check_bool "flips to light" true (Config.equal p.Morta.cfg light);
      Alcotest.(check string) "light reason" "wq_toggle_light" p.Morta.why
  | None -> Alcotest.fail "expected flip to light");
  (* One high observation is not enough (hysteresis). *)
  load := 10.0;
  check_bool "one high obs: no flip" true (mech region = None);
  load := 1.0;
  (* The counter must have been reset by the low observation. *)
  check_bool "counter reset" true (mech region = None);
  load := 10.0;
  check_bool "high 1/2" true (mech region = None);
  (match mech region with
  | Some p ->
      check_bool "flips to heavy" true (Config.equal p.Morta.cfg heavy);
      Alcotest.(check string) "heavy reason" "wq_toggle_heavy" p.Morta.why
  | None -> Alcotest.fail "expected flip to heavy");
  stop := true;
  ignore (Engine.run eng)

(* -------------------------- WQ-Linear -------------------------- *)

let test_wq_linear_formula () =
  (* Equation 6.1: dP = max(dPmin, dPmax - k*WQo), k = (dPmax-dPmin)/Qmax *)
  let dop q = Mech.Wq_linear.dop_of_load ~dpmin:1 ~dpmax:8 ~qmax:14.0 q in
  check_int "empty queue -> dPmax" 8 (dop 0.0);
  check_int "full queue -> dPmin" 1 (dop 14.0);
  check_int "beyond qmax clamps" 1 (dop 100.0);
  check_bool "monotone nonincreasing" true
    (List.for_all
       (fun (a, b) -> dop a >= dop b)
       [ (0.0, 2.0); (2.0, 5.0); (5.0, 9.0); (9.0, 14.0) ]);
  (* 8 - 0.5*7 = 4.5, rounded half away from zero *)
  check_int "midpoint" 5 (dop 7.0)

(* ----------------------------- TBF ----------------------------- *)

(* Build a region with a 3-stage pipeline whose middle stages have known
   exec times, measured through real hooks on a simulated thread. *)
let test_tbf_proportional () =
  let eng = Engine.create machine in
  let d = Decima.create eng ~tasks:4 in
  (* Feed Decima synthetic exec times: task 1 -> 1 us, task 2 -> 3 us. *)
  let _ =
    Engine.spawn eng ~name:"feeder" (fun () ->
        let slot = Decima.make_slot () in
        for _ = 1 to 5 do
          Decima.hook_begin d slot;
          Engine.compute 1_000;
          Decima.hook_end d ~task:1 slot;
          Decima.hook_begin d slot;
          Engine.compute 3_000;
          Decima.hook_end d ~task:2 slot
        done)
  in
  ignore (Engine.run eng);
  let seqish = Task.sequential ~name:"s" (fun _ -> Task_status.Complete) in
  let par n = Task.parallel ~name:n (fun _ -> Task_status.Complete) in
  let pd = Task.descriptor ~name:"p" [ seqish; par "a"; par "b"; seqish ] in
  let dops = Mech.Tbf.proportional_dops pd d 8 in
  check_int "seq stays 1" 1 dops.(0);
  check_int "fast stage gets 1/4" 2 dops.(1);
  check_int "slow stage gets 3/4" 6 dops.(2);
  (* Imbalance: (3 - 1) / 3 = 0.67 > 0.5. *)
  check_bool "imbalance detected" true (Mech.Tbf.imbalance_of pd d > 0.5)

(* ----------------------------- SEDA ---------------------------- *)

let test_seda_grows_loaded_stages () =
  let eng = Engine.create machine in
  let q_len = ref 0.0 in
  let region, stop = make_trivial_region ~load:(fun () -> !q_len) eng ~dop:1 in
  let mech = Mech.Seda.make ~threshold:5.0 ~max_per_stage:3 () in
  q_len := 2.0;
  check_bool "below threshold: no growth" true (mech region = None);
  q_len := 9.0;
  (match mech region with
  | Some p ->
      check_int "grew by one" 2 (Config.dops p.Morta.cfg).(0);
      Alcotest.(check string) "seda reason" "queue_threshold" p.Morta.why
  | None -> Alcotest.fail "expected growth");
  stop := true;
  ignore (Engine.run eng)

let test_seda_respects_cap () =
  let eng = Engine.create machine in
  let q_len = ref 100.0 in
  let region, stop = make_trivial_region ~load:(fun () -> !q_len) eng ~dop:3 in
  let mech = Mech.Seda.make ~threshold:5.0 ~max_per_stage:3 () in
  check_bool "at cap: no growth" true (mech region = None);
  stop := true;
  ignore (Engine.run eng)

(* --------------------------- Static ---------------------------- *)

let test_static_never_changes () =
  let eng = Engine.create machine in
  let region, stop = make_trivial_region eng ~dop:4 in
  for _ = 1 to 5 do
    check_bool "static proposes nothing" true (Mech.Static.mechanism region = None)
  done;
  stop := true;
  ignore (Engine.run eng)

let suite =
  [
    Alcotest.test_case "wqt-h: hysteresis state machine" `Quick test_wqt_h_hysteresis;
    Alcotest.test_case "wq-linear: equation 6.1" `Quick test_wq_linear_formula;
    Alcotest.test_case "tbf: proportional allocation" `Quick test_tbf_proportional;
    Alcotest.test_case "seda: grows loaded stages" `Quick test_seda_grows_loaded_stages;
    Alcotest.test_case "seda: respects per-stage cap" `Quick test_seda_respects_cap;
    Alcotest.test_case "static: never changes" `Quick test_static_never_changes;
  ]
