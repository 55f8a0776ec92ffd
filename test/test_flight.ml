(* Tests for the controller flight recorder (lib/obs/flight.ml), the
   reconfiguration overhead ledger (lib/obs/ledger.ml), and offline decision
   replay: JSONL round-trips, controller runs whose logs replay to the same
   moves on both backends, mechanism (Morta) decisions doing the same,
   daemon grants, and the ledger's phase decomposition summing to the
   measured reconfiguration time on the simulator. *)

open Parcae_ir
open Parcae_sim
module Engine = Parcae_platform.Engine
module Chan = Parcae_platform.Chan
open Parcae_nona
open Parcae_core
module R = Parcae_runtime
module Mech = Parcae_mechanisms
module Obs = Parcae_obs
module Flight = Obs.Flight
module Ledger = Obs.Ledger
module Config = Parcae_core.Config

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let machine = Machine.xeon_x7460

let decisions_of entries =
  List.filter_map (function Flight.Decision d -> Some d | _ -> None) entries

let overheads_of entries =
  List.filter_map (function Flight.Overhead o -> Some o | _ -> None) entries

(* Every decision must explain itself; the acceptance bar for the
   recorder. *)
let check_reasons entries =
  List.iter
    (fun (d : Flight.decision) ->
      check_bool
        (Printf.sprintf "epoch %d (%s/%s) has a reason" d.Flight.epoch d.Flight.actor
           d.Flight.region)
        true
        (d.Flight.reason <> ""))
    (decisions_of entries)

let check_replay label entries =
  let rr = Flight.replay entries in
  (match rr.Flight.mismatches with
  | [] -> ()
  | (epoch, what) :: _ ->
      Alcotest.failf "%s: %d replay mismatch(es), first at epoch %d: %s" label
        (List.length rr.Flight.mismatches)
        epoch what);
  check_bool (label ^ ": replay reproduces the recorded moves") true
    (rr.Flight.moves = Flight.recorded_moves entries);
  rr

(* ---------------------------- round-trip ---------------------------- *)

let test_jsonl_roundtrip () =
  let rc = Flight.create () in
  Flight.with_recorder rc (fun () ->
      Flight.decision ~t:1_000 ~actor:"controller" ~region:"r" ~state:Obs.Event.Optimize
        ~reason:"gradient_positive"
        ~tasks:
          [
            { Flight.task = "seq"; iters = 10; ips = 0.1; exec_ns = 1234.5 };
            { Flight.task = "par"; iters = 400; ips = 12345.678; exec_ns = 0.125 };
          ]
        ~probes:[ (4, 100.0); (5, 110.5); (3, 90.25) ]
        ~gradient:10.5
        ~inputs:[ ("task", 1.0); ("cap", 24.0) ]
        ~candidate:4 ~chosen:5 ~threads:7 ~budget:24 ();
      Flight.decision ~t:2_000 ~actor:"daemon" ~region:"platform" ~reason:"equal_share"
        ~slack:[ ("p1", 12); ("p2", 12) ]
        ~candidate:24 ~chosen:24 ~threads:24 ~budget:24 ();
      (* Minimal decision: every optional field absent. *)
      Flight.decision ~t:3_000 ~actor:"morta" ~region:"r" ~reason:"queue_threshold"
        ~candidate:3 ~chosen:3 ~threads:3 ~budget:8 ();
      Flight.overhead ~t:4_000 ~region:"r" ~phase:"signal" ~ns:62_245);
  let entries = Flight.entries rc in
  check_int "four entries" 4 (List.length entries);
  (* Epochs are stamped monotonically by the recorder. *)
  check_bool "monotonic epochs" true
    (List.map (fun d -> d.Flight.epoch) (decisions_of entries) = [ 0; 1; 2 ]);
  let back = Flight.parse_jsonl (Flight.to_jsonl entries) in
  check_bool "JSONL round-trips structurally" true (back = entries);
  (* An awkward float survives the text form exactly. *)
  let rc2 = Flight.create () in
  Flight.with_recorder rc2 (fun () ->
      Flight.decision ~t:1 ~actor:"controller" ~region:"r" ~reason:"baseline"
        ~probes:[ (1, 0.1) ] ~candidate:1 ~chosen:1 ~threads:1 ~budget:1 ());
  let e2 = Flight.entries rc2 in
  check_bool "0.1 round-trips exactly" true (Flight.parse_jsonl (Flight.to_jsonl e2) = e2)

let test_recorder_discipline () =
  check_bool "disabled by default" false (Flight.enabled ());
  (* Recording into the null recorder is a no-op, not an error. *)
  Flight.decision ~t:0 ~actor:"controller" ~region:"r" ~reason:"baseline" ~candidate:1
    ~chosen:1 ~threads:1 ~budget:1 ();
  let rc = Flight.create () in
  Flight.with_recorder rc (fun () ->
      check_bool "enabled inside with_recorder" true (Flight.enabled ());
      Flight.overhead ~t:1 ~region:"r" ~phase:"flush" ~ns:10);
  check_bool "with_recorder restores" false (Flight.enabled ());
  check_int "entry landed" 1 (Flight.count rc)

(* ------------------------ pure ascent rule -------------------------- *)

let test_ascent_climb () =
  (* A unimodal fitness peaked at 6: climbing from 4 must reach it. *)
  let f d = Some (100.0 -. float_of_int ((d - 6) * (d - 6))) in
  (match Flight.Ascent.climb ~measure:f ~d0:4 ~cap:24 with
  | Some oc ->
      check_int "finds the peak" 6 oc.Flight.Ascent.chosen;
      check_string "reports direction" "gradient_positive" oc.Flight.Ascent.reason;
      check_bool "probe table covers the walk" true
        (List.mem_assoc 4 oc.Flight.Ascent.probes && List.mem_assoc 6 oc.Flight.Ascent.probes)
  | None -> Alcotest.fail "climb bailed");
  (* Decreasing fitness: walks down, prefers fewer threads at a tie. *)
  (match Flight.Ascent.climb ~measure:(fun d -> Some (-.float_of_int d)) ~d0:4 ~cap:24 with
  | Some oc ->
      check_int "walks to the floor" 1 oc.Flight.Ascent.chosen;
      check_string "downward reason" "gradient_negative" oc.Flight.Ascent.reason
  | None -> Alcotest.fail "climb bailed");
  (* Constant fitness: a tie goes up (the controller's original rule — at
     equal throughput it prefers probing the larger DoP once), then the
     strict-improvement test stops the walk immediately. *)
  (match Flight.Ascent.climb ~measure:(fun _ -> Some 5.0) ~d0:4 ~cap:24 with
  | Some oc ->
      check_int "tie steps up once" 5 oc.Flight.Ascent.chosen;
      check_string "tie reason" "gradient_positive" oc.Flight.Ascent.reason
  | None -> Alcotest.fail "climb bailed");
  (* Fitness peaked at the candidate itself: both probes lose, stays put. *)
  (match
     Flight.Ascent.climb ~measure:(fun d -> Some (-.abs_float (float_of_int (d - 4)))) ~d0:4
       ~cap:24
   with
  | Some oc ->
      check_int "flat stays" 4 oc.Flight.Ascent.chosen;
      check_string "flat reason" "gradient_flat" oc.Flight.Ascent.reason
  | None -> Alcotest.fail "climb bailed");
  (* The region finishing mid-search aborts the climb. *)
  check_bool "None measure aborts" true
    (Flight.Ascent.climb ~measure:(fun _ -> None) ~d0:4 ~cap:24 = None)

(* --------------------- controller record/replay --------------------- *)

let controller_params =
  {
    R.Controller.default_params with
    R.Controller.nseq = 8;
    poll_ns = 20_000;
    monitor_ns = 10_000_000;
    change_frac = 0.3;
  }

(* Compile [loop] and run it to completion under the closed-loop controller
   on [eng], with a flight recorder installed; returns the log. *)
let controller_log eng loop =
  let rc = Flight.create () in
  Flight.with_recorder rc (fun () ->
      let c = Compiler.compile loop in
      let h = Compiler.launch ~budget:8 eng c in
      let ctl = R.Controller.create ~params:controller_params h.Compiler.region in
      ignore (R.Controller.spawn eng ctl);
      ignore (Engine.run ~until:60_000_000_000 eng);
      check_bool "region completed" true (R.Region.is_done h.Compiler.region));
  Flight.entries rc

let check_controller_log label entries =
  let ds = decisions_of entries in
  check_bool (label ^ ": recorded decisions") true (ds <> []);
  check_reasons entries;
  check_bool (label ^ ": saw a gradient decision") true
    (List.exists
       (fun d ->
         d.Flight.actor = "controller"
         && (d.Flight.reason = "gradient_positive"
            || d.Flight.reason = "gradient_negative"
            || d.Flight.reason = "gradient_flat"))
       ds);
  check_bool (label ^ ": controller decisions carry Decima evidence") true
    (List.for_all
       (fun d -> d.Flight.actor <> "controller" || d.Flight.tasks <> [])
       ds);
  let rr = check_replay label entries in
  check_int (label ^ ": replay examined every decision") (List.length ds) rr.Flight.decisions;
  check_bool (label ^ ": some configuration moves were applied") true
    (List.exists (fun (_, ms) -> ms <> []) rr.Flight.moves)

let test_controller_replay_sim () =
  let entries = controller_log (Engine.create machine) (Kernels.blackscholes ~n:8000 ()) in
  check_controller_log "sim" entries;
  (* A full run on the sim also exercises the ledger fan-out into the
     recorder: reconfigurations leave overhead entries behind. *)
  check_bool "overhead entries recorded" true (overheads_of entries <> [])

let test_controller_replay_native () =
  let eng = Engine.create_native ~pool:2 () in
  let entries = controller_log eng (Kernels.blackscholes ~n:8000 ()) in
  Engine.shutdown eng;
  check_controller_log "native" entries;
  (* The log is backend-agnostic: it survives the JSONL round-trip and the
     parsed form replays identically. *)
  ignore (check_replay "native/jsonl" (Flight.parse_jsonl (Flight.to_jsonl entries)))

(* --------------------- mechanism record/replay ---------------------- *)

(* A single-parallel-task region that runs [iters] countdown iterations of
   [work] ns compute + [work] ns sleep each, and whose load signal is purely
   time-driven (low before [flip_ns], high after), so the same driver works
   unchanged on both backends — no shared mutable test state crosses domains
   on native.  The sleep half matters on native: workers that only spin keep
   their home domain and the engine's runtime lock so busy that the Morta
   thread starves until the region exits; sleeping workers release both. *)
let mech_log eng ~iters ~work ~dop ~mechanism =
  let rc = Flight.create () in
  Flight.with_recorder rc (fun () ->
      let left = Atomic.make iters in
      let task =
        Task.parallel ~name:"spin" (fun ctx ->
            match ctx.Task.get_status () with
            | Task_status.Paused -> Task_status.Paused
            | _ ->
                if Atomic.fetch_and_add left (-1) <= 0 then Task_status.Complete
                else begin
                  Engine.compute work;
                  Engine.sleep work;
                  Task_status.Iterating
                end)
      in
      let pd = Task.descriptor ~name:"mech" [ task ] in
      let region =
        R.Executor.launch ~budget:8 ~name:"mech" eng [ pd ]
          (Config.make [ Config.task dop ])
      in
      ignore (R.Morta.spawn ~period_ns:200_000 ~mechanism eng region);
      ignore (Engine.run ~until:60_000_000_000 eng);
      check_bool "mech region completed" true (R.Region.is_done region));
  Flight.entries rc

let flip_ns = 2_000_000

let low_high () = if Engine.now () < flip_ns then 1.0 else 10.0
let high_low () = if Engine.now () < flip_ns then 10.0 else 1.0

(* The native load signal flips after Morta's fourth read, not at a wall
   time: a Morta thread that missed two 200 us ticks inside a 2 ms window
   would never see the low load. *)
let low_high_reads () =
  let reads = Atomic.make 0 in
  fun () -> if Atomic.fetch_and_add reads 1 < 4 then 1.0 else 10.0

(* WQT-H starts Heavy; a sustained low load toggles it Light, and the later
   high load toggles it back — two decisions with distinct reasons. *)
let wqt_h_mech ?(load = low_high) () =
  Mech.Wqt_h.make ~load ~threshold:5.0 ~non:2 ~noff:2
    ~light:(Config.make [ Config.task 2 ])
    ~heavy:(Config.make [ Config.task 3 ])
    ()

(* SEDA grows the loaded stage by one thread per tick once the queue signal
   crosses the threshold. *)
let seda_region_mech () =
  Mech.Seda.make ~threshold:5.0 ~max_per_stage:3 ()

let check_mech_log label ~expect entries =
  let morta =
    List.filter (fun d -> d.Flight.actor = "morta") (decisions_of entries)
  in
  check_bool (label ^ ": morta recorded decisions") true (morta <> []);
  check_reasons entries;
  List.iter
    (fun reason ->
      check_bool
        (Printf.sprintf "%s: saw reason %s" label reason)
        true
        (List.exists (fun d -> d.Flight.reason = reason) morta))
    expect;
  ignore (check_replay label entries)

let test_mechanism_replay_sim () =
  let entries =
    mech_log (Engine.create machine) ~iters:20_000 ~work:1_000 ~dop:3
      ~mechanism:(wqt_h_mech ())
  in
  check_mech_log "sim/wqt-h" ~expect:[ "wq_toggle_light"; "wq_toggle_heavy" ] entries;
  (* SEDA needs the region's load signal; reuse the time-driven one. *)
  let eng = Engine.create machine in
  let rc = Flight.create () in
  Flight.with_recorder rc (fun () ->
      let left = Atomic.make 20_000 in
      let task =
        Task.parallel ~load:high_low ~name:"spin" (fun ctx ->
            match ctx.Task.get_status () with
            | Task_status.Paused -> Task_status.Paused
            | _ ->
                if Atomic.fetch_and_add left (-1) <= 0 then Task_status.Complete
                else begin
                  Engine.compute 1_000;
                  Task_status.Iterating
                end)
      in
      let pd = Task.descriptor ~name:"seda" [ task ] in
      let region =
        R.Executor.launch ~budget:8 ~name:"seda" eng [ pd ]
          (Config.make [ Config.task 1 ])
      in
      ignore (R.Morta.spawn ~period_ns:200_000 ~mechanism:(seda_region_mech ()) eng region);
      ignore (Engine.run ~until:60_000_000_000 eng));
  check_mech_log "sim/seda" ~expect:[ "queue_threshold" ] (Flight.entries rc)

let test_mechanism_replay_native () =
  let eng = Engine.create_native ~pool:2 () in
  let entries =
    mech_log eng ~iters:2_000 ~work:5_000 ~dop:3
      ~mechanism:(wqt_h_mech ~load:(low_high_reads ()) ())
  in
  Engine.shutdown eng;
  (* Real time makes the second toggle racy against region completion; the
     first (light) toggle is deterministic — the first four reads are low. *)
  check_mech_log "native/wqt-h" ~expect:[ "wq_toggle_light" ] entries

(* -------------------------- daemon grants --------------------------- *)

let test_daemon_grants_recorded () =
  let rc = Flight.create () in
  Flight.with_recorder rc (fun () ->
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
      let h1 = launch (Kernels.blackscholes ~n:6000 ()) "p1" in
      let h2 = launch (Kernels.kmeans ~n:2000 ()) "p2" in
      ignore (R.Daemon.spawn eng daemon);
      ignore (Engine.run ~until:120_000_000_000 eng);
      check_bool "both done" true
        (R.Region.is_done h1.Compiler.region && R.Region.is_done h2.Compiler.region));
  let entries = Flight.entries rc in
  let daemon_ds =
    List.filter (fun d -> d.Flight.actor = "daemon") (decisions_of entries)
  in
  check_bool "daemon recorded grants" true (daemon_ds <> []);
  check_bool "equal_share grant present" true
    (List.exists (fun d -> d.Flight.reason = "equal_share") daemon_ds);
  (* Grants name every registered program with a positive share within the
     platform total. *)
  List.iter
    (fun (d : Flight.decision) ->
      check_bool "grant carries shares" true (d.Flight.slack <> []);
      check_bool "shares positive" true (List.for_all (fun (_, s) -> s >= 1) d.Flight.slack);
      check_bool "shares within total" true
        (List.fold_left (fun a (_, s) -> a + s) 0 d.Flight.slack <= d.Flight.budget))
    daemon_ds;
  check_reasons entries;
  ignore (check_replay "daemon" entries)

(* ------------------------ overhead ledger --------------------------- *)

(* The pipeline of test_native, with deliberately staggered stage costs so
   the workers park at different times (a nonzero barrier phase). *)
let ledger_pipeline eng =
  let q1 = Chan.create ~capacity:8 eng "q1" and q2 = Chan.create ~capacity:8 eng "q2" in
  let items = 60 in
  let produced = ref 0 and consumed = ref 0 in
  let produce =
    Pipeline.source ~name:"produce"
      ~forward:(Pipeline.forward_to q1)
      (fun _ctx ->
        if !produced >= items then Task_status.Complete
        else begin
          Engine.compute 13_000;
          Pipeline.send q1 !produced;
          incr produced;
          Task_status.Iterating
        end)
  in
  let transform =
    Pipeline.drain_stage ~max_batch:1 ~name:"transform" ~input:q1 ~load:(Pipeline.load q1)
      ~forward:(Pipeline.forward_to q2)
      (fun _ctx v ->
        Engine.compute 50_001;
        Pipeline.send q2 v;
        Task_status.Iterating)
  in
  let consume =
    Pipeline.drain_stage ~max_batch:1 ~ttype:Task.Seq ~name:"consume" ~input:q2
      ~forward:(fun _ -> ())
      (fun _ctx _ ->
        incr consumed;
        Task_status.Iterating)
  in
  let pd =
    Task.descriptor ~name:"ledger"
      [ produce.Pipeline.task; transform.Pipeline.task; consume.Pipeline.task ]
  in
  let on_reset =
    Pipeline.make_reset ~stages:[ produce; transform; consume ] ~channels:[ q1; q2 ]
  in
  let config dop = Config.make [ Config.seq_task; Config.task dop; Config.seq_task ] in
  let region =
    R.Executor.launch ~budget:8 ~name:"ledger" eng [ pd ] ~on_reset (config 2)
  in
  ignore
    (Engine.spawn eng ~name:"watcher" (fun () ->
         Engine.sleep 300_000;
         if not (R.Region.is_done region) then R.Executor.reconfigure region (config 3)));
  ignore (Engine.run ~until:60_000_000_000 eng);
  !consumed

let test_ledger_phase_decomposition () =
  let led = Ledger.create () in
  let reg = Obs.Metrics.create () in
  let rc = Flight.create () in
  let consumed =
    Ledger.with_ledger led (fun () ->
        Obs.Metrics.with_registry reg (fun () ->
            Flight.with_recorder rc (fun () -> ledger_pipeline (Engine.create machine))))
  in
  check_int "pipeline consumed every item" 60 consumed;
  let p phase = Ledger.phase_ns led ~region:"ledger" ~phase in
  let total = p "total" in
  check_bool "measured a reconfiguration" true (total > 0);
  List.iter
    (fun phase ->
      check_bool (Printf.sprintf "phase %s nonzero (%d ns)" phase (p phase)) true
        (p phase > 0))
    Ledger.phases;
  (* The disjoint phases must account for the measured wall time: within 5%
     (on the cooperative simulator they sum exactly). *)
  let summed = List.fold_left (fun a ph -> a + p ph) 0 Ledger.phases in
  check_bool
    (Printf.sprintf "phases sum to the total (%d vs %d)" summed total)
    true
    (abs (summed - total) <= total / 20);
  (* The same measurements fanned out to the metrics registry... *)
  let fam =
    List.find_opt
      (fun f -> f.Obs.Metrics.name = "parcae_reconfig_phase_ns_total")
      (Obs.Metrics.snapshot reg)
  in
  (match fam with
  | Some f ->
      check_bool "metrics carry per-phase samples" true
        (List.length f.Obs.Metrics.samples >= List.length Ledger.phases)
  | None -> Alcotest.fail "parcae_reconfig_phase_ns_total missing from the registry");
  (* ...and to the flight recorder. *)
  let os = overheads_of (Flight.entries rc) in
  check_bool "flight has overhead entries" true (os <> []);
  List.iter
    (fun ph ->
      check_bool (ph ^ " phase in flight log") true
        (List.exists (fun o -> o.Flight.o_phase = ph) os))
    ("total" :: Ledger.phases);
  (* The ledger snapshot agrees with the per-phase reads. *)
  List.iter
    (fun (region, phase, ns) ->
      if region = "ledger" then
        check_int ("snapshot agrees on " ^ phase) (Ledger.phase_ns led ~region ~phase) ns)
    (Ledger.snapshot led)

let suite =
  [
    Alcotest.test_case "flight: JSONL round-trip" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "flight: null-recorder discipline" `Quick test_recorder_discipline;
    Alcotest.test_case "flight: pure ascent rule" `Quick test_ascent_climb;
    Alcotest.test_case "flight: controller replay on sim" `Quick test_controller_replay_sim;
    Alcotest.test_case "flight: controller replay on native" `Quick
      test_controller_replay_native;
    Alcotest.test_case "flight: mechanism replay on sim" `Quick test_mechanism_replay_sim;
    Alcotest.test_case "flight: mechanism replay on native" `Quick
      test_mechanism_replay_native;
    Alcotest.test_case "flight: daemon grants recorded and replayed" `Quick
      test_daemon_grants_recorded;
    Alcotest.test_case "ledger: phase decomposition sums to total" `Quick
      test_ledger_phase_decomposition;
  ]
