(* Trace-oracle property tests: every workload of Table 8.2 is run under
   the closed-loop controller and under each Chapter 6 administrator
   mechanism with tracing on, and every resulting trace must satisfy the
   runtime-protocol invariant checker.  This turns each workload run into
   a protocol test: FSM transitions per Figure 6.3, pause/resume pairing
   with channel flushes in between (Section 4.5), budgets respected under
   the controller, and daemon shares within the platform total. *)

open Parcae_sim

(* Engine/value types come from the platform dispatch layer (the runtime's
   own types); [Machine]/[Power]/etc. remain from [Parcae_sim] above. *)
module Engine = Parcae_platform.Engine
module Chan = Parcae_platform.Chan
module Lock = Parcae_platform.Lock
open Parcae_workloads
module Obs = Parcae_obs
module Sink = Obs.Sink
module Trace = Obs.Trace
module Oracle = Obs.Oracle
module R = Parcae_runtime
module Rng = Parcae_util.Rng

let check_bool = Alcotest.(check bool)

let machine = Machine.xeon_x7460
let requests = 25

(* The six workloads of Table 8.2. *)
let workloads : (string * (budget:int -> Engine.t -> App.t)) list =
  [
    ("bzip", fun ~budget eng -> Bzip.make ~budget eng);
    ("swaptions", fun ~budget eng -> Swaptions.make ~budget eng);
    ("transcode", fun ~budget eng -> Transcode.make ~budget eng);
    ("gimp_oilify", fun ~budget eng -> Gimp_oilify.make ~budget eng);
    ("ferret", fun ~budget eng -> Ferret.make ~budget eng);
    ("dedup", fun ~budget eng -> Dedup.make ~budget eng);
  ]

(* Looked up in the mechanism table the CLI's [-m] runs. *)
let mechanisms = [ "wqt-h"; "wq-linear"; "tbf"; "fdp"; "seda"; "tpc" ]

let assert_ok label result =
  match result with
  | Ok _ -> ()
  | Error vs ->
      Alcotest.fail
        (Printf.sprintf "%s: %d violation(s)\n%s" label (List.length vs)
           (Oracle.violations_to_string vs))

(* --------------------- mechanisms over workloads --------------------- *)

let run_under_mechanism mk mech_name =
  let sink = Sink.create ~capacity:500_000 () in
  let r, _, _ =
    Trace.with_sink sink (fun () ->
        Experiments.run_batch ~m:requests ~seed:5 ~machine
          ~mechanism:(Option.get (List.assoc mech_name Experiments.mechanisms))
          ~config:`Default mk)
  in
  (r, sink)

let test_mechanisms_satisfy_oracle (name, mk) () =
  List.iter
    (fun mech_name ->
      let r, sink = run_under_mechanism mk mech_name in
      check_bool
        (Printf.sprintf "%s/%s completed requests" name mech_name)
        true
        (r.Experiments.completed > 0);
      (* Administrator mechanisms may deliberately oversubscribe the
         budget (WQT-H's heavy mode), so budget conformance is off; the
         flush protocol is mandatory for these channel workloads. *)
      assert_ok
        (Printf.sprintf "%s/%s" name mech_name)
        (Oracle.check ~require_flush:true (Sink.events sink)))
    mechanisms

(* -------------------- controller over workloads ---------------------- *)

let controller_params =
  {
    R.Controller.default_params with
    R.Controller.nseq = 4;
    poll_ns = 100_000;
    monitor_ns = 50_000_000;
    change_frac = 0.3;
  }

let test_controller_satisfies_oracle (name, mk) () =
  let sink = Sink.create ~capacity:500_000 () in
  let events, two_level =
    Trace.with_sink sink (fun () ->
        let eng = Engine.create machine in
        let app : App.t = mk ~budget:machine.Machine.cores eng in
        let rng = Rng.create 9 in
        ignore
          (Load_gen.spawn_batch ~rng ~m:requests ~queue:app.App.queue ~metrics:app.App.metrics eng);
        let region =
          R.Executor.launch ~budget:machine.Machine.cores ~name:app.App.name eng app.App.schemes
            app.App.default_config ~on_pause:app.App.on_pause ~on_reset:app.App.on_reset
        in
        ignore (R.Controller.spawn eng (R.Controller.create ~params:controller_params region));
        let horizon = (requests * app.App.seq_request_ns) + 60_000_000_000 in
        ignore (Engine.run ~until:horizon eng);
        (Sink.events sink, Option.is_some app.App.inner_dop_config))
  in
  check_bool (name ^ ": trace captured") true (List.length events > 3);
  (* The closed-loop controller must flush channels on every
     reconfiguration, and on the two-level servers stay within the region
     budget too.  The flat pipelines' "even" launch config rounds
     per-stage shares up and may exceed the budget by rounding, so budget
     conformance is only asserted for the two-level workloads. *)
  assert_ok (name ^ "/controller")
    (Oracle.check ~require_flush:true ~check_budget:two_level events)

let suite =
  List.concat_map
    (fun ((name, _) as w) ->
      [
        Alcotest.test_case
          (Printf.sprintf "%s: controller trace satisfies oracle" name)
          `Quick (test_controller_satisfies_oracle w);
        Alcotest.test_case
          (Printf.sprintf "%s: mechanism traces satisfy oracle" name)
          `Quick (test_mechanisms_satisfy_oracle w);
      ])
    workloads
