(* Integration tests for the workload models: calibration sanity (speedups,
   crossovers) and mechanism behaviour on the simulated 24-thread Xeon. *)

open Parcae_sim

(* Engine/value types come from the platform dispatch layer (the runtime's
   own types); [Machine]/[Power]/etc. remain from [Parcae_sim] above. *)
module Engine = Parcae_platform.Engine
module Chan = Parcae_platform.Chan
module Lock = Parcae_platform.Lock
open Parcae_workloads

let check_bool = Alcotest.(check bool)

let machine = Machine.xeon_x7460

let mk_transcode ~budget eng = Transcode.make ~budget eng
let mk_ferret ~budget eng = Ferret.make ~budget eng
let mk_dedup ~budget eng = Dedup.make ~budget eng

let test_transcode_max_throughput () =
  let thr = Experiments.max_throughput ~m:100 ~machine mk_transcode in
  (* 24 cores, ~1.68 s per video sequentially -> ~14 videos/s. *)
  check_bool (Printf.sprintf "max throughput %.2f in [10, 18]" thr) true (thr > 10.0 && thr < 18.0)

let test_transcode_inner_speedup () =
  (* At light load, inner parallelism must cut per-video execution time by
     ~6x (paper: 6.3x at 8 threads). *)
  let rate = 1.0 in
  let outer =
    Experiments.run_server ~m:30 ~machine ~rate_per_s:rate ~config:(`Named "outer-only")
      mk_transcode
  in
  let inner =
    Experiments.run_server ~m:30 ~machine ~rate_per_s:rate ~config:(`Named "inner-max")
      mk_transcode
  in
  let speedup = outer.Experiments.mean_exec_s /. inner.Experiments.mean_exec_s in
  check_bool
    (Printf.sprintf "exec speedup %.2f in [4.5, 8.5]" speedup)
    true
    (speedup > 4.5 && speedup < 8.5)

let test_transcode_throughput_crossover () =
  (* At heavy load the inner-parallel configuration must lose its advantage
     (lower throughput than outer-only): the crossover of Figure 2.4(b). *)
  let maxthr = Experiments.max_throughput ~m:100 ~machine mk_transcode in
  let rate = 1.1 *. maxthr in
  let outer =
    Experiments.run_server ~m:120 ~machine ~rate_per_s:rate ~config:(`Named "outer-only")
      mk_transcode
  in
  let inner =
    Experiments.run_server ~m:120 ~machine ~rate_per_s:rate ~config:(`Named "inner-max")
      mk_transcode
  in
  check_bool
    (Printf.sprintf "outer-only throughput %.2f >= inner-max %.2f at overload"
       outer.Experiments.throughput_rps inner.Experiments.throughput_rps)
    true
    (outer.Experiments.throughput_rps >= 0.95 *. inner.Experiments.throughput_rps)

let test_transcode_response_regimes () =
  (* Light load: inner-max has better response time.  This is the left side
     of Figure 2.4(c). *)
  let maxthr = Experiments.max_throughput ~m:100 ~machine mk_transcode in
  let light = 0.2 *. maxthr in
  let outer =
    Experiments.run_server ~m:60 ~machine ~rate_per_s:light ~config:(`Named "outer-only")
      mk_transcode
  in
  let inner =
    Experiments.run_server ~m:60 ~machine ~rate_per_s:light ~config:(`Named "inner-max")
      mk_transcode
  in
  check_bool
    (Printf.sprintf "light load: inner %.2fs < outer %.2fs" inner.Experiments.mean_response_s
       outer.Experiments.mean_response_s)
    true
    (inner.Experiments.mean_response_s < outer.Experiments.mean_response_s)

let test_ferret_even_vs_tbf () =
  let even, _, _ =
    Experiments.run_batch ~m:300 ~machine ~config:(`Named "even") mk_ferret
  in
  let tbf, _, _ =
    Experiments.run_batch ~m:300 ~machine ~config:(`Named "even")
      ~mechanism:(Option.get (List.assoc "tbf" Experiments.mechanisms))
      mk_ferret
  in
  let gain = tbf.Experiments.throughput_rps /. even.Experiments.throughput_rps in
  check_bool
    (Printf.sprintf "TBF gain %.2fx in [1.5, 3.5] (paper: 2.35x)" gain)
    true
    (gain > 1.5 && gain < 3.5)

let test_dedup_oversubscription_hurts () =
  let even, _, _ = Experiments.run_batch ~m:300 ~machine ~config:(`Named "even") mk_dedup in
  let os, _, _ =
    Experiments.run_batch ~m:300 ~machine ~config:(`Named "oversubscribed") mk_dedup
  in
  let ratio = os.Experiments.throughput_rps /. even.Experiments.throughput_rps in
  check_bool
    (Printf.sprintf "dedup oversubscribed ratio %.2fx <= 1.1 (paper: 0.89x)" ratio)
    true (ratio <= 1.1)

let test_ferret_oversubscription_helps () =
  let even, _, _ = Experiments.run_batch ~m:300 ~machine ~config:(`Named "even") mk_ferret in
  let os, _, _ =
    Experiments.run_batch ~m:300 ~machine ~config:(`Named "oversubscribed") mk_ferret
  in
  let ratio = os.Experiments.throughput_rps /. even.Experiments.throughput_rps in
  check_bool
    (Printf.sprintf "ferret oversubscribed ratio %.2fx > 1.2 (paper: 2.12x)" ratio)
    true (ratio > 1.2)

let test_wq_linear_improves_heavy_load_response () =
  (* Under heavy load, WQ-Linear must approach outer-only response time and
     beat the static inner-max configuration. *)
  let maxthr = Experiments.max_throughput ~m:100 ~machine mk_transcode in
  let rate = 0.95 *. maxthr in
  let inner =
    Experiments.run_server ~m:120 ~machine ~rate_per_s:rate ~config:(`Named "inner-max")
      mk_transcode
  in
  let wql =
    Experiments.run_server ~m:120 ~machine ~rate_per_s:rate ~config:(`Named "inner-max")
      ~mechanism:(Option.get (List.assoc "wq-linear" Experiments.mechanisms))
      mk_transcode
  in
  check_bool
    (Printf.sprintf "WQ-Linear %.2fs <= inner-max %.2fs at heavy load"
       wql.Experiments.mean_response_s inner.Experiments.mean_response_s)
    true
    (wql.Experiments.mean_response_s <= inner.Experiments.mean_response_s *. 1.05)

(* Exactly-once delivery in batch mode under every mechanism.  A batch
   queues its end-of-stream marker up front, so a reconfiguration that
   returns a mid-claim suffix to the head's input must not leave those
   requests behind the marker (ferret under fdp lost two of 2000). *)
let test_batch_completes_under_every_mechanism () =
  List.iter
    (fun (app, mk) ->
      List.iter
        (fun (mech, factory) ->
          let r, _, _ =
            Experiments.run_batch ~m:2000 ~machine ?mechanism:factory
              ~config:(`Named "even") mk
          in
          Alcotest.(check int)
            (Printf.sprintf "%s under %s completes every request" app mech)
            2000 r.Experiments.completed)
        Experiments.mechanisms)
    [ ("ferret", mk_ferret); ("dedup", mk_dedup) ]

(* Where runs start is derived from the app's shape: a server starts the
   two-level apps with their inner loops on and the flat pipelines evenly,
   and a batch or max-throughput run starts from the app's default. *)
let test_start_configs_follow_shape () =
  List.iter
    (fun (name, (mk : budget:int -> Engine.t -> App.t), serve, default) ->
      let app = mk ~budget:machine.Machine.cores (Engine.create machine) in
      let is what expected actual =
        check_bool (Printf.sprintf "%s: %s is %s" name what expected) true
          (Parcae_core.Config.equal (App.config app expected) actual)
      in
      is "serve config" serve (Experiments.start_config app `Serve);
      is "default config" default app.App.default_config)
    [
      ("x264", mk_transcode, "inner-max", "outer-only");
      ("swaptions", (fun ~budget eng -> Swaptions.make ~budget eng), "inner-max", "outer-only");
      ("bzip", (fun ~budget eng -> Bzip.make ~budget eng), "inner-max", "outer-only");
      ("gimp", (fun ~budget eng -> Gimp_oilify.make ~budget eng), "inner-max", "outer-only");
      ("ferret", mk_ferret, "even", "even");
      ("dedup", mk_dedup, "even", "even");
    ]

let suite =
  [
    Alcotest.test_case "transcode: max throughput" `Slow test_transcode_max_throughput;
    Alcotest.test_case "transcode: inner speedup" `Slow test_transcode_inner_speedup;
    Alcotest.test_case "transcode: throughput crossover" `Slow test_transcode_throughput_crossover;
    Alcotest.test_case "transcode: response regimes" `Slow test_transcode_response_regimes;
    Alcotest.test_case "ferret: TBF beats static even" `Slow test_ferret_even_vs_tbf;
    Alcotest.test_case "dedup: oversubscription hurts" `Slow test_dedup_oversubscription_hurts;
    Alcotest.test_case "ferret: oversubscription helps" `Slow test_ferret_oversubscription_helps;
    Alcotest.test_case "transcode: WQ-Linear at heavy load" `Slow test_wq_linear_improves_heavy_load_response;
    Alcotest.test_case "batch: every mechanism completes every request" `Slow
      test_batch_completes_under_every_mechanism;
    Alcotest.test_case "experiments: start configs follow the app's shape" `Quick
      test_start_configs_follow_shape;
  ]
