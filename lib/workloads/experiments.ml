(* The experiment harness behind Chapter 8's figures and tables.

   Every experiment follows the paper's methodology (Section 8):
   - The maximum sustainable throughput of an application is measured by
     running M requests in parallel across the outer loop with each request
     processed sequentially; load factor x then means a Poisson arrival rate
     of x times that maximum.
   - Server experiments attach a request generator to the work queue, run
     the region under a mechanism (or a static configuration), and report
     mean response time, throughput, execution time, and energy.
   - Batch experiments pre-fill the queue and measure sustained throughput,
     optionally sampling throughput/power timelines. *)

module Engine = Parcae_platform.Engine
module Machine = Parcae_sim.Machine

(* Which backend an experiment runs on: the deterministic simulator with
   [machine]'s cost model (the default; every figure and table in the repo
   is produced here), or the native multicore backend, where [machine]
   only sets budgets and the work really executes on OCaml 5 domains. *)
type backend = [ `Sim | `Native of int option ]
module Power = Parcae_sim.Power
module Series = Parcae_util.Series
module Rng = Parcae_util.Rng
module Config = Parcae_core.Config
module Region = Parcae_runtime.Region
module Executor = Parcae_runtime.Executor
module Morta = Parcae_runtime.Morta

type result = {
  mean_response_s : float;
  p95_response_s : float;
  mean_exec_s : float;
  throughput_rps : float;  (* completed requests per second *)
  completed : int;
  submitted : int;
  energy_j : float;
  sim_end_s : float;
  reconfigurations : int;
  latency_p50_ns : int;  (* HDR tail-latency ladder (Metrics.latency_quantile_ns) *)
  latency_p99_ns : int;
  latency_p999_ns : int;
}

let result_of app region =
  let m = app.App.metrics in
  {
    mean_response_s = Metrics.mean_response m;
    p95_response_s = Metrics.p95_response m;
    mean_exec_s = Metrics.mean_exec m;
    latency_p50_ns = Metrics.latency_quantile_ns m 0.5;
    latency_p99_ns = Metrics.latency_quantile_ns m 0.99;
    latency_p999_ns = Metrics.latency_quantile_ns m 0.999;
    throughput_rps = Metrics.throughput m;
    completed = Metrics.completed m;
    submitted = Metrics.submitted m;
    energy_j = Engine.energy_joules app.App.eng;
    sim_end_s = Engine.seconds_of_ns (Engine.time app.App.eng);
    reconfigurations = Region.reconfig_count region;
  }

(* A mechanism factory: builds the policy for a concrete app instance and
   its region budget.  [None] runs the launch configuration statically. *)
type mech = (App.t -> Morta.mechanism) option

let tpc_needs_sim = "tpc needs the simulator's power model (run with --backend sim)"

(* Every named mechanism.  WQT-H and WQ-Linear are tuned once per app
   shape (Chapter 8): the two-level servers, which map an inner DoP to a
   configuration, and the flat pipelines, which have no inner loop. *)
let mechanisms : (string * mech) list =
  let module Mech = Parcae_mechanisms in
  [
    ("static", None);
    ( "wqt-h",
      Some
        (fun app ->
          match app.App.inner_dop_config with
          | Some _ ->
              (* Flip only once the queue has clearly built up, over several
                 observations, so bursts do not toggle it (Section 6.3.1). *)
              Mech.Wqt_h.make ~load:app.App.wq_load ~threshold:8.0 ~non:3 ~noff:3
                ~light:(App.config app "inner-max") ~heavy:(App.config app "outer-only") ()
          | None ->
              Mech.Wqt_h.make ~load:app.App.wq_load ~threshold:6.0 ~non:2 ~noff:2
                ~light:(App.config app "even") ~heavy:(App.config app "oversubscribed") ()) );
    ( "wq-linear",
      Some
        (fun app ->
          match app.App.inner_dop_config with
          | Some make_config ->
              Mech.Wq_linear.nested ~load:app.App.wq_load ~dpmin:1 ~dpmax:app.App.dpmax
                ~qmax:20.0 ~make_config ()
          | None -> Mech.Wq_linear.per_task ~loads:app.App.per_task_loads ~dpmin:2 ~dpmax:24 ()) );
    ("tbf", Some (fun app -> Mech.Tbf.make ?fused_choice:app.App.fused_choice ()));
    ("tb", Some (fun _ -> Mech.Tbf.make ()));
    ("fdp", Some (fun _ -> Mech.Fdp.make ()));
    ("seda", Some (fun _ -> Mech.Seda.make ~threshold:6.0 ~max_per_stage:8 ()));
    ( "tpc",
      Some
        (fun app ->
          let sim_eng =
            match Engine.sim_engine app.App.eng with
            | Some e -> e
            | None -> failwith tpc_needs_sim
          in
          let machine = Engine.machine app.App.eng in
          let sensor = Power.create ~period_ns:2_000_000_000 sim_eng in
          Mech.Tpc.make ~sensor ~target_watts:(0.9 *. Machine.peak_power machine) ()) );
  ]

(* [`Default] is the app's launch default: "outer-only" on the two-level
   servers, "even" on the flat pipelines.  [`Serve] is where a server run
   starts: "inner-max" on the two-level servers, whose light-load response
   time needs the inner loops, the default on the flat pipelines. *)
type start = [ `Named of string | `Config of Config.t | `Default | `Serve ]

let start_config app : start -> Config.t = function
  | `Named n -> App.config app n
  | `Config c -> c
  | `Serve when Option.is_some app.App.inner_dop_config -> App.config app "inner-max"
  | `Default | `Serve -> app.App.default_config

let make_engine ?(backend = `Sim) machine =
  match backend with
  | `Sim -> Engine.create machine
  | `Native pool -> Engine.create_native ?pool ()

(* The thread budget an engine offers: the simulated machine's cores, or
   at least 4 on native so tiny domain pools still exercise parallel
   configurations (systhreads multiplex fine beyond the pool). *)
let engine_budget eng (machine : Machine.t) =
  if Engine.is_native eng then max 4 (Engine.online_cores eng) else machine.Machine.cores

(* Launch [app]'s region, attach the generator given by [feed], optionally
   attach a Morta executive, and run to completion (bounded by
   [horizon_ns]). *)
let run_app ~horizon_ns ~config ?mechanism ?(period_ns = 100_000_000) ?on_start ~feed
    ~budget app =
  let eng = app.App.eng in
  let region =
    Executor.launch ~budget ~name:app.App.name eng app.App.schemes config
      ~on_pause:app.App.on_pause ~on_reset:app.App.on_reset
  in
  (match on_start with None -> () | Some f -> f app region);
  feed app;
  (match mechanism with
  | None -> ()
  | Some f ->
      let m = f app in
      let stop () = Region.is_done region in
      ignore (Morta.spawn ~stop ~period_ns ~mechanism:m eng region));
  ignore (Engine.run ~until:horizon_ns eng);
  (app, region)

(* Measure the maximum sustainable throughput (requests/s) of the
   application: M requests in batch from its default configuration — on
   the two-level servers the outer loop wide open and the inner loops
   sequential, exactly the paper's definition; on the flat pipelines the
   even static distribution. *)
let max_throughput ?(m = 300) ?(seed = 17) ?backend ~machine make_app =
  let eng = make_engine ?backend machine in
  let budget = engine_budget eng machine in
  let app : App.t = make_app ~budget eng in
  let rng = Rng.create seed in
  ignore
    (Load_gen.spawn_batch ~rng ~m ~queue:app.App.queue ~metrics:app.App.metrics eng);
  let horizon_ns =
    match app.App.inner_dop_config with
    | None -> (m * app.App.seq_request_ns) + 10_000_000_000
    | Some _ ->
        (* Generous: m requests, fully serialized, 4x slack. *)
        (m * app.App.seq_request_ns / budget * 8) + 2_000_000_000
  in
  let app, _region =
    run_app ~horizon_ns ~config:app.App.default_config ~feed:(fun _ -> ()) ~budget app
  in
  Engine.shutdown eng;
  Metrics.throughput app.App.metrics

let max_throughput_flat = max_throughput

(* Run a server experiment: [m] Poisson arrivals at [rate_per_s], initial
   configuration [config], optional mechanism. *)
let run_server ?(m = 300) ?(seed = 42) ?mechanism ?(period_ns = 500_000_000) ?on_start
    ?backend ~machine ~rate_per_s ~config make_app =
  let eng = make_engine ?backend machine in
  let budget = engine_budget eng machine in
  let app : App.t = make_app ~budget eng in
  let rng = Rng.create seed in
  let cfg = start_config app config in
  let feed (a : App.t) =
    ignore
      (Load_gen.spawn_generator ~rng ~rate_per_s ~m ~queue:a.App.queue
         ~metrics:a.App.metrics eng)
  in
  (* Horizon: arrival span + drain time with 6x slack. *)
  let arrival_span = float_of_int m /. rate_per_s in
  let drain = float_of_int (m * app.App.seq_request_ns) *. 1e-9 /. float_of_int budget in
  let horizon_ns = int_of_float ((arrival_span +. (6.0 *. drain) +. 30.0) *. 1e9) in
  let app, region =
    run_app ~horizon_ns ~config:cfg ?mechanism ~period_ns ?on_start ~feed ~budget app
  in
  Engine.shutdown eng;
  result_of app region

(* Run a batch (throughput) experiment, optionally sampling throughput and
   power timelines every [sample_ns]. *)
let run_batch ?(m = 500) ?(seed = 42) ?mechanism ?period_ns ?sample_ns ?power_sensor_period
    ?on_start ?backend ~machine ~config make_app =
  let eng = make_engine ?backend machine in
  let budget = engine_budget eng machine in
  let app : App.t = make_app ~budget eng in
  let rng = Rng.create seed in
  let cfg = start_config app config in
  let throughput_tl = Series.create "throughput" in
  let power_tl = Series.create "power" in
  let feed (a : App.t) =
    ignore (Load_gen.spawn_batch ~rng ~m ~queue:a.App.queue ~metrics:a.App.metrics eng)
  in
  (match sample_ns with
  | None -> ()
  | Some w ->
      let sim_eng =
        match Engine.sim_engine eng with
        | Some e -> e
        | None -> invalid_arg "Experiments.run_batch: power sampling is sim-only"
      in
      let sensor = Power.create ?period_ns:power_sensor_period sim_eng in
      ignore
        (Engine.spawn eng ~name:"sampler" (fun () ->
             let prev = ref 0 in
             let stop = ref false in
             while not !stop do
               Engine.sleep w;
               let c = Metrics.completed app.App.metrics in
               Series.add throughput_tl
                 ~time:(Engine.seconds_of_ns (Engine.time eng))
                 ~value:(float_of_int (c - !prev) /. Engine.seconds_of_ns w);
               Series.add power_tl
                 ~time:(Engine.seconds_of_ns (Engine.time eng))
                 ~value:(Power.read sensor);
               prev := c;
               if c >= m then stop := true
             done)));
  let horizon_ns = (m * app.App.seq_request_ns) + 20_000_000_000 in
  let app, region =
    run_app ~horizon_ns ~config:cfg ?mechanism ?period_ns ?on_start ~feed ~budget app
  in
  Engine.shutdown eng;
  (result_of app region, throughput_tl, power_tl)
