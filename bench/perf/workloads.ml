(* The five workloads and the round that measures each.

   A run is a fixed number of rounds, each with its own inputs drawn from
   the seed.  A round sets up from scratch (engine, app, max-throughput
   calibration, a 1% warm-up on a throwaway engine, or compile + launch for
   Nona) and then serves its requests with the process CPU clock running.
   Set-up and sim CPU times are scaled by the host-speed probe to what they
   would be on a quiet host (see [run_timed]).  Reported numbers are medians
   over rounds, so one GC or scheduling hiccup cannot move them.  Round
   sizes are counts, never durations, so every virtual-time result of a sim
   run is a pure function of the seed. *)

module Engine = Parcae_platform.Engine
module Machine = Parcae_sim.Machine
module Pool = Parcae_core.Pool
module Rng = Parcae_util.Rng
module R = Parcae_runtime
module Mech = Parcae_mechanisms
module Obs = Parcae_obs
module W = Parcae_workloads
module Kernels = Parcae_ir.Kernels
module Interp = Parcae_ir.Interp
module Loop = Parcae_ir.Loop
module Compiler = Parcae_nona.Compiler

let machine = Machine.xeon_x7460

(* Two worker domains: the host has two cores, and the generator thread
   sleeps between sends. *)
let native_pool = 2

type serve = {
  make_app : budget:int -> Engine.t -> W.App.t;
  flat : bool;  (* single-level pipeline: calibrate with the "even" config *)
  native : bool;
  config : string;  (* initial named configuration *)
  mechanism : (W.App.t -> R.Morta.mechanism) option;
  rate : float;  (* offered load, requests/s, fixed rather than relative to max *)
  requests : int;  (* per round *)
}

type kind = Serve of serve | Nona of int  (* base trip count of each kernel *)

type t = {
  name : string;
  why : string;
  kind : kind;
  observed : bool;  (* the gated run installs every observer *)
  rounds : int;  (* rounds in a 15-second run *)
  sensitivity : float;  (* how its CPU grows with the host's slowdown (Host.on_quiet_host) *)
}

let ferret_sim =
  {
    make_app = (fun ~budget eng -> W.Ferret.make ~budget eng);
    flat = true;
    native = false;
    config = "even";
    mechanism = None;
    rate = 400.0;
    requests = 50_000;
  }

let wq_linear (app : W.App.t) =
  Mech.Wq_linear.nested ~load:app.W.App.wq_load ~dpmin:1 ~dpmax:app.W.App.dpmax ~qmax:20.0
    ~make_config:(Option.get app.W.App.inner_dop_config) ()

(* The native engine turns requested ns into spin iterations at a rate it
   measures once per process, over a few ms.  Co-tenant load in that
   window skews every later compute of the process (by up to 35% on a
   shared 2-core host), and the host's speed drifts during a run as well.
   So before every native round, outside its timed sections, the benchmark
   measures what a requested nanosecond really costs (median of seven 2 ms
   spins) and asks for correspondingly more or less.  Measured once per
   process instead, ferret-native's p50 spread 11% across ten seeds; per
   round, 1%.  The engine's own error is the per-layer native.spin_error. *)
let spin_accuracy = ref 1.0

let measure_spin_accuracy () =
  spin_accuracy :=
    Host.median
      (List.init 7 (fun _ -> float_of_int (Parcae_native.Calibrate.spin_ns 2_000_000) /. 2e6))

(* ferret's stage shape with every cost divided by 100 (191 us of real
   spinning per request), so on real cores the runtime's own overhead is
   a visible share of each request rather than noise on 19 ms of work. *)
let native_cost (s : W.Flat_pipeline.stage_spec) = s.W.Flat_pipeline.s_cost / 100
let native_spin_ns = List.fold_left (fun acc s -> acc + native_cost s) 0 W.Ferret.stages

let ferret_native_app ~budget eng =
  let stages =
    List.map
      (fun s ->
        let cost = float_of_int (native_cost s) /. !spin_accuracy in
        { s with W.Flat_pipeline.s_cost = int_of_float cost })
      W.Ferret.stages
  in
  W.Flat_pipeline.make ~alpha:W.Ferret.alpha ~name:"ferret" ~stages ~budget eng

(* [sensitivity]: on a contended host (the probe reading 1.2-2.0x), raw CPU
   per request grew as the probe's slowdown to about the power 1.1-1.2 on
   ferret-sim and nona-sim, but only 0.8 on x264-sim, whose scaled CPU
   then read lower the busier the host was: over two sets of ten seeds it
   spread 9% and 13% scaled with 1.15, 8% and 7% with 0.8.  Native CPU is
   not scaled (its spin is calibrated in wall time), so ferret-native's 1.0
   applies to its set-up only. *)
let all =
  [
    {
      name = "ferret-sim";
      why =
        "data plane: five channel hops per request, drain_stage batching, pools and sim \
         engine turns; no reconfiguration, mechanism or observer";
      kind = Serve ferret_sim;
      observed = false;
      rounds = 30;
      sensitivity = 1.15;
    };
    {
      name = "x264-sim";
      why =
        "control plane: wq-linear reconfigures about 3 times per 100 requests and each \
         request spawns about 7 sim threads, with one channel op";
      kind =
        Serve
          {
            make_app = (fun ~budget eng -> W.Transcode.make ~budget eng);
            flat = false;
            native = false;
            config = "inner-max";
            mechanism = Some wq_linear;
            rate = 8.8;
            requests = 5_000;
          };
      observed = false;
      rounds = 28;
      sensitivity = 0.8;
    };
    {
      name = "ferret-sim-observed";
      why =
        "the ferret-sim inputs with every observer installed: an observer-only change moves \
         this workload and leaves ferret-sim unchanged";
      kind = Serve ferret_sim;
      observed = true;
      rounds = 18;
      sensitivity = 1.15;
    };
    {
      name = "ferret-native";
      why =
        "work-stealing engine, lock-free channels and striped pools on two real domains, \
         fed by an external generator thread; bypasses the simulator";
      kind =
        Serve
          {
            make_app = ferret_native_app;
            flat = true;
            native = true;
            config = "even";
            mechanism = None;
            rate = 2000.0;
            requests = 2_500;
          };
      observed = false;
      rounds = 12;
      sensitivity = 1.0;
    };
    {
      name = "nona-sim";
      why =
        "compiler, Flex runtime, IR interpreter and the gradient-ascent controller on \
         crc32 (PS-DSWP) and kmeans (DOANY); bypasses requests, pools and the generator";
      kind = Nona 75_000;
      observed = false;
      rounds = 32;
      sensitivity = 1.15;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* ------------------------------------------------------------------ *)
(* Observers                                                           *)
(* ------------------------------------------------------------------ *)

(* Every observer the library offers, installed together: metrics
   registry, span collector, trace sink, flight recorder, overhead ledger
   and per-lane timeline (plus the GC event consumer on native). *)
type observers = {
  reg : Obs.Metrics.t;
  spans : Obs.Span.t;
  sink : Obs.Sink.t;
  flight : Obs.Flight.t;
  ledger : Obs.Ledger.t;
  timeline : Obs.Timeline.t;
}

let lanes eng =
  match Engine.native_engine eng with
  | Some ne -> Parcae_native.Engine.pool_size ne
  | None -> machine.Machine.cores

let observers ?(span_capacity = 4096) eng =
  {
    reg = Obs.Metrics.create ();
    spans = Obs.Span.create ~capacity:span_capacity ();
    sink = Obs.Sink.create ~capacity:65_536 ();
    flight = Obs.Flight.create ();
    ledger = Obs.Ledger.create ();
    timeline = Obs.Timeline.create ~lanes:(lanes eng) ~now:(Engine.time eng) ();
  }

let with_observers o f =
  Obs.Metrics.with_registry o.reg @@ fun () ->
  Obs.Span.with_collector o.spans @@ fun () ->
  Obs.Trace.with_sink o.sink @@ fun () ->
  Obs.Flight.with_recorder o.flight @@ fun () ->
  Obs.Ledger.with_ledger o.ledger @@ fun () -> Obs.Timeline.with_timeline o.timeline f

(* Layer counts read from the observers after a traced round. *)
type traced = {
  ctx_switches : float;
  busy_core_ns : float;
  idle_core_ns : float;
  chan_ops : float;
  chan_recv_block_ns : float;
  gradient_steps : float;
  counter_updates : float;  (* counter families that count events, not ns *)
  summary_observes : float;
  span_stages : float;  (* mean stage bodies per completed span *)
  phase_ns : (Obs.Span.phase * float) list;  (* mean ns per request *)
  span_total_ns : float;
  span_drops : int;
  trace_events : int;
  trace_drops : int;
  ctrl_epochs : int;
  ledger_ns : (string * int) list;  (* summed over regions *)
  timeline : (Obs.Timeline.state * float) list;
  steals : int;
  steal_attempts : int;
  phase_sum_ok : bool;
  exactly_once_ok : bool;
}

let snapshot_sum snap pred value =
  List.fold_left
    (fun acc (f : Obs.Metrics.fam_snapshot) ->
      if not (pred f.Obs.Metrics.name) then acc
      else
        List.fold_left
          (fun acc (s : Obs.Metrics.sample) -> acc +. value s.Obs.Metrics.value)
          acc f.Obs.Metrics.samples)
    0.0 snap

let scalar = function
  | Obs.Metrics.Counter_v n -> float_of_int n
  | Obs.Metrics.Gauge_v g -> g
  | Obs.Metrics.Histogram_v h -> h.sum
  | Obs.Metrics.Summary_v s -> s.sum

let count = function
  | Obs.Metrics.Histogram_v h -> float_of_int h.count
  | Obs.Metrics.Summary_v s -> float_of_int s.count
  | _ -> 0.0

(* Spans: the five phases of every retained record sum to its total, and
   (when the ring kept every record) each request id 0..n-1 finished
   exactly once. *)
let span_checks o ~submitted =
  let recs = Obs.Span.records o.spans in
  let phase_sum_ok =
    List.for_all
      (fun (r : Obs.Span.rec_view) ->
        r.rv_queue + r.rv_chan + r.rv_compute + r.rv_reconfig + r.rv_gc = r.rv_total)
      recs
  in
  let counted =
    Obs.Span.completed o.spans = submitted && Obs.Span.double_finishes o.spans = 0
  in
  let ids_ok =
    Obs.Span.drops o.spans > 0
    ||
    let seen = Array.make submitted 0 in
    List.iter
      (fun (r : Obs.Span.rec_view) ->
        if r.rv_id >= 0 && r.rv_id < submitted then seen.(r.rv_id) <- seen.(r.rv_id) + 1)
      recs;
    Array.for_all (fun c -> c = 1) seen
  in
  let stages =
    List.fold_left
      (fun acc (r : Obs.Span.rec_view) ->
        acc + Array.fold_left (fun a ns -> if ns > 0 then a + 1 else a) 0 r.rv_stage_ns)
      0 recs
  in
  let span_stages =
    match recs with [] -> 0.0 | _ -> float_of_int stages /. float_of_int (List.length recs)
  in
  (phase_sum_ok, counted && ids_ok, span_stages)

let read_traced o eng ~submitted =
  let snap = Obs.Metrics.snapshot o.reg in
  let fam name = snapshot_sum snap (String.equal name) scalar in
  let phase_sum_ok, exactly_once_ok, span_stages = span_checks o ~submitted in
  let ledger_ns =
    List.map
      (fun phase ->
        ( phase,
          List.fold_left
            (fun acc (_, p, ns) -> if p = phase then acc + ns else acc)
            0 (Obs.Ledger.snapshot o.ledger) ))
      Obs.Ledger.phases
  in
  let ctrl_epochs =
    List.length
      (List.filter
         (function
           | Obs.Flight.Decision d -> d.Obs.Flight.actor = "controller" | _ -> false)
         (Obs.Flight.entries o.flight))
  in
  let steals, steal_attempts =
    match Engine.native_engine eng with
    | Some ne ->
        (Parcae_native.Engine.steal_count ne, Parcae_native.Engine.steal_attempt_count ne)
    | None -> (0, 0)
  in
  {
    ctx_switches = fam "parcae_sim_ctx_switches_total";
    busy_core_ns = fam "parcae_sim_busy_core_ns_total";
    idle_core_ns = fam "parcae_sim_idle_core_ns_total";
    chan_ops = fam "parcae_chan_sends_total" +. fam "parcae_chan_recvs_total";
    chan_recv_block_ns = fam "parcae_chan_recv_block_ns";
    gradient_steps = fam "parcae_ctrl_gradient_steps_total";
    counter_updates =
      snapshot_sum snap
        (fun n ->
          String.ends_with ~suffix:"_total" n && not (String.ends_with ~suffix:"_ns_total" n))
        scalar;
    summary_observes = snapshot_sum snap (fun _ -> true) count;
    span_stages;
    phase_ns =
      List.map (fun p -> (p, Obs.Span.phase_mean_ns o.spans p)) Obs.Span.all_phases;
    span_total_ns = Obs.Span.mean_ns o.spans;
    span_drops = Obs.Span.drops o.spans;
    trace_events = Obs.Sink.length o.sink + Obs.Sink.dropped o.sink;
    trace_drops = Obs.Sink.dropped o.sink;
    ctrl_epochs;
    ledger_ns;
    timeline =
      Obs.Timeline.merged_shares (Obs.Timeline.breakdown o.timeline ~until:(Engine.time eng));
    steals;
    steal_attempts;
    phase_sum_ok;
    exactly_once_ok;
  }

(* ------------------------------------------------------------------ *)
(* Rounds                                                              *)
(* ------------------------------------------------------------------ *)

type sample = {
  setup_s : float;  (* wall, scaled to a quiet host *)
  cpu_s : float;  (* process CPU over the measured section, scaled to a quiet host on sim *)
  raw_cpu_s : float;  (* the same, as measured *)
  units : int;  (* completed requests; loop iterations for Nona *)
  attempted : int;
  failed : int;  (* not completed, or semantics violated *)
  p50_ms : float;  (* virtual on sim, wall on native; Nona: the job's time *)
  p90_ms : float;
  p99_ms : float;
  max_rps : float;  (* virtual, batch mode; 0 where not calibrated *)
  energy_j : float;  (* virtual; 0 on native *)
  speedup : float;  (* Nona only *)
  events : int;  (* Engine.run's return: sim events, native tasks *)
  spawned : int;
  pool_acquires : int;
  pool_hits : int;
  minor_words : float;
  major_gcs : int;
  reconfigs : int;
  stall_ns : int;
  decisions : int;
  hooks : int;
  lag : Parcae_obs.Hdr.t;
  compile_s : float;
  traced : traced option;
  virt : string;  (* virtual-time fingerprint; "" on native *)
}

type mode = Plain | Observed of { span_capacity : int }

let gc_counts () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_collections)

let budget_of eng =
  if Engine.is_native eng then max 4 (Engine.online_cores eng) else machine.Machine.cores

(* The measured part of a sim run.  The engine runs to [until] in slices of
   about 20 ms of CPU, with the host-speed probe between slices, and each
   slice's CPU is scaled by the probes on either side of it:
   [t_cpu_s] is what the slices would have cost on a quiet host, [t_raw_cpu_s]
   what they cost here.  [Engine.run] stopped at a virtual instant and
   resumed later processes the same events in the same order, so where the
   slices fall changes no virtual-time result (the determinism probe
   checks this, with slices cut differently on every run). *)
type timed = { t_events : int; t_cpu_s : float; t_raw_cpu_s : float }

let slice_target_s = 0.02

let run_timed ~sensitivity eng ~until =
  let events = ref 0 and cpu = ref 0.0 and raw = ref 0.0 in
  let step = ref 1_000_000 in
  let before = ref (Host.slowdown ()) in
  let rec slice () =
    let now = Engine.time eng in
    let limit = if now >= until - !step then until else now + !step in
    let c0 = Host.cpu_s () in
    let n = Engine.run ~until:limit eng in
    let c = Host.cpu_s () -. c0 in
    let after = Host.slowdown () in
    events := !events + n;
    raw := !raw +. c;
    cpu := !cpu +. Host.on_quiet_host ~sensitivity c ~before:!before ~after;
    before := after;
    (* An empty slice means the queue drained (or idles): finish in one. *)
    if n = 0 then step := until
    else begin
      let grow = if c > 0.0 then Float.min 4.0 (Float.max 0.5 (slice_target_s /. c)) else 4.0 in
      step := max 1 (int_of_float (float_of_int !step *. grow))
    end;
    if limit < until then slice ()
  in
  slice ();
  { t_events = !events; t_cpu_s = !cpu; t_raw_cpu_s = !raw }

(* Set-up is timed on the wall clock and scaled by the probes taken just
   before and just after it, like the slices above. *)
let scaled_wall ~sensitivity ~t0 ~t1 ~k0 ~k1 =
  Host.on_quiet_host ~sensitivity (float_of_int (t1 - t0) *. 1e-9) ~before:k0 ~after:k1

let calibrate s ~seed =
  if s.native then 0.0
  else if s.flat then W.Experiments.max_throughput_flat ~seed ~machine s.make_app
  else W.Experiments.max_throughput ~seed ~machine s.make_app

(* One serving run: build the engine, app, region and (optionally) the
   mechanism thread, then serve [requests] open-loop arrivals.  Everything
   before [served_from] is set-up; the CPU, GC and pool deltas cover the
   serving part only.  A [warmup] run on the simulator is not timed, so it
   runs the engine in one go. *)
type served = {
  eng : Engine.t;
  app : W.App.t;
  region : R.Region.t;
  gen : Gen.t;
  decisions : int;  (* mechanism proposals adopted *)
  events : int;  (* Engine.run's return: sim events, native tasks *)
  served_from : int;  (* wall ns when set-up ended *)
  setup_slowdown : float;  (* the probe just after [served_from] *)
  serve_cpu_s : float;  (* scaled to a quiet host on sim; as measured on native *)
  serve_raw_cpu_s : float;
  serve_minor_words : float;
  serve_major_gcs : int;
  serve_pool_hits : int;
  serve_pool_misses : int;
  serve_traced : traced option;
}

let serve_once ?(warmup = false) ~sensitivity s ~seed ~requests ~mode =
  let eng =
    if s.native then Engine.create_native ~pool:native_pool () else Engine.create machine
  in
  let o =
    match mode with
    | Plain -> None
    | Observed { span_capacity } -> Some (observers ~span_capacity eng)
  in
  let wrap f = match o with None -> f () | Some o -> with_observers o f in
  wrap @@ fun () ->
  let budget = budget_of eng in
  let app = s.make_app ~budget eng in
  let region =
    R.Executor.launch ~budget ~name:app.W.App.name eng app.W.App.schemes
      (W.App.config app s.config) ~on_pause:app.W.App.on_pause ~on_reset:app.W.App.on_reset
  in
  let decisions = ref 0 in
  Option.iter
    (fun mk ->
      let m = mk app in
      let counted r =
        let p = m r in
        if Option.is_some p then incr decisions;
        p
      in
      ignore
        (R.Morta.spawn
           ~stop:(fun () -> R.Region.is_done region)
           ~period_ns:500_000_000 ~mechanism:counted eng region))
    s.mechanism;
  let gen = Gen.create ~seed ~rate:s.rate ~n:requests in
  let arrival_s = float_of_int requests /. s.rate in
  let served_from = Host.wall_ns () in
  let setup_slowdown = if warmup then 1.0 else Host.slowdown () in
  let minor0, major0 = gc_counts () in
  let hits0 = Pool.total_hits () and misses0 = Pool.total_misses () in
  let t =
    if s.native then begin
      let cpu0 = Host.cpu_s () in
      let gc = Option.map (fun _ -> Obs.Runtime_ev.start ()) o in
      let th = Gen.start_native gen app in
      let n = Engine.run ~until:(int_of_float (((3.0 *. arrival_s) +. 30.0) *. 1e9)) eng in
      Thread.join th;
      Option.iter Obs.Runtime_ev.stop gc;
      let cpu = Host.cpu_s () -. cpu0 in
      { t_events = n; t_cpu_s = cpu; t_raw_cpu_s = cpu }
    end
    else begin
      ignore (Gen.spawn_sim gen app);
      let drain =
        float_of_int (requests * app.W.App.seq_request_ns) *. 1e-9 /. float_of_int budget
      in
      let until = int_of_float ((arrival_s +. (6.0 *. drain) +. 30.0) *. 1e9) in
      if warmup then { t_events = Engine.run ~until eng; t_cpu_s = 0.0; t_raw_cpu_s = 0.0 }
      else run_timed ~sensitivity eng ~until
    end
  in
  let minor1, major1 = gc_counts () in
  let serve_traced =
    Option.map (fun o -> read_traced o eng ~submitted:(W.Metrics.submitted app.W.App.metrics)) o
  in
  Engine.shutdown eng;
  {
    eng;
    app;
    region;
    gen;
    decisions = !decisions;
    events = t.t_events;
    served_from;
    setup_slowdown;
    serve_cpu_s = t.t_cpu_s;
    serve_raw_cpu_s = t.t_raw_cpu_s;
    serve_minor_words = minor1 -. minor0;
    serve_major_gcs = major1 - major0;
    serve_pool_hits = Pool.total_hits () - hits0;
    serve_pool_misses = Pool.total_misses () - misses0;
    serve_traced;
  }

let round_seed ~seed r = Rng.int (Rng.create ((seed * 7919) + r)) (1 lsl 30)

let serve_round ~sensitivity s ~seed ~requests ~mode =
  if s.native then measure_spin_accuracy ();
  let k0 = Host.slowdown () in
  let t0 = Host.wall_ns () in
  let max_rps = calibrate s ~seed in
  ignore
    (serve_once ~warmup:true ~sensitivity s ~seed:(seed + 1)
       ~requests:(max 1 (requests / 100))
       ~mode:Plain);
  let r = serve_once ~sensitivity s ~seed ~requests ~mode in
  let m = r.app.W.App.metrics in
  let submitted = W.Metrics.submitted m and completed = W.Metrics.completed m in
  (* Percentiles of the exact response times in the workload's 8192-sample
     reservoir (sampled with a fixed seed, so still deterministic): the HDR
     quantiles are bucket bounds and read the same for most seeds. *)
  let responses = W.Metrics.responses m in
  let pct p =
    if Array.length responses = 0 then 0.0 else Parcae_util.Stats.percentile p responses *. 1e3
  in
  let energy_j = if s.native then 0.0 else Engine.energy_joules r.eng in
  let reconfigs = R.Region.reconfig_count r.region in
  let hdr q = W.Metrics.latency_quantile_ns m q in
  {
    setup_s = scaled_wall ~sensitivity ~t0 ~t1:r.served_from ~k0 ~k1:r.setup_slowdown;
    cpu_s = r.serve_cpu_s;
    raw_cpu_s = r.serve_raw_cpu_s;
    units = completed;
    attempted = submitted;
    failed = submitted - completed;
    p50_ms = pct 50.0;
    p90_ms = pct 90.0;
    p99_ms = pct 99.0;
    max_rps;
    energy_j = energy_j /. float_of_int (max 1 completed);
    speedup = 0.0;
    events = r.events;
    spawned = Engine.spawned_threads r.eng;
    pool_acquires = r.serve_pool_hits + r.serve_pool_misses;
    pool_hits = r.serve_pool_hits;
    minor_words = r.serve_minor_words;
    major_gcs = r.serve_major_gcs;
    reconfigs;
    stall_ns = R.Region.pause_wait_ns r.region;
    decisions = r.decisions;
    hooks = R.Decima.hook_calls (R.Region.decima r.region);
    lag = r.gen.Gen.lag;
    compile_s = 0.0;
    traced = r.serve_traced;
    virt =
      (if s.native then ""
       else
         Printf.sprintf "%d %d %d %d %h %h %h %d %h %h %d %d" completed (hdr 0.5) (hdr 0.9)
           (hdr 0.99) (pct 50.0) (pct 90.0) (pct 99.0) r.events max_rps energy_j reconfigs
           (Engine.time r.eng));
  }

(* ---- Nona ---- *)

let controller_params =
  {
    R.Controller.default_params with
    R.Controller.nseq = 16;
    npar_factor = 16;
    poll_ns = 20_000;
    monitor_ns = 20_000_000;
    change_frac = 0.3;
  }

(* Each kernel with the input array the seed refills and its value range. *)
let nona_kernels =
  [
    ((fun n -> Kernels.crc32 ~n ()), "data", 0x10000);
    ((fun n -> Kernels.kmeans ~n ()), "points", 1000);
  ]

type launch = {
  l_eng : Engine.t;
  l_region : R.Region.t;
  l_setup_s : float;
  l_compile_s : float;
  l_cpu_s : float;
  l_raw_cpu_s : float;
  l_iters : int;
  l_done_ns : int;
  l_seq_ns : int;
  l_events : int;
  l_minor : float;
  l_major : int;
  l_ok : bool;
}

let nona_launch ~sensitivity ~rng ~n (make, input, range) =
  let n = n + Rng.int rng (max 1 (n / 50)) in
  let loop = make n in
  List.iter
    (fun (name, a) -> if name = input then Array.iteri (fun i _ -> a.(i) <- Rng.int rng range) a)
    loop.Loop.arrays;
  let k0 = Host.slowdown () in
  let t0 = Host.wall_ns () in
  let c = Compiler.compile loop in
  let t1 = Host.wall_ns () in
  let eng = Engine.create machine in
  let h = Compiler.launch ~budget:machine.Machine.cores eng c in
  let region = h.Compiler.region in
  ignore (R.Controller.spawn eng (R.Controller.create ~params:controller_params region));
  let done_at = ref 0 in
  ignore
    (Engine.spawn eng ~name:"watch" (fun () ->
         R.Executor.await region;
         done_at := Engine.now ()));
  let t2 = Host.wall_ns () in
  let k1 = Host.slowdown () in
  let minor0, major0 = gc_counts () in
  let t = run_timed ~sensitivity eng ~until:600_000_000_000 in
  let minor1, major1 = gc_counts () in
  {
    l_eng = eng;
    l_region = region;
    l_setup_s = scaled_wall ~sensitivity ~t0 ~t1:t2 ~k0 ~k1;
    l_compile_s = float_of_int (t1 - t0) *. 1e-9;
    l_cpu_s = t.t_cpu_s;
    l_raw_cpu_s = t.t_raw_cpu_s;
    l_iters = n;
    l_done_ns = !done_at;
    l_seq_ns = (Interp.run loop).Interp.work_ns;
    l_events = t.t_events;
    l_minor = minor1 -. minor0;
    l_major = major1 - major0;
    l_ok = R.Region.is_done region && Compiler.preserves_semantics h;
  }

(* One Nona job: crc32 then kmeans, each compiled and launched under the
   controller on its own engine.  The job's latency is the sum of the two
   regions' virtual completion times. *)
let nona_round ~sensitivity ~seed ~n ~mode =
  let rng = Rng.create seed in
  let o = match mode with Plain -> None | Observed _ -> Some (observers (Engine.create machine)) in
  let wrap f = match o with None -> f () | Some o -> with_observers o f in
  let ls = wrap (fun () -> List.map (nona_launch ~sensitivity ~rng ~n) nona_kernels) in
  let last = List.nth ls (List.length ls - 1) in
  let sum f = List.fold_left (fun acc l -> acc + f l) 0 ls in
  let sumf f = List.fold_left (fun acc l -> acc +. f l) 0.0 ls in
  let iters = sum (fun l -> l.l_iters) in
  let job_ns = sum (fun l -> l.l_done_ns) in
  let job_ms = float_of_int job_ns *. 1e-6 in
  {
    setup_s = sumf (fun l -> l.l_setup_s);
    cpu_s = sumf (fun l -> l.l_cpu_s);
    raw_cpu_s = sumf (fun l -> l.l_raw_cpu_s);
    units = iters;
    attempted = List.length ls;
    failed = List.length (List.filter (fun l -> not l.l_ok) ls);
    p50_ms = job_ms;
    p90_ms = job_ms;
    p99_ms = job_ms;
    max_rps = 0.0;
    energy_j = sumf (fun l -> Engine.energy_joules l.l_eng) /. float_of_int iters;
    speedup = float_of_int (sum (fun l -> l.l_seq_ns)) /. float_of_int (max 1 job_ns);
    events = sum (fun l -> l.l_events);
    spawned = sum (fun l -> Engine.spawned_threads l.l_eng);
    pool_acquires = 0;
    pool_hits = 0;
    minor_words = sumf (fun l -> l.l_minor);
    major_gcs = sum (fun l -> l.l_major);
    reconfigs = sum (fun l -> R.Region.reconfig_count l.l_region);
    stall_ns = sum (fun l -> R.Region.pause_wait_ns l.l_region);
    decisions = 0;
    hooks = sum (fun l -> R.Decima.hook_calls (R.Region.decima l.l_region));
    lag = Parcae_obs.Hdr.create ();
    compile_s = sumf (fun l -> l.l_compile_s);
    traced = Option.map (fun o -> read_traced o last.l_eng ~submitted:0) o;
    virt =
      String.concat ";"
        (List.map
           (fun l ->
             Printf.sprintf "%d %d %d %h %d %d" l.l_iters l.l_done_ns l.l_seq_ns
               (Engine.energy_joules l.l_eng) l.l_events
               (R.Region.reconfig_count l.l_region))
           ls);
  }

(* [scale] divides every size (the smoke test uses 100). *)
let round w ~seed ~scale ~mode =
  match w.kind with
  | Serve s ->
      serve_round ~sensitivity:w.sensitivity s ~seed ~requests:(max 1 (s.requests / scale)) ~mode
  | Nona n -> nona_round ~sensitivity:w.sensitivity ~seed ~n:(max 200 (n / scale)) ~mode

(* Each round starts from a collected heap, so the previous round's garbage
   neither sits under this round's peak RSS nor leaves it GC work to pay
   for: without this, x264-sim's peak RSS spread 4-9% across seeds. *)
let run w ~seed ~rounds ~scale ~mode =
  List.init rounds (fun r ->
      Gc.full_major ();
      round w ~seed:(round_seed ~seed r) ~scale ~mode)

(* The determinism probe: the first round at 1/100 size, run twice as
   plain and once with every observer.  On the simulator all three must
   produce byte-identical virtual-time results. *)
let probe w ~seed ~scale =
  let once mode = (round w ~seed:(round_seed ~seed 0) ~scale:(scale * 100) ~mode).virt in
  let a = once Plain and b = once Plain and c = once (Observed { span_capacity = 4096 }) in
  (a = b, a = c)
