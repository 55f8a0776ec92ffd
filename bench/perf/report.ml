(* The metric catalogue: every number the benchmark reports, with its unit,
   direction and (for gated end-to-end metrics) its bound, next to the
   function that computes it from a run's rounds.

   Every workload reports every metric of a table, so every run has the
   same schema.  A per-layer metric of a layer the workload bypasses reads 0,
   which is itself the finding ("this workload never touches the layer"). *)

module W = Workloads
module Span = Parcae_obs.Span
module Timeline = Parcae_obs.Timeline

type better = Lower | Higher

let better_name = function Lower -> "lower" | Higher -> "higher"

(* What a computation can see: the rounds of the gated configuration,
   and in a trace run the same rounds without any observer ([bare]) and
   with every observer ([traced]), plus the layer microbench costs. *)
type ctx = {
  w : W.t;
  gated : W.sample list;
  bare : W.sample list;
  traced : W.sample list;
  costs : Layers.costs option;
  rss_mb : float;
}

let med f samples = Host.median (List.map f samples)
let per_unit f (s : W.sample) = float_of_int (f s) /. float_of_int (max 1 s.W.units)
let is_nona c = match c.w.W.kind with W.Nona _ -> true | W.Serve _ -> false
let is_native c = match c.w.W.kind with W.Serve s -> s.W.native | W.Nona _ -> false
let is_sim c = not (is_native c)

(* Nona reports one latency per round (its job), so its quantiles are
   taken across rounds; serve rounds each carry a full distribution and
   report the median of the per-round quantile.  Native latency is wall
   clock, which co-tenant load can only inflate, so there it is the lower
   quartile of the per-round quantile: over three batches of ten seeds that
   cut the p90 spread from 6-16% to 4-8% (p50: 4-7% either way). *)
let latency_ms c q pick =
  let xs = List.map pick c.gated in
  if is_nona c then Parcae_util.Stats.percentile (q *. 100.0) (Array.of_list xs)
  else if is_native c then fst (Host.quartiles xs)
  else Host.median xs

(* Scaled to a quiet host on sim workloads (Workloads.run_timed). *)
let cpu_us_per_unit = med (fun s -> s.W.cpu_s *. 1e6 /. float_of_int (max 1 s.W.units))

(* name, unit, better, bound: the share of the parent's median by which the
   metric may worsen before a change counts as a regression. *)
let end_to_end : (string * string * better * float * (ctx -> float)) list =
  [
    ("setup_s", "s", Lower, 0.25, fun c -> med (fun s -> s.W.setup_s) c.gated);
    ("cpu_us_per_req", "us", Lower, 0.25, fun c -> cpu_us_per_unit c.gated);
    ("peak_rss_mb", "MB", Lower, 0.25, fun c -> c.rss_mb);
  ]

(* End-to-end figures that are printed, kept in baselines and compared by
   --compare, but are not in BENCHMARK.json: a gated metric must exist on
   every workload and hold steady on every one.  Latency fails the second:
   sim latency is virtual and repeats exactly per seed, but ferret-native's
   is wall clock, and a host episode once raised its p90 from 0.9 to
   1.9-4.9 ms over three runs in a row, with CPU per request unmoved. *)
let ungated : (string * string * better * float * (ctx -> float option)) list =
  [
    ("p50_ms", "ms", Lower, 0.01, fun c -> Some (latency_ms c 0.5 (fun s -> s.W.p50_ms)));
    ("p90_ms", "ms", Lower, 0.01, fun c -> Some (latency_ms c 0.9 (fun s -> s.W.p90_ms)));
    ( "p99_ms",
      "ms",
      Lower,
      0.01,
      fun c -> if is_native c then None else Some (latency_ms c 0.99 (fun s -> s.W.p99_ms)) );
    ( "max_rps",
      "req/s",
      Higher,
      0.01,
      fun c ->
        if is_nona c || is_native c then None else Some (med (fun s -> s.W.max_rps) c.gated) );
    ( "energy_j_per_req",
      "J",
      Lower,
      0.01,
      fun c -> if is_native c then None else Some (med (fun s -> s.W.energy_j) c.gated) );
    ( "speedup",
      "x",
      Higher,
      0.01,
      fun c -> if is_nona c then Some (med (fun s -> s.W.speedup) c.gated) else None );
    (* The host, not the program: CPU per request as measured, and raw over
       scaled CPU (the probe's slowdown to the workload's sensitivity), so
       the scaling behind cpu_us_per_req is never hidden.  Native CPU is not
       scaled.  Both move with the host, so --compare never calls them
       regressed. *)
    ( "cpu_raw_us_per_req",
      "us",
      Lower,
      infinity,
      fun c ->
        if is_native c then None
        else Some (med (fun s -> s.W.raw_cpu_s *. 1e6 /. float_of_int (max 1 s.W.units)) c.gated)
    );
    ( "host_slowdown",
      "x",
      Lower,
      infinity,
      fun c ->
        if is_native c then None
        else Some (med (fun s -> s.W.raw_cpu_s /. Float.max 1e-9 s.W.cpu_s) c.gated) );
    ( "fail_ratio",
      "ratio",
      Lower,
      0.0,
      fun c ->
        let sum f = List.fold_left (fun acc s -> acc + f s) 0 c.gated in
        let failed = sum (fun s -> s.W.failed) and attempted = sum (fun s -> s.W.attempted) in
        Some (float_of_int failed /. float_of_int (max 1 attempted)) );
  ]

let traced_field f c =
  match c.traced with
  | [] -> 0.0
  | ts -> med (fun s -> match s.W.traced with Some t -> f s t | None -> 0.0) ts

let traced_per_unit f = traced_field (fun s t -> f t /. float_of_int (max 1 s.W.units))
let cost f c = match c.costs with Some k -> f k | None -> 0.0
let native_only f c = if is_native c then f c else 0.0
let sim_only f c = if is_sim c then f c else 0.0
let nona_only f c = if is_nona c then f c else 0.0

let timeline_share state = traced_field (fun _ t -> List.assoc state t.W.timeline)

let ledger_share phase =
  traced_field (fun _ t ->
      let total = float_of_int (List.fold_left (fun acc (_, ns) -> acc + ns) 0 t.W.ledger_ns) in
      if total = 0.0 then 0.0 else float_of_int (List.assoc phase t.W.ledger_ns) /. total)

let phase_share p =
  traced_field (fun _ t ->
      if t.W.span_total_ns = 0.0 then 0.0 else List.assoc p t.W.phase_ns /. t.W.span_total_ns)

let obs_tax c =
  match (c.bare, c.traced) with
  | [], _ | _, [] -> 0.0
  | bare, traced -> (cpu_us_per_unit traced /. cpu_us_per_unit bare) -. 1.0

(* Reconstruction: each layer's per-op cost times its ops per request,
   summed.  Engine events, channel ops and hooks overlap a little (a
   channel op can itself cause an engine event), and native idle spinning
   is in no row, so the residual is reported as measured, sign included. *)
let layers_sum_ns c =
  match c.costs with
  | None -> 0.0
  | Some k ->
      let g f = med (per_unit f) c.gated in
      let core =
        (if is_sim c then
           (g (fun s -> s.W.events) *. k.Layers.sim_event_ns)
           +. (g (fun s -> s.W.spawned) *. k.Layers.sim_spawn_ns)
         else 0.0)
        +. traced_per_unit (fun t -> t.W.chan_ops) c
           *. (if is_native c then k.Layers.native_chan_op_ns else k.Layers.chan_op_ns)
        +. (g (fun s -> s.W.pool_acquires) *. k.Layers.pool_op_ns)
        +. (g (fun s -> s.W.hooks) *. k.Layers.decima_hook_ns)
        +. traced_per_unit (fun t -> float_of_int t.W.ctrl_epochs) c
           *. (k.Layers.ctrl_epoch_us *. 1e3)
        +. (if is_nona c then k.Layers.ir_iter_ns else 0.0)
        +. if is_native c then float_of_int W.native_spin_ns else 0.0
      in
      let observers =
        (if is_nona c then 0.0
         else
           (traced_field (fun _ t -> t.W.span_stages) c *. k.Layers.span_op_ns)
           +. k.Layers.span_lifecycle_ns)
        +. (traced_per_unit (fun t -> t.W.counter_updates) c *. k.Layers.metrics_inc_ns)
        +. traced_per_unit (fun t -> t.W.summary_observes) c
           *. k.Layers.metrics_observe_summary_ns
        +. (traced_per_unit (fun t -> float_of_int t.W.trace_events) c *. k.Layers.trace_emit_ns)
      in
      core +. if c.w.W.observed then observers else 0.0

let residual_share c =
  let cpu = cpu_us_per_unit c.gated *. 1e3 in
  if cpu = 0.0 then 0.0 else (cpu -. layers_sum_ns c) /. cpu

let lag_ms q (s : W.sample) = float_of_int (Parcae_obs.Hdr.quantile s.W.lag q) *. 1e-6

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let per_layer : (string * string * better * (ctx -> float)) list =
  let g f c = med f c.gated in
  let per_kreq f = g (fun s -> 1000.0 *. per_unit f s) in
  [
    (* benchmark generator *)
    ("gen.lag_p50_ms", "ms", Lower, g (lag_ms 0.5));
    ("gen.lag_p99_ms", "ms", Lower, g (lag_ms 0.99));
    (* parcae_core *)
    ("pool.hit_ratio", "ratio", Higher, g (fun s -> ratio s.W.pool_hits s.W.pool_acquires));
    ("pool.op_ns", "ns", Lower, cost (fun k -> k.Layers.pool_op_ns));
    ("pipeline.drain_batch_ns", "ns", Lower, cost (fun k -> k.Layers.drain_batch_ns));
    ( "alloc.minor_words_per_req",
      "words",
      Lower,
      g (fun s -> s.W.minor_words /. float_of_int (max 1 s.W.units)) );
    ("gc.major_per_kreq", "count", Lower, per_kreq (fun s -> s.W.major_gcs));
    (* parcae_sim *)
    ("sim.events_per_req", "count", Lower, sim_only (g (per_unit (fun s -> s.W.events))));
    ("sim.event_ns", "ns", Lower, cost (fun k -> k.Layers.sim_event_ns));
    ("sim.ctx_switches_per_req", "count", Lower, traced_per_unit (fun t -> t.W.ctx_switches));
    ( "sim.threads_spawned_per_req",
      "count",
      Lower,
      sim_only (g (per_unit (fun s -> s.W.spawned))) );
    ("sim.spawn_ns", "ns", Lower, cost (fun k -> k.Layers.sim_spawn_ns));
    ( "sim.busy_core_share",
      "share",
      Higher,
      traced_field (fun _ t ->
          let tot = t.W.busy_core_ns +. t.W.idle_core_ns in
          if tot = 0.0 then 0.0 else t.W.busy_core_ns /. tot) );
    ("sim.max_rps", "req/s", Higher, g (fun s -> s.W.max_rps));
    ("sim.energy_j_per_req", "J", Lower, sim_only (g (fun s -> s.W.energy_j)));
    ("chan.ops_per_req", "count", Lower, traced_per_unit (fun t -> t.W.chan_ops));
    ("chan.op_ns", "ns", Lower, cost (fun k -> k.Layers.chan_op_ns));
    ( "chan.recv_block_ms_per_req",
      "ms",
      Lower,
      traced_per_unit (fun t -> t.W.chan_recv_block_ns *. 1e-6) );
    (* parcae_native *)
    ( "native.steals_per_req",
      "count",
      Higher,
      native_only (traced_per_unit (fun t -> float_of_int t.W.steals)) );
    ( "native.steal_success_ratio",
      "ratio",
      Higher,
      native_only (traced_field (fun _ t -> ratio t.W.steals t.W.steal_attempts)) );
    ("native.run_share", "share", Higher, native_only (timeline_share Timeline.Run));
    ("native.park_share", "share", Lower, native_only (timeline_share Timeline.Park));
    ( "native.steal_search_share",
      "share",
      Lower,
      native_only (timeline_share Timeline.Steal_search) );
    ("native.chan_wait_share", "share", Lower, native_only (timeline_share Timeline.Chan_wait));
    ("native.gc_share", "share", Lower, native_only (timeline_share Timeline.Gc));
    ("native.chan_op_ns", "ns", Lower, cost (fun k -> k.Layers.native_chan_op_ns));
    ("native.deque_owner_ns", "ns", Lower, cost (fun k -> k.Layers.native_deque_owner_ns));
    ("native.deque_steal_ns", "ns", Lower, cost (fun k -> k.Layers.native_deque_steal_ns));
    ("native.spin_error", "ratio", Lower, cost (fun k -> k.Layers.native_spin_error));
    (* wall-clock tail: too noisy across runs to gate *)
    ("native.p99_ms", "ms", Lower, native_only (fun c -> latency_ms c 0.99 (fun s -> s.W.p99_ms)));
    (* parcae_runtime + parcae_mechanisms *)
    ("exec.reconfigs_per_kreq", "count", Lower, per_kreq (fun s -> s.W.reconfigs));
    ( "exec.reconfig_stall_ms_mean",
      "ms",
      Lower,
      g (fun s -> 1e-6 *. ratio s.W.stall_ns s.W.reconfigs) );
    ("ledger.signal_share", "share", Lower, ledger_share "signal");
    ("ledger.barrier_share", "share", Lower, ledger_share "barrier");
    ("ledger.flush_share", "share", Lower, ledger_share "flush");
    ("ledger.restart_share", "share", Lower, ledger_share "restart");
    ("mech.decisions_per_kreq", "count", Lower, per_kreq (fun s -> s.W.decisions));
    ("decima.hooks_per_req", "count", Lower, g (per_unit (fun s -> s.W.hooks)));
    ("decima.hook_ns", "ns", Lower, cost (fun k -> k.Layers.decima_hook_ns));
    ("ctrl.epochs", "count", Lower, traced_field (fun _ t -> float_of_int t.W.ctrl_epochs));
    ("ctrl.gradient_steps", "count", Lower, traced_field (fun _ t -> t.W.gradient_steps));
    ("ctrl.epoch_us", "us", Lower, cost (fun k -> k.Layers.ctrl_epoch_us));
    (* parcae_obs *)
    ("obs.tax", "ratio", Lower, obs_tax);
    ("trace.overhead", "ratio", Lower, fun c -> if c.w.W.observed then 0.0 else obs_tax c);
    ("span.phase_queue_share", "share", Lower, phase_share Span.Queue);
    ("span.phase_chan_share", "share", Lower, phase_share Span.Chan);
    ("span.phase_compute_share", "share", Higher, phase_share Span.Compute);
    ("span.phase_reconfig_share", "share", Lower, phase_share Span.Reconfig);
    ("span.phase_gc_share", "share", Lower, phase_share Span.Gc);
    ("span.op_ns", "ns", Lower, cost (fun k -> k.Layers.span_op_ns));
    ("span.lifecycle_ns", "ns", Lower, cost (fun k -> k.Layers.span_lifecycle_ns));
    ("metrics.inc_ns", "ns", Lower, cost (fun k -> k.Layers.metrics_inc_ns));
    ( "metrics.observe_summary_ns",
      "ns",
      Lower,
      cost (fun k -> k.Layers.metrics_observe_summary_ns) );
    ("trace.emit_ns", "ns", Lower, cost (fun k -> k.Layers.trace_emit_ns));
    ("span.drops", "count", Lower, traced_field (fun _ t -> float_of_int t.W.span_drops));
    ("trace.drops", "count", Lower, traced_field (fun _ t -> float_of_int t.W.trace_drops));
    (* parcae_nona / ir / pdg / analysis *)
    ("nona.compile_ms", "ms", Lower, nona_only (g (fun s -> s.W.compile_s *. 1e3)));
    ("nona.pdg_build_us", "us", Lower, cost (fun k -> k.Layers.pdg_build_us));
    ("nona.scc_build_us", "us", Lower, cost (fun k -> k.Layers.scc_build_us));
    ("nona.speedup", "x", Higher, nona_only (g (fun s -> s.W.speedup)));
    ("ir.iter_ns", "ns", Lower, cost (fun k -> k.Layers.ir_iter_ns));
    (* reconstruction *)
    ("layers.sum_us_per_req", "us", Lower, fun c -> layers_sum_ns c *. 1e-3);
    ("layers.residual_share", "share", Lower, residual_share);
  ]
