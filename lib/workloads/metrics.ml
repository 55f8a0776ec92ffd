(* Response-time and throughput bookkeeping for the server workloads.

   Samples are held in bounded reservoirs (Stats.Reservoir), so a long
   [serve] run uses O(capacity) memory instead of growing a list per
   request: means stay exact (running sums), percentiles are exact until
   the reservoir overflows and a uniform-sample estimate after.  When a
   metrics registry is installed the same observations also feed the
   [parcae_requests_*_total] counters and the [parcae_response_ns] /
   [parcae_exec_ns] summaries, which is what the live dashboard and the
   Prometheus exposition read. *)

module Engine = Parcae_platform.Engine
module Stats = Parcae_util.Stats
module Obs = Parcae_obs.Metrics
module Hdr = Parcae_obs.Hdr
module Span = Parcae_obs.Span
module Observed = Parcae_obs.Observed

type req_metrics = {
  rm_submitted : Obs.counter;
  rm_completed : Obs.counter;
  rm_response : Obs.summary;
  rm_exec : Obs.summary;
}

type t = {
  eng : Engine.t;
  responses : Stats.Reservoir.t;  (* seconds, arrival to completion *)
  exec_times : Stats.Reservoir.t;  (* seconds of processing (no queue wait) *)
  mutable completed : int;
  mutable submitted : int;
  mutable first_completion_ns : int;
  mutable last_completion_ns : int;
  lat_hdr : Hdr.t;
      (* always-on end-to-end latency distribution, integer ns: latency
         quantiles on the serve path come from here (bounded relative
         error, deterministic), not from the response reservoir, whose
         percentile estimate depends on the sampling seed once it
         overflows.  Reservoirs stay for means and workload-internal
         stats (DESIGN.md section 15). *)
}

let create eng =
  {
    eng;
    responses = Stats.Reservoir.create ();
    exec_times = Stats.Reservoir.create ();
    completed = 0;
    submitted = 0;
    first_completion_ns = -1;
    last_completion_ns = -1;
    lat_hdr = Hdr.create ();
  }

(* Rewind to a fresh state without reallocating: the reservoirs keep their
   sample buffers, so repeated batch runs (max-throughput searches, the
   allocation bench) reuse one [t] instead of growing garbage per run.
   Registry counters are cumulative by design and are left alone. *)
let reset t =
  Stats.Reservoir.reset t.responses;
  Stats.Reservoir.reset t.exec_times;
  t.completed <- 0;
  t.submitted <- 0;
  t.first_completion_ns <- -1;
  t.last_completion_ns <- -1;
  Hdr.clear t.lat_hdr

let handles =
  Obs.cached (fun reg ->
      {
        rm_submitted =
          Obs.counter reg "parcae_requests_submitted_total"
            ~help:"Requests submitted to the server workload.";
        rm_completed =
          Obs.counter reg "parcae_requests_completed_total"
            ~help:"Requests completed by the server workload.";
        rm_response =
          Obs.summary reg "parcae_response_ns"
            ~help:"Request response time, arrival to completion.";
        rm_exec =
          Obs.summary reg "parcae_exec_ns"
            ~help:"Request execution time, processing only (no queue wait).";
      })

let submitted t = t.submitted
let completed t = t.completed

let note_submit t =
  t.submitted <- t.submitted + 1;
  if Obs.enabled () then Obs.inc (handles ()).rm_submitted

(* Record the completion of [req] at the current virtual time. *)
let note_complete t (req : Request.t) =
  let now = Engine.time t.eng in
  (* Close the request's span first so the completion stamp matches the
     latency observed below; publishes to the installed span collector
     (no-op without one). *)
  if Atomic.get Observed.word land Observed.span <> 0 then Span.finish req.Request.span ~now;
  let lat_ns = now - req.Request.arrival_ns in
  Hdr.observe t.lat_hdr lat_ns;
  let resp = Engine.seconds_of_ns lat_ns in
  Stats.Reservoir.observe t.responses resp;
  let started = req.Request.start_ns >= 0 in
  if started then
    Stats.Reservoir.observe t.exec_times (Engine.seconds_of_ns (now - req.Request.start_ns));
  t.completed <- t.completed + 1;
  if t.first_completion_ns < 0 then t.first_completion_ns <- now;
  t.last_completion_ns <- now;
  if Obs.enabled () then begin
    let h = handles () in
    Obs.inc h.rm_completed;
    Obs.observe_summary h.rm_response lat_ns;
    if started then Obs.observe_summary h.rm_exec (now - req.Request.start_ns)
  end

let responses t = Stats.Reservoir.samples t.responses

(* Mean per-request execution time (T_exec of Equation 2.1).  Exact: the
   reservoir keeps running sums over every observation. *)
let mean_exec t =
  if Stats.Reservoir.count t.exec_times = 0 then nan else Stats.Reservoir.mean t.exec_times

let mean_response t =
  if Stats.Reservoir.count t.responses = 0 then nan else Stats.Reservoir.mean t.responses

(* Latency quantiles read the HDR distribution: deterministic and exact
   to the configured relative error over every completion, where the
   reservoir percentile becomes a seed-dependent estimate after
   overflow. *)
let latency_quantile_ns t q = Hdr.quantile t.lat_hdr q

let response_quantile t q =
  if Hdr.count t.lat_hdr = 0 then nan
  else Engine.seconds_of_ns (Hdr.quantile t.lat_hdr q)

let p95_response t = response_quantile t 0.95

(* Sustained completion throughput in requests/second, measured from first
   to last completion (robust to warm-up). *)
let throughput t =
  if t.completed < 2 then 0.0
  else begin
    let span = t.last_completion_ns - t.first_completion_ns in
    if span <= 0 then 0.0
    else float_of_int (t.completed - 1) /. Engine.seconds_of_ns span
  end
