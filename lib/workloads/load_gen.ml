(* Poisson request generator (Section 8's methodology).

   "The arrival of tasks was simulated using a task queuing thread that
   enqueues tasks to a work queue according to a Poisson distribution.  The
   average arrival rate determines the load factor on the system."

   The generator runs as a simulated thread: it draws exponential
   inter-arrival times at the requested rate, stamps each request with its
   arrival time, enqueues it, and injects an end-of-stream sentinel after
   the last request so batch experiments terminate cleanly. *)

module Engine = Parcae_platform.Engine
module Chan = Parcae_platform.Chan
module Pipeline = Parcae_core.Pipeline
module Rng = Parcae_util.Rng

(* Relative standard deviation of the gaussian per-request scale factors
   around 1.0. *)
let jitter = 0.08

(* Generate [m] requests at [rate_per_s] (Poisson) into [queue], recording
   submissions in [metrics]; an end-of-stream sentinel follows the last
   request. *)
let generator ~rng ~rate_per_s ~m ~queue ~metrics () =
  let next_id = ref 0 in
  for _ = 1 to m do
    let gap = Rng.exponential rng ~rate:rate_per_s in
    Engine.sleep (int_of_float (gap *. 1e9));
    let scale = Float.max 0.5 (Rng.gaussian rng ~mu:1.0 ~sigma:jitter) in
    (* Pooled: the tail stage frees the record back on completion. *)
    let req = Request.alloc ~id:!next_id ~arrival_ns:(Engine.now ()) ~scale in
    incr next_id;
    Metrics.note_submit metrics;
    Pipeline.send queue req
  done;
  Pipeline.inject_eos queue

(* Enqueue [m] requests all arriving at time ~0 — the batch mode used by
   the throughput experiments (Table 8.5, Figures 8.6-8.7).  Like
   [generator], this is a simulated-thread body. *)
let batch ~rng ~m ~queue ~metrics () =
  (* One batched enqueue for the whole burst: a single [chan_op] charge
     (amortized communication) instead of m, which matters exactly here —
     the work-queue hot path every batch experiment funnels through. *)
  let reqs =
    List.init m (fun id ->
        let scale = Float.max 0.5 (Rng.gaussian rng ~mu:1.0 ~sigma:jitter) in
        (* Pooled: the tail stage frees the record back on completion. *)
        let req = Request.alloc ~id ~arrival_ns:0 ~scale in
        Metrics.note_submit metrics;
        Pipeline.Item req)
  in
  Chan.send_batch queue reqs;
  Pipeline.inject_eos queue

let spawn_generator ~rng ~rate_per_s ~m ~queue ~metrics eng =
  Engine.spawn eng ~name:"load-generator" (fun () ->
      generator ~rng ~rate_per_s ~m ~queue ~metrics ())

let spawn_batch ~rng ~m ~queue ~metrics eng =
  Engine.spawn eng ~name:"batch-loader" (fun () -> batch ~rng ~m ~queue ~metrics ())
