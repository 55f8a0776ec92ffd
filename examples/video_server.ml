(* A video transcoding server riding out a load spike (the scenario that
   motivates the paper's Chapter 2).

     dune exec examples/video_server.exe

   Requests arrive at 30% of the platform's capacity, spike to 105% for a
   while, and fall back.  The WQ-Linear mechanism continuously re-derives
   the inner (per-video) degree of parallelism from the work-queue
   occupancy: under light load each video is transcoded by a team of 8
   threads (low latency); under the spike the inner parallelism is turned
   off so all 24 threads serve distinct videos (maximum throughput). *)

open Parcae_sim
module Engine = Parcae_platform.Engine
module Chan = Parcae_platform.Chan
module Lock = Parcae_platform.Lock
open Parcae_core
open Parcae_runtime
open Parcae_workloads
module Rng = Parcae_util.Rng

let () =
  let machine = Machine.xeon_x7460 in
  let eng = Engine.create machine in
  let app = Transcode.make ~budget:machine.Machine.cores eng in
  let maxthr = 14.3 (* videos/s, measured by Experiments.max_throughput *) in

  (* Launch the server with inner parallelism on, managed by WQ-Linear. *)
  let region =
    Executor.launch ~budget:24 ~name:"video-server" eng app.App.schemes
      ~on_pause:app.App.on_pause ~on_reset:app.App.on_reset
      (App.config app "inner-max")
  in
  let mechanism = Option.get (List.assoc "wq-linear" Experiments.mechanisms) app in
  ignore
    (Morta.spawn
       ~stop:(fun () -> Region.is_done region)
       ~period_ns:500_000_000 ~mechanism eng region);

  (* A load generator with three phases: calm, spike, calm. *)
  let rng = Rng.create 2024 in
  let phases = [ (0.30, 12.0); (1.05, 18.0); (0.30, 12.0) ] in
  ignore
    (Engine.spawn eng ~name:"load" (fun () ->
         let id = ref 0 in
         List.iter
           (fun (load, duration_s) ->
             let rate = load *. maxthr in
             let until = Engine.now () + int_of_float (duration_s *. 1e9) in
             while Engine.now () < until do
               Engine.sleep (int_of_float (Rng.exponential rng ~rate *. 1e9));
               let scale = Float.max 0.5 (Rng.gaussian rng ~mu:1.0 ~sigma:0.08) in
               let req = Request.create ~id:!id ~arrival_ns:(Engine.now ()) ~scale in
               incr id;
               Metrics.note_submit app.App.metrics;
               Pipeline.send app.App.queue req
             done)
           phases;
         Pipeline.inject_eos app.App.queue));

  (* Periodic report: queue depth, chosen configuration, response times. *)
  ignore
    (Engine.spawn eng ~name:"reporter" (fun () ->
         let prev = ref 0 in
         while not (Region.is_done region) do
           Engine.sleep 2_000_000_000;
           let served = Metrics.completed app.App.metrics in
           let window = served - !prev in
           prev := served;
           Printf.printf "t=%5.1fs  queue=%3.0f  config=%-18s  served=%5d (%.1f/s)\n"
             (Engine.seconds_of_ns (Engine.now ()))
             (app.App.wq_load ())
             (Config.to_string (Region.config region))
             served
             (float_of_int window /. 2.0)
         done));

  ignore (Engine.run ~until:120_000_000_000 eng);
  Printf.printf "\nServed %d requests; mean response %.2f s, p95 %.2f s, %d reconfigurations\n"
    (Metrics.completed app.App.metrics)
    (Metrics.mean_response app.App.metrics)
    (Metrics.p95_response app.App.metrics)
    (Region.reconfig_count region)
