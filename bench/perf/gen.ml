(* The benchmark's own open-loop Poisson generator.

   The schedule and the request scales come from the seed through the same
   Rng draws, in the same order, as [Load_gen.generator]: an exponential
   inter-arrival gap, then a gaussian size factor.  Two things differ.
   Each request's [arrival_ns] is the time it was *due*, not the time it
   was sent, so a stall that delays the generator still counts against
   every request it held back.  And the schedule is absolute (due times
   accumulate from the start), so per-send costs cannot drift it.  How late
   each send actually ran is recorded as lag.

   On the simulator the generator is an engine fiber that sleeps until
   each due time.  On native it is one system thread outside the engine,
   so a stalled engine cannot slow the schedule. *)

module Engine = Parcae_platform.Engine
module Pipeline = Parcae_core.Pipeline
module Rng = Parcae_util.Rng
module Hdr = Parcae_obs.Hdr
module App = Parcae_workloads.App
module Request = Parcae_workloads.Request
module Wmetrics = Parcae_workloads.Metrics

type t = {
  rng : Rng.t;
  rate : float;  (* requests per second *)
  n : int;
  lag : Hdr.t;  (* ns each send ran behind its due time *)
}

let create ~seed ~rate ~n = { rng = Rng.create seed; rate; n; lag = Hdr.create () }

let gap_ns t = int_of_float (Rng.exponential t.rng ~rate:t.rate *. 1e9)

let emit t (app : App.t) ~id ~due ~now =
  Hdr.observe t.lag (max 0 (now - due));
  let scale = Float.max 0.5 (Rng.gaussian t.rng ~mu:1.0 ~sigma:0.08) in
  let req = Request.alloc ~id ~arrival_ns:due ~scale in
  Wmetrics.note_submit app.App.metrics;
  Pipeline.send app.App.queue req

let spawn_sim t (app : App.t) =
  Engine.spawn app.App.eng ~name:"perf-gen" (fun () ->
      let due = ref (Engine.now ()) in
      for id = 0 to t.n - 1 do
        due := !due + gap_ns t;
        Engine.sleep_until !due;
        emit t app ~id ~due:!due ~now:(Engine.now ())
      done;
      Pipeline.inject_eos app.App.queue)

let start_native t (app : App.t) =
  let eng = app.App.eng in
  Thread.create
    (fun () ->
      let due = ref (Engine.time eng) in
      for id = 0 to t.n - 1 do
        due := !due + gap_ns t;
        let wait = !due - Engine.time eng in
        if wait > 0 then Thread.delay (float_of_int wait *. 1e-9);
        emit t app ~id ~due:!due ~now:(Engine.time eng)
      done;
      Pipeline.inject_eos app.App.queue)
    ()
