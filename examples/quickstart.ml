(* Quickstart: a three-stage pipeline made flexible with the Parcae API.

     dune exec examples/quickstart.exe

   The program builds a produce -> transform -> consume pipeline on the
   simulated 24-thread platform, launches it under Morta with the TBF
   (throughput balance) mechanism, and shows the runtime discovering that
   the transform stage deserves nearly all the threads. *)

open Parcae_sim
module Engine = Parcae_platform.Engine
module Chan = Parcae_platform.Chan
module Lock = Parcae_platform.Lock
open Parcae_core
open Parcae_runtime
module Mech = Parcae_mechanisms

let () =
  let machine = Machine.xeon_x7460 in
  let eng = Engine.create machine in

  (* Stage plumbing: bounded channels between stages. *)
  let q1 = Chan.create ~capacity:8 eng "q1" and q2 = Chan.create ~capacity:8 eng "q2" in
  let produced = ref 0 and consumed = ref 0 in
  let n_items = 150_000 in

  (* The three tasks, built with the Pipeline helpers that implement the
     pause/flush protocol of the paper's Section 4.6.  [~max_batch:1]
     makes a stage take one item per invocation. *)
  let produce =
    Pipeline.source ~name:"produce" ~forward:(Pipeline.forward_to q1) (fun _ctx ->
        if !produced >= n_items then Task_status.Complete
        else begin
          Engine.compute 2_000 (* 2 us to read an item *);
          Pipeline.send q1 !produced;
          incr produced;
          Task_status.Iterating
        end)
  in
  let transform =
    Pipeline.drain_stage ~max_batch:1 ~name:"transform" ~input:q1 ~load:(Pipeline.load q1)
      ~forward:(Pipeline.forward_to q2) (fun ctx item ->
        ctx.Task.hook_begin ();
        Engine.compute 40_000 (* 40 us of real work *);
        ctx.Task.hook_end ();
        Pipeline.send q2 (item * 2);
        Task_status.Iterating)
  in
  let consume =
    Pipeline.drain_stage ~max_batch:1 ~ttype:Task.Seq ~name:"consume" ~input:q2
      ~forward:(fun _ -> ())
      (fun _ctx _item ->
        Engine.compute 1_000;
        incr consumed;
        Task_status.Iterating)
  in

  (* Declare the parallelism structure — but not the configuration: Morta
     will pick the degrees of parallelism. *)
  let pd =
    Task.descriptor ~name:"quickstart"
      [ produce.Pipeline.task; transform.Pipeline.task; consume.Pipeline.task ]
  in
  let on_reset =
    Pipeline.make_reset ~stages:[ produce; transform; consume ] ~channels:[ q1; q2 ]
  in

  (* Launch with a deliberately bad initial configuration (1 thread per
     stage) and let the TBF mechanism rebalance. *)
  let initial = Config.make [ Config.seq_task; Config.task 1; Config.seq_task ] in
  let region = Executor.launch ~budget:24 ~name:"quickstart" eng [ pd ] ~on_reset initial in
  ignore
    (Morta.spawn
       ~stop:(fun () -> Region.is_done region)
       ~period_ns:50_000_000 ~mechanism:(Mech.Tbf.make ()) eng region);

  (* Report progress from inside the simulation. *)
  ignore
    (Engine.spawn eng ~name:"reporter" (fun () ->
         while not (Region.is_done region) do
           Engine.sleep 50_000_000;
           Printf.printf "t=%5.2fs  config=%-14s  consumed=%6d\n"
             (Engine.seconds_of_ns (Engine.now ()))
             (Config.to_string (Region.config region))
             !consumed
         done));

  ignore (Engine.run eng);
  Printf.printf "\nDone: %d items in %.3f s of virtual time (%.0f items/s)\n" !consumed
    (Engine.seconds_of_ns (Engine.time eng))
    (float_of_int !consumed /. Engine.seconds_of_ns (Engine.time eng));
  Printf.printf "Final configuration: %s (threads: %d of 24)\n"
    (Config.to_string (Region.config region))
    (Config.threads (Region.config region));
  Printf.printf "Reconfigurations performed by Morta: %d\n" (Region.reconfig_count region)
