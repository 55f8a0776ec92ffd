(* Bechamel micro-benchmarks of the runtime primitives (host time).

   These complement the virtual-time experiments: they measure what the
   *implementation* costs on the host — how fast the simulator processes
   events, how expensive PDG construction and SCC formation are, the cost
   of the deterministic RNG and priority queue underneath everything, and
   the native backend's primitives (domain spawn, channel ops, and how
   accurately the calibrated spin kernel converts ns to real work). *)

open Bechamel
open Toolkit
module Pqueue = Parcae_util.Pqueue
module Rng = Parcae_util.Rng
module Engine = Parcae_sim.Engine
module Machine = Parcae_sim.Machine
module Pdg = Parcae_pdg.Pdg
module Scc = Parcae_pdg.Scc
module Kernels = Parcae_ir.Kernels

let test_rng =
  let rng = Rng.create 1 in
  Test.make ~name:"rng: float draw" (Staged.stage (fun () -> ignore (Rng.float rng)))

let test_pqueue =
  let q = Pqueue.create () in
  let k = { Pqueue.time = 0; push = 0; first = 0; seq = 0 } in
  let i = ref 0 in
  Test.make ~name:"pqueue: push+pop"
    (Staged.stage (fun () ->
         incr i;
         Pqueue.push q ~time:!i ~push:0 ~first:!i ~seq:!i !i;
         ignore (Pqueue.pop_into q k : int)))

let test_engine_events =
  Test.make ~name:"engine: 1000 sim events"
    (Staged.stage (fun () ->
         let eng = Engine.create (Machine.test_machine ~cores:4 ()) in
         for w = 0 to 3 do
           ignore
             (Engine.spawn eng
                ~name:(Printf.sprintf "w%d" w)
                (fun () ->
                  for _ = 1 to 125 do
                    Engine.compute 100
                  done))
         done;
         ignore (Engine.run eng)))

let test_pdg_build =
  let loop = Kernels.crc32 ~n:10 () in
  Test.make ~name:"nona: PDG build (crc32)" (Staged.stage (fun () -> ignore (Pdg.build loop)))

let test_scc_build =
  let loop = Kernels.crc32 ~n:10 () in
  let pdg = Pdg.build loop in
  Test.make ~name:"nona: SCC build (crc32)" (Staged.stage (fun () -> ignore (Scc.build pdg)))

(* ---- Native-backend primitives ---- *)

let test_domain_spawn =
  Test.make ~name:"native: domain spawn+join"
    (Staged.stage (fun () -> Domain.join (Domain.spawn (fun () -> ()))))

(* One shared native engine for the channel benchmarks: channels only need
   it for the clock, and monitor operations are callable from any host
   thread, so the bench loop exercises the real send/recv path. *)
let native_eng = lazy (Parcae_native.Engine.create ~pool:1 ())

let native_chan = lazy (Parcae_native.Chan.create (Lazy.force native_eng) "bench")

let test_native_chan =
  Test.make ~name:"native: chan send+recv"
    (Staged.stage (fun () ->
         let module NC = Parcae_native.Chan in
         let ch = Lazy.force native_chan in
         NC.send ch 1;
         ignore (NC.recv ch)))

let batch16 = List.init 16 Fun.id

let test_native_chan_batch =
  Test.make ~name:"native: chan send_batch+recv_batch (16 items)"
    (Staged.stage (fun () ->
         let module NC = Parcae_native.Chan in
         let ch = Lazy.force native_chan in
         NC.send_batch ch batch16;
         ignore (NC.recv_batch ~max:16 ch)))

(* Owner-side deque throughput: the fast path every worker iteration
   takes.  push+pop on an otherwise-empty deque, no contention. *)
let test_deque_owner =
  let dq = Parcae_native.Deque.create () in
  Test.make ~name:"native: deque push+pop (owner path)"
    (Staged.stage (fun () ->
         Parcae_native.Deque.push dq 1;
         ignore (Parcae_native.Deque.pop dq)))

(* Thief-side path: push as owner, take from the top with the CAS the
   stealers use.  Still uncontended — the point is the instruction cost of
   the protocol, not cache-line ping-pong. *)
let test_deque_steal =
  let dq = Parcae_native.Deque.create () in
  Test.make ~name:"native: deque push+steal (thief path)"
    (Staged.stage (fun () ->
         Parcae_native.Deque.push dq 1;
         ignore (Parcae_native.Deque.steal dq)))

(* ns/op here should read close to 100_000: the calibrated spin kernel is
   asked for 100us of work, so the estimate measures calibration accuracy
   directly. *)
let test_spin_accuracy =
  Test.make ~name:"native: calibrated spin (asked 100000ns)"
    (Staged.stage (fun () ->
         ignore (Lazy.force native_eng);
         ignore (Parcae_native.Calibrate.spin_ns 100_000)))

let run () =
  let tests =
    Test.make_grouped ~name:"primitives"
      [
        test_rng;
        test_pqueue;
        test_engine_events;
        test_pdg_build;
        test_scc_build;
        test_domain_spawn;
        test_native_chan;
        test_native_chan_batch;
        test_deque_owner;
        test_deque_steal;
        test_spin_accuracy;
      ]
  in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let t =
    Parcae_util.Table.create ~title:"Host-time micro-benchmarks (Bechamel, ns/op)"
      ~header:[ "operation"; "ns/op" ]
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name o ->
      let est =
        match Analyze.OLS.estimates o with Some (x :: _) -> Printf.sprintf "%.1f" x | _ -> "n/a"
      in
      rows := (name, est) :: !rows)
    results;
  List.iter (fun (n, e) -> Parcae_util.Table.add_row t [ n; e ])
    (List.sort compare !rows);
  Parcae_util.Table.print t
