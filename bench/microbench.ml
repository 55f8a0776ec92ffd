(* Bechamel micro-benchmarks of the runtime primitives (host time).

   These complement the virtual-time experiments: they measure what the
   *implementation* costs on the host — how fast the simulator processes
   events, how expensive PDG construction and SCC formation are, the cost
   of the deterministic RNG and priority queue underneath everything, and
   the native backend's primitives (domain spawn, channel ops, and how
   accurately the calibrated spin kernel converts ns to real work), and
   a channel between two domains. *)

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

(* ---- Two-domain channel probe ---- *)

(* The channel rows above time one thread against itself, which no
   workload does.  This probe moves [probe_items] ints from a producer
   fiber to a consumer fiber on a 2-domain native engine, singly or in
   batches of 16, through an unbounded channel and one of capacity 64.
   Each run is timed on the wall clock from the spawns to the engine's
   return; the row is the median of [probe_runs] runs, in ns per item. *)
let probe_items = 1_000_000
let probe_runs = 5

let probe_once ~capacity ~batch =
  let module NE = Parcae_native.Engine in
  let module NC = Parcae_native.Chan in
  let eng = NE.create ~pool:2 () in
  let ch = NC.create ~capacity eng "probe" in
  let chunk = List.init batch Fun.id in
  let t0 = Parcae_native.Calibrate.now_ns () in
  ignore
    (NE.spawn eng ~name:"producer" (fun () ->
         if batch = 1 then
           for i = 1 to probe_items do
             NC.send ch i
           done
         else
           for _ = 1 to probe_items / batch do
             NC.send_batch ch chunk
           done));
  ignore
    (NE.spawn eng ~name:"consumer" (fun () ->
         let got = ref 0 in
         while !got < probe_items do
           if batch = 1 then begin
             ignore (NC.recv ch : int);
             incr got
           end
           else got := !got + List.length (NC.recv_batch ~max:batch ch)
         done));
  ignore (NE.run eng);
  let ns = Parcae_native.Calibrate.now_ns () - t0 in
  NE.shutdown eng;
  float_of_int ns /. float_of_int probe_items

let run_probe () =
  let t =
    Parcae_util.Table.create
      ~title:
        (Printf.sprintf "Two-domain channel probe (%d ints, ns/item, median of %d)" probe_items
           probe_runs)
      ~header:[ "case"; "median"; "min"; "max" ]
  in
  List.iter
    (fun (name, capacity, batch) ->
      let runs = List.init probe_runs (fun _ -> probe_once ~capacity ~batch) in
      let sorted = Array.of_list (List.sort compare runs) in
      let f = Printf.sprintf "%.1f" in
      Parcae_util.Table.add_row t
        [ name; f sorted.(probe_runs / 2); f sorted.(0); f sorted.(probe_runs - 1) ])
    [
      ("batches of 16, unbounded", 0, 16);
      ("batches of 16, capacity 64", 64, 16);
      ("single sends, capacity 64", 64, 1);
      ("single sends, unbounded", 0, 1);
    ];
  Parcae_util.Table.print t

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
  Parcae_util.Table.print t;
  run_probe ()
