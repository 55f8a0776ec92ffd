(* Object-pool invariants and the batched stage protocol under
   reconfiguration (DESIGN.md section 14).

   The pool side checks the striped freelist against a reference model:
   acquire must be LIFO on the local stripe, steal from sibling stripes
   before falling back to the allocator, never alias two objects that are
   simultaneously held, and never retain an object lost to a failed task.
   The pipeline side hammers a drain_stage (batched recv/send) pipeline
   with repeated DoP changes on both backends: a claimed batch must not
   straddle the reconfiguration barrier — claimed-but-unprocessed items
   are given back and survive the DoP change, so every item is consumed
   exactly once. *)

open Parcae_sim
module Engine = Parcae_platform.Engine
module Chan = Parcae_platform.Chan
open Parcae_core
open Parcae_runtime

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- freelist model (qcheck) ---- *)

(* Single stripe, so the model is exact: the free list is a bounded LIFO
   stack.  Each op either acquires (true) or releases the most recently
   acquired object (false).  Run outside any engine, every call lands on
   stripe 0. *)
let prop_pool_model =
  QCheck.Test.make ~name:"pool matches bounded-LIFO freelist model" ~count:200
    QCheck.(pair (int_range 1 8) (list bool))
    (fun (cap, ops) ->
      let next = ref 0 in
      let make () =
        incr next;
        ref !next
      in
      let p = Pool.create ~stripes:1 ~capacity:cap ~name:"model" ~dummy:(ref (-1)) make in
      let model_free = ref [] and held = ref [] in
      let ok = ref true in
      List.iter
        (fun acquire ->
          if acquire then begin
            let h0 = Pool.hits p and m0 = Pool.misses p in
            let v = Pool.acquire p in
            (match !model_free with
            | top :: rest ->
                (* Hit: must return exactly the most recently retained
                   object, and count a hit. *)
                if v != top then ok := false;
                if Pool.hits p <> h0 + 1 then ok := false;
                model_free := rest
            | [] ->
                (* Miss: a fresh object, counted as such. *)
                if Pool.misses p <> m0 + 1 then ok := false);
            (* No aliasing among simultaneously-held objects. *)
            if List.memq v !held then ok := false;
            held := v :: !held
          end
          else
            match !held with
            | [] -> ()
            | v :: rest ->
                held := rest;
                Pool.release p v;
                (* Beyond capacity the pool drops the object to the GC. *)
                if List.length !model_free < cap then model_free := v :: !model_free)
        ops;
      !ok && Pool.free_count p = List.length !model_free)

(* ---- session minor words ---- *)

module Metrics = Parcae_obs.Metrics

(* [top]'s minor-word count starts at the registry's first sample: what
   the process allocated before (here a million words, half before the
   registry is installed and half before its first sample) is not
   counted, and what the session allocates after is.  A sample's own
   publication is counted too, hence the loose upper bound. *)
let[@inline never] allocate_words n =
  for _ = 1 to n / 101 do
    ignore (Sys.opaque_identity (Array.make 100 0))
  done

let test_session_minor_words () =
  let reg = Metrics.create () in
  allocate_words 500_000;
  Metrics.with_registry reg (fun () ->
      allocate_words 500_000;
      Pool.sample_allocs ();
      let c = Metrics.counter reg "parcae_alloc_minor_words_total" in
      check_int "the first sample counts nothing" 0 (Metrics.counter_value c);
      allocate_words 3_030;
      Pool.sample_allocs ();
      let n = Metrics.counter_value c in
      check_bool
        (Printf.sprintf "the session's 3 030 words count, the million before do not (%d)" n)
        true
        (n >= 3_030 && n < 500_000);
      check_bool "the dashboard row reads the same baseline" true
        (let row = Pool.session_minor_words () in
         row >= n && row < 500_000));
  Metrics.with_registry (Metrics.create ()) (fun () ->
      check_int "another registry starts again from 0" 0 (Pool.session_minor_words ()))

(* ---- cross-stripe stealing ---- *)

let test_pool_cross_stripe_steal () =
  let next = ref 0 in
  let p =
    Pool.create ~stripes:4 ~capacity:16 ~name:"steal" ~dummy:(ref (-1)) (fun () ->
        incr next;
        ref !next)
  in
  (* Retain objects on stripe 0 (no engine running: plain context). *)
  let objs = List.init 6 (fun _ -> Pool.acquire p) in
  List.iter (Pool.release p) objs;
  let free0 = Pool.free_count p in
  check_int "freelist warmed" 6 free0;
  (* A simulated thread acquires from whichever core (= stripe) it occupies;
     whether or not that is stripe 0, every acquire must be served from the
     freelist — the producer and consumer lanes of a pipeline never match,
     so a pool that cannot steal would miss forever. *)
  let eng = Engine.create (Machine.test_machine ~cores:4 ()) in
  let h0 = Pool.hits p in
  ignore
    (Engine.spawn eng ~name:"consumer" (fun () ->
         Engine.compute 1_000;
         for _ = 1 to 6 do
           ignore (Pool.acquire p : int ref)
         done));
  ignore (Engine.run eng);
  Engine.shutdown eng;
  check_int "all acquires served from the freelist" (h0 + 6) (Pool.hits p);
  check_int "freelist drained" 0 (Pool.free_count p)

(* ---- no leak through failed tasks ---- *)

let test_pool_no_leak_on_task_failure () =
  let next = ref 0 in
  let p =
    Pool.create ~stripes:2 ~capacity:16 ~name:"crash" ~dummy:(ref (-1)) (fun () ->
        incr next;
        ref !next)
  in
  let objs = List.init 4 (fun _ -> Pool.acquire p) in
  List.iter (Pool.release p) objs;
  let free0 = Pool.free_count p in
  let eng = Engine.create (Machine.test_machine ~cores:4 ()) in
  ignore
    (Engine.spawn eng ~name:"crasher" (fun () ->
         let _v : int ref = Pool.acquire p in
         Engine.compute 100;
         failwith "boom"));
  (try ignore (Engine.run eng) with _ -> ());
  Engine.shutdown eng;
  (* The object died with the task: the pool holds no reference to objects
     in flight, so it neither leaks nor resurrects it. *)
  check_int "exactly the acquired object left the pool" (free0 - 1) (Pool.free_count p);
  check_bool "pool still serves after the failure" true (!(Pool.acquire p) > 0)

(* ---- batched drain under reconfiguration ---- *)

(* produce | transform (drain_stage, batched claims) | consume
   (drain_stage): the value list at the tail is the exactly-once
   witness. *)
let make_batched_pipeline ?(work = 2_000) eng n =
  let q1 = Chan.create ~capacity:8 eng "bq1" and q2 = Chan.create ~capacity:8 eng "bq2" in
  let produced = ref 0 and consumed = ref [] in
  let produce =
    Pipeline.source ~name:"produce"
      ~forward:(Pipeline.forward_to q1)
      (fun _ctx ->
        if !produced >= n then Task_status.Complete
        else begin
          Engine.compute (work / 4);
          Pipeline.send q1 !produced;
          incr produced;
          Task_status.Iterating
        end)
  in
  let transform =
    Pipeline.drain_stage ~name:"transform" ~input:q1 ~load:(Pipeline.load q1)
      ~next:q2
      ~forward:(Pipeline.forward_to q2)
      (fun ctx _v ->
        ctx.Task.hook_begin ();
        Engine.compute work;
        ctx.Task.hook_end ();
        Task_status.Iterating)
  in
  let consume =
    Pipeline.drain_stage ~ttype:Task.Seq ~name:"consume" ~input:q2
      ~forward:(fun _ -> ())
      (fun _ctx v ->
        consumed := v :: !consumed;
        Task_status.Iterating)
  in
  let pd =
    Task.descriptor ~name:"batched"
      [ produce.Pipeline.task; transform.Pipeline.task; consume.Pipeline.task ]
  in
  let on_reset =
    Pipeline.make_reset ~stages:[ produce; transform; consume ] ~channels:[ q1; q2 ]
  in
  (pd, on_reset, consumed)

let config dop = Config.make [ Config.seq_task; Config.task dop; Config.seq_task ]

let check_exactly_once ~n consumed =
  check_int "all consumed" n (List.length consumed);
  Alcotest.(check (list int))
    "each item exactly once" (List.init n Fun.id)
    (List.sort compare consumed)

(* Reconfigure every 20 us across DoPs 1-6 while batches are in flight: a
   claim interrupted by the pause barrier must give its unprocessed tail
   back to the input, so nothing is lost or duplicated across the DoP
   change. *)
let test_batched_drain_reconfigure_sim () =
  let machine =
    { (Machine.test_machine ~cores:8 ()) with Machine.ctx_switch = 0; chan_op = 5 }
  in
  let eng = Engine.create machine in
  let n = 400 in
  let pd, on_reset, consumed = make_batched_pipeline eng n in
  let _ =
    Engine.spawn eng ~name:"driver" (fun () ->
        let r = Executor.launch ~name:"b" eng [ pd ] ~on_reset (config 1) in
        let dop = ref 1 in
        while not (Region.is_done r) do
          Engine.sleep 20_000;
          dop := (!dop mod 6) + 1;
          Executor.reconfigure r (config !dop)
        done)
  in
  ignore (Engine.run eng);
  check_exactly_once ~n !consumed

(* The same protocol on the native backend: real domains draining real
   batches through a pause barrier. *)
let test_batched_drain_reconfigure_native () =
  let eng = Engine.create_native ~pool:3 () in
  let n = 120 in
  let pd, on_reset, consumed = make_batched_pipeline ~work:200_000 eng n in
  let region = Executor.launch ~budget:3 ~name:"b" eng [ pd ] ~on_reset (config 1) in
  ignore
    (Engine.spawn eng ~name:"driver" (fun () ->
         let dop = ref 1 in
         for _ = 1 to 4 do
           Engine.sleep 3_000_000;
           if not (Region.is_done region) then begin
             dop := (!dop mod 3) + 1;
             Executor.reconfigure region (config !dop)
           end
         done));
  ignore (Engine.run ~until:60_000_000_000 eng);
  Engine.shutdown eng;
  check_bool "region finished" true (Region.is_done region);
  check_exactly_once ~n !consumed

let suite =
  [
    QCheck_alcotest.to_alcotest prop_pool_model;
    Alcotest.test_case "pool: minor words count from the session's first sample" `Quick
      test_session_minor_words;
    Alcotest.test_case "pool: cross-stripe steal" `Quick test_pool_cross_stripe_steal;
    Alcotest.test_case "pool: no leak on task failure" `Quick test_pool_no_leak_on_task_failure;
    Alcotest.test_case "batched drain: reconfigure hammer (sim)" `Quick
      test_batched_drain_reconfigure_sim;
    Alcotest.test_case "batched drain: reconfigure hammer (native)" `Slow
      test_batched_drain_reconfigure_native;
  ]
