(* Tests for the discrete-event multicore simulator: clock behaviour,
   scheduling and preemption, channels, locks, power accounting, thread
   retention and determinism. *)

open Parcae_sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let machine ?(cores = 4) () = Machine.test_machine ~cores ()

(* Zero-cost machine for tests that reason about exact virtual times. *)
let exact_machine ?(cores = 4) () =
  {
    (machine ~cores ()) with
    Machine.ctx_switch = 0;
    chan_op = 0;
    lock_op = 0;
    time_slice = 1_000_000_000;
  }

let test_single_compute () =
  let eng = Engine.create (exact_machine ()) in
  let finished_at = ref (-1) in
  let _ =
    Engine.spawn eng ~name:"worker" (fun () ->
        Engine.compute 1000;
        finished_at := Engine.now ())
  in
  ignore (Engine.run eng);
  check_int "compute advances clock" 1000 !finished_at

let test_parallel_computes () =
  (* Two threads, two cores: both finish at t=1000. *)
  let eng = Engine.create (exact_machine ~cores:2 ()) in
  let t1 = ref 0 and t2 = ref 0 in
  let _ = Engine.spawn eng ~name:"a" (fun () -> Engine.compute 1000; t1 := Engine.now ()) in
  let _ = Engine.spawn eng ~name:"b" (fun () -> Engine.compute 1000; t2 := Engine.now ()) in
  ignore (Engine.run eng);
  check_int "a" 1000 !t1;
  check_int "b" 1000 !t2

let test_oversubscription_serializes () =
  (* Two threads, one core: total work is serialized. *)
  let eng = Engine.create (exact_machine ~cores:1 ()) in
  let done_times = ref [] in
  for i = 1 to 2 do
    ignore
      (Engine.spawn eng
         ~name:(Printf.sprintf "w%d" i)
         (fun () ->
           Engine.compute 1000;
           done_times := Engine.now () :: !done_times))
  done;
  ignore (Engine.run eng);
  let latest = List.fold_left max 0 !done_times in
  check_int "serialized" 2000 latest

let test_preemption_interleaves () =
  (* One core, tiny time slice: the short thread must not wait for the whole
     long burst, proving preemption works. *)
  let m = { (exact_machine ~cores:1 ()) with Machine.time_slice = 100 } in
  let eng = Engine.create m in
  let short_done = ref 0 in
  let _ = Engine.spawn eng ~name:"long" (fun () -> Engine.compute 100_000) in
  let _ = Engine.spawn eng ~name:"short" (fun () -> Engine.compute 100; short_done := Engine.now ()) in
  ignore (Engine.run eng);
  check_bool "short finished well before long" true (!short_done < 10_000);
  check_bool "short waited at least one slice" true (!short_done >= 100)

let test_sleep () =
  let eng = Engine.create (exact_machine ()) in
  let woke = ref 0 in
  let _ =
    Engine.spawn eng ~name:"sleeper" (fun () ->
        Engine.sleep 5000;
        woke := Engine.now ())
  in
  ignore (Engine.run eng);
  check_int "sleep duration" 5000 !woke

let test_spawn_from_thread_and_join () =
  let eng = Engine.create (exact_machine ()) in
  let result = ref 0 in
  let _ =
    Engine.spawn eng ~name:"parent" (fun () ->
        let child =
          Engine.spawn_thread ~name:"child" (fun () ->
              Engine.compute 700;
              result := 42)
        in
        Engine.join child;
        check_int "child ran before join returned" 42 !result;
        result := !result + 1)
  in
  ignore (Engine.run eng);
  check_int "parent observed child" 43 !result

(* Finished threads must not stay reachable from their engine: a serving
   run spawns several threads per request, so per-thread retention grows
   the heap with the request count. *)
let test_spawn_join_retains_nothing () =
  let retained n =
    let eng = Engine.create (exact_machine ()) in
    let _ =
      Engine.spawn eng ~name:"parent" (fun () ->
          for _ = 1 to n do
            Engine.join (Engine.spawn_thread ~name:"child" (fun () -> Engine.compute 10))
          done)
    in
    ignore (Engine.run eng);
    Gc.full_major ();
    Obj.reachable_words (Obj.repr eng)
  in
  let small = retained 1_000 in
  let large = retained 20_000 in
  check_bool
    (Printf.sprintf "retained words independent of spawn count (%d vs %d)" small large)
    true
    (abs (large - small) < 1_000)

(* The same holds for threads whose bursts span several quanta and that
   are preempted: two children compete for one core each iteration. *)
let test_preempted_threads_retain_nothing () =
  let retained n =
    let eng = Engine.create (machine ~cores:1 ()) in
    let _ =
      Engine.spawn eng ~name:"parent" (fun () ->
          for _ = 1 to n do
            let a = Engine.spawn_thread ~name:"a" (fun () -> Engine.compute 25_000) in
            let b = Engine.spawn_thread ~name:"b" (fun () -> Engine.compute 25_000) in
            Engine.join a;
            Engine.join b
          done)
    in
    ignore (Engine.run eng);
    Gc.full_major ();
    Obj.reachable_words (Obj.repr eng)
  in
  let small = retained 500 in
  let large = retained 10_000 in
  check_bool
    (Printf.sprintf "retained words independent of spawn count (%d vs %d)" small large)
    true
    (abs (large - small) < 1_000)

(* An event names its thread by the slot the thread holds while it
   lives, and a slot is reused by the next spawn once its thread
   finishes.  On four cores, eight long-lived threads compute (past a
   quantum, so they are preempted and coast), sleep and block for the
   whole run, holding their slots, while a driver spawns waves of short
   threads that compute, yield, compute, block on a condition a sibling
   signals, compute and finish.  Each thread logs what it sees after
   every step: its own tid through [self] and its CPU time, which its
   program fixes exactly.  A turn given to the wrong thread, a wake-up
   lost or taken for a burst end, or a slot kept after its thread
   finished shows in a log, a join, the live count or the engine's
   size.  The run is bounded, so a lost wake-up ends it with threads
   live instead of hanging. *)
let test_slot_reuse () =
  let eng = Engine.create (machine ~cores:4 ()) in
  let waves = [| 1500; 3000; 700; 2500; 64; 2000 |] in
  let rounds = Array.length waves in
  let checked = ref [] and peak = ref 0 and joined = ref 0 and driver_done = ref false in
  let logged what log =
    let me = Engine.self () in
    log := (what, me.Engine.tid, me.Engine.busy_ns) :: !log
  in
  (* [program log] runs the thread's steps; [expected] is its log, as
     (step, CPU time so far). *)
  let spawn_checked spawn name expected program =
    let log = ref [] in
    let th = spawn ~name (fun () -> program log) in
    checked := (th, expected, log) :: !checked;
    th
  in
  let wave_done = Array.make rounds false and wave_cond = Engine.cond_create eng in
  let long =
    List.init 8 (fun i ->
        let burst = 3_000 + (i * 4_100) and nap = 500 + (i * 130) in
        let step what r = Printf.sprintf "%s %d" what r in
        let expected =
          List.concat_map
            (fun r ->
              let busy = (r + 1) * burst in
              [ (step "compute" r, busy); (step "sleep" r, busy); (step "wave" r, busy) ])
            (List.init rounds Fun.id)
        in
        spawn_checked (Engine.spawn eng) (Printf.sprintf "long%d" i) expected (fun log ->
            for r = 0 to rounds - 1 do
              Engine.compute burst;
              logged (step "compute" r) log;
              let t0 = Engine.now () in
              Engine.sleep nap;
              logged (step "sleep" r) log;
              if Engine.now () - t0 < nap then logged "woke early" log;
              while not wave_done.(r) do
                Engine.wait_on wave_cond
              done;
              logged (step "wave" r) log
            done))
  in
  (* Thread [j] of a wave; even [j] waits for [j + 1]'s signal. *)
  let short flag cond j =
    let a = 200 + (j mod 7 * 150) and b = 300 + (j mod 5 * 4_000) and c = 100 + (j mod 3 * 50) in
    let expected = [ ("a", a); ("yield", a); ("b", a + b); ("met", a + b); ("c", a + b + c) ] in
    let program log =
      Engine.compute a;
      logged "a" log;
      Engine.yield ();
      logged "yield" log;
      Engine.compute b;
      logged "b" log;
      if j mod 2 = 0 then
        while not !flag do
          Engine.wait_on cond
        done
      else begin
        flag := true;
        Engine.signal cond
      end;
      logged "met" log;
      Engine.compute c;
      logged "c" log
    in
    spawn_checked Engine.spawn_thread "short" expected program
  in
  let _ =
    Engine.spawn eng ~name:"driver" (fun () ->
        Array.iteri
          (fun w size ->
            let pairs = Array.init (size / 2) (fun _ -> (ref false, Engine.cond_create eng)) in
            let threads =
              List.init size (fun j ->
                  let flag, cond = pairs.(j / 2) in
                  short flag cond j)
            in
            peak := max !peak (Engine.live_threads eng);
            List.iter
              (fun th ->
                Engine.join th;
                incr joined)
              threads;
            wave_done.(w) <- true;
            Engine.broadcast wave_cond)
          waves;
        List.iter Engine.join long;
        driver_done := true)
  in
  ignore (Engine.run ~until:1_000_000_000 eng);
  check_bool "the driver's joins all returned" true !driver_done;
  check_int "short threads joined" (Array.fold_left ( + ) 0 waves) !joined;
  check_int "no thread live" 0 (Engine.live_threads eng);
  check_int "peak live threads" (8 + 1 + 3_000) !peak;
  let wrong =
    List.filter
      (fun (th, expected, log) ->
        List.rev !log <> List.map (fun (what, busy) -> (what, th.Engine.tid, busy)) expected)
      !checked
  in
  check_int "threads checked" (8 + Array.fold_left ( + ) 0 waves) (List.length !checked);
  (match wrong with
  | [] -> ()
  | (th, _, log) :: _ ->
      Alcotest.failf "%d threads' logs differ from their programs; %s (tid %d) logged %s"
        (List.length wrong) th.Engine.tname th.Engine.tid
        (String.concat "; "
           (List.rev_map (fun (what, tid, busy) -> Printf.sprintf "%s tid %d busy %d" what tid busy)
              !log)));
  Gc.full_major ();
  let words = Obj.reachable_words (Obj.repr eng) in
  if words > 16 * !peak then
    Alcotest.failf "the engine reaches %d words after the waves, over 16 per peak live thread (%d)"
      words !peak

(* Quantum boundaries of a run nobody competes with.  On one core of the
   test machine (10 us quantum, 100 ns switch), [long] is dispatched at
   t=0 with a 35 us burst: its boundaries fall at 10_100, 20_100 and
   30_100, and it ends at 35_100 if left alone.  [short] sleeps until
   [slept_at], then until [arrive], then wants 1 us of CPU; it gets the
   core at the first boundary whose event sorts after its wake. *)
let boundary_race ~slept_at ~arrive =
  let eng = Engine.create (machine ~cores:1 ()) in
  let long_done = ref 0 and short_done = ref 0 and busy = ref [] in
  let finish r () =
    r := Engine.now ();
    busy := (Engine.self ()).Engine.busy_ns :: !busy
  in
  let _ =
    Engine.spawn eng ~name:"long" (fun () ->
        Engine.compute 35_000;
        finish long_done ())
  in
  let _ =
    Engine.spawn eng ~name:"short" (fun () ->
        Engine.sleep_until slept_at;
        Engine.sleep_until arrive;
        Engine.compute 1_000;
        finish short_done ())
  in
  ignore (Engine.run eng);
  (* Splitting the run must not lose or double a nanosecond of CPU. *)
  Alcotest.(check (list int)) "busy_ns exact" [ 1_000; 35_000 ] (List.sort compare !busy);
  (!short_done, !long_done)

let test_competitor_arrival () =
  let check what ~slept_at ~arrive short =
    (* [long] loses the core once for [short] and pays a second switch. *)
    Alcotest.(check (pair int int)) what (short, 36_300) (boundary_race ~slept_at ~arrive)
  in
  check "during the context switch" ~slept_at:0 ~arrive:50 11_200;
  check "mid-quantum" ~slept_at:0 ~arrive:15_000 21_200;
  (* At the boundary instant, the wake pushed before the boundary event
     preempts there; one pushed after it waits a quantum. *)
  check "at a boundary, pushed earlier" ~slept_at:0 ~arrive:20_100 21_200;
  check "at a boundary, pushed later" ~slept_at:15_000 ~arrive:20_100 31_200;
  (* Pushed at the same instant as the boundary event (10_100): the
     younger run, the wake, sorts first.  This is the one tie the event
     key orders differently from insertion order, which put the
     boundary first and made [short] wait until 31_200. *)
  check "at a boundary, pushed together" ~slept_at:10_100 ~arrive:20_100 21_200

let test_online_shrinks_while_coasting () =
  (* Two cores, one 35 us run from t=0; every core goes offline at
     [off] and comes back at 50_000.  The run leaves its core at the
     first boundary after [off] and resumes with the need it had there. *)
  let run ~inside ~off =
    let eng = Engine.create (machine ~cores:2 ()) in
    let done_at = ref 0 and busy = ref 0 in
    let _ =
      Engine.spawn eng ~name:"long" (fun () ->
          Engine.compute 35_000;
          done_at := Engine.now ();
          busy := (Engine.self ()).Engine.busy_ns)
    in
    (* Keeps an event pending until 50_000, so [run ~until:50_000]
       reaches that instant. *)
    let _ = Engine.spawn eng ~name:"clock" (fun () -> Engine.sleep_until 50_000) in
    if inside then begin
      let _ =
        Engine.spawn eng ~name:"ticker" (fun () ->
            Engine.sleep_until off;
            Engine.set_online_cores eng 0;
            Engine.sleep_until 50_000;
            Engine.set_online_cores eng 2)
      in
      ignore (Engine.run eng)
    end
    else begin
      (* From outside the engine, between [run] calls: a boundary at the
         cut instant has already been processed. *)
      ignore (Engine.run ~until:off eng);
      Engine.set_online_cores eng 0;
      ignore (Engine.run ~until:50_000 eng);
      Engine.set_online_cores eng 2;
      ignore (Engine.run eng)
    end;
    check_int "busy_ns exact" 35_000 !busy;
    !done_at
  in
  check_int "from a thread, mid-quantum" 65_100 (run ~inside:true ~off:15_000);
  check_int "from outside, mid-quantum" 65_100 (run ~inside:false ~off:15_000);
  check_int "from outside, at a boundary" 55_100 (run ~inside:false ~off:20_100)

(* Inline burst ends.  A thread's first burst comes from a wake turn,
   off-core, so it suspends; the bursts after it start on the core the
   thread holds and may finish in place. *)

(* Back-to-back bursts on an idle machine: all but the first finish in
   place, and [Engine.run] counts them as the events they replace.  The
   ambient [compute] is [compute_in] on the running engine. *)
let test_inline_counts () =
  let run compute =
    let eng = Engine.create (exact_machine ~cores:1 ()) in
    let flushed = ref false in
    let _ =
      Engine.spawn eng ~name:"w" (fun () ->
          for _ = 1 to 10 do
            compute eng 100
          done;
          Engine.charge eng 300;
          flushed := Engine.flush_charges eng)
    in
    let events = Engine.run eng in
    check_bool "flush reports the pending cost" true !flushed;
    (events, Engine.time eng, Engine.inlined_bursts eng)
  in
  (* A wake, the first burst's end, nine more burst ends and the flush. *)
  Alcotest.(check (triple int int int)) "compute_in" (12, 1_300, 10) (run Engine.compute_in);
  Alcotest.(check (triple int int int))
    "ambient compute" (12, 1_300, 10)
    (run (fun _ n -> Engine.compute n))

(* A burst ending exactly at [run ~until] is processed in that call; one
   ending 1 ns later is left for the next call. *)
let test_inline_until () =
  let run_cut cut =
    let eng = Engine.create (exact_machine ~cores:1 ()) in
    let log = ref [] in
    let note what = log := (what, Engine.time eng) :: !log in
    let _ =
      Engine.spawn eng ~name:"w" (fun () ->
          Engine.compute_in eng 1_000;
          note "first";
          Engine.compute_in eng 500;
          note "second";
          Engine.compute_in eng 500;
          note "third")
    in
    let events = Engine.run ~until:cut eng in
    let cut_state = (List.length !log, Engine.time eng, Engine.inlined_bursts eng, events) in
    ignore (Engine.run eng);
    (cut_state, List.rev !log)
  in
  let at_end, log = run_cut 1_500 and before_end, log' = run_cut 1_499 in
  let state = Alcotest.(check (pair (pair int int) (pair int int))) in
  let flat (n, t, i, e) = ((n, t), (i, e)) in
  state "ending at until: processed in the call" ((2, 1_500), (1, 3)) (flat at_end);
  state "ending 1 ns after: left for the next call" ((1, 1_499), (0, 2)) (flat before_end);
  Alcotest.(check (list (pair string int)))
    "same log either way"
    [ ("first", 1_000); ("second", 1_500); ("third", 2_000) ]
    log;
  Alcotest.(check (list (pair string int))) "same log either way (cut early)" log log'

(* A competitor event at the instant a burst ends: the full event key
   decides which goes first.  On two cores of the test machine, [burst]
   is dispatched at t=0 (100 ns switch) and runs two bursts, the second
   ending at [t].  A wake pushed at t=0 sorts before that end (earlier
   push time); a run coasting since t=0 sorts after it, because a
   coasting end is pushed at its last quantum boundary (20_100), after
   the burst started (15_100). *)
let test_inline_tie () =
  (* [burst]'s two bursts, and the instant the second one ends. *)
  let timing = function `Wake -> (1_000, 1_000, 2_100) | `Coasting -> (15_000, 10_000, 25_100) in
  let order competitor =
    let eng = Engine.create (machine ~cores:2 ()) in
    let log = ref [] in
    let first, second, t = timing competitor in
    let _ =
      Engine.spawn eng ~name:"burst" (fun () ->
          Engine.compute_in eng first;
          Engine.compute_in eng second;
          log := ("burst", Engine.now ()) :: !log)
    in
    let _ =
      Engine.spawn eng ~name:"competitor" (fun () ->
          (match competitor with
          | `Wake -> Engine.sleep_until t
          | `Coasting -> Engine.compute (t - 100));
          log := ("competitor", Engine.now ()) :: !log)
    in
    ignore (Engine.run eng);
    (List.rev !log, Engine.inlined_bursts eng)
  in
  let check what competitor want_first inlined =
    let _, _, t = timing competitor in
    let log, finished_in_place = order competitor in
    Alcotest.(check (list (pair string int))) what (List.map (fun who -> (who, t)) want_first) log;
    check_int (what ^ ": bursts finished in place") inlined finished_in_place
  in
  check "a wake wins the tie" `Wake [ "competitor"; "burst" ] 0;
  check "a coasting end loses the tie" `Coasting [ "burst"; "competitor" ] 1

let test_cond_signal_wakes_fifo () =
  let eng = Engine.create (exact_machine ()) in
  let order = ref [] in
  let c = Engine.cond_create eng in
  let waiter name =
    Engine.spawn eng ~name (fun () ->
        Engine.wait_on c;
        order := name :: !order)
  in
  let _ = waiter "first" in
  let _ = waiter "second" in
  let _ =
    Engine.spawn eng ~name:"signaller" (fun () ->
        Engine.compute 10;
        Engine.signal c;
        Engine.signal c)
  in
  ignore (Engine.run eng);
  Alcotest.(check (list string)) "FIFO wakeup" [ "first"; "second" ] (List.rev !order)

(* Channel scripts return what they observed — values and virtual times —
   so each runs twice, bare and inside all seven observer scopes, and the
   two runs must agree: observers never change what a program computes,
   nor when. *)
let test_chan_fifo () =
  let eng = Engine.create (exact_machine ()) in
  let ch = Chan.create eng "c" in
  let received = ref [] in
  let _ =
    Engine.spawn eng ~name:"producer" (fun () ->
        for i = 1 to 5 do
          Chan.send ch i
        done)
  in
  let _ =
    Engine.spawn eng ~name:"consumer" (fun () ->
        for _ = 1 to 5 do
          received := Chan.recv ch :: !received
        done)
  in
  ignore (Engine.run eng);
  Alcotest.(check (list int)) "order preserved" [ 1; 2; 3; 4; 5 ] (List.rev !received);
  Engine.time eng :: !received

let test_chan_blocking_recv () =
  let eng = Engine.create (exact_machine ()) in
  let ch = Chan.create eng "c" in
  let got = ref 0 and got_at = ref 0 in
  let _ =
    Engine.spawn eng ~name:"consumer" (fun () ->
        got := Chan.recv ch;
        got_at := Engine.now ())
  in
  let _ =
    Engine.spawn eng ~name:"producer" (fun () ->
        Engine.sleep 2000;
        Chan.send ch 99)
  in
  ignore (Engine.run eng);
  check_int "value" 99 !got;
  check_bool "consumer blocked until send" true (!got_at >= 2000);
  [ !got; !got_at ]

let test_chan_capacity_blocks_sender () =
  let eng = Engine.create (exact_machine ()) in
  let ch = Chan.create ~capacity:2 eng "c" in
  let sent_all_at = ref 0 and received = ref [] in
  let _ =
    Engine.spawn eng ~name:"producer" (fun () ->
        for i = 1 to 3 do
          Chan.send ch i
        done;
        sent_all_at := Engine.now ())
  in
  let _ =
    Engine.spawn eng ~name:"consumer" (fun () ->
        Engine.sleep 5000;
        for _ = 1 to 3 do
          received := Chan.recv ch :: !received
        done)
  in
  ignore (Engine.run eng);
  check_bool "third send blocked on capacity" true (!sent_all_at >= 5000);
  !sent_all_at :: !received

let test_chan_drain () =
  let eng = Engine.create (exact_machine ()) in
  let ch = Chan.create eng "c" in
  let drained = ref (-1) in
  let _ =
    Engine.spawn eng ~name:"t" (fun () ->
        Chan.send ch 1;
        Chan.send ch 2;
        drained := Chan.drain ch;
        check_int "empty after drain" 0 (Chan.length ch))
  in
  ignore (Engine.run eng);
  check_int "drained two" 2 !drained;
  [ !drained; Engine.time eng ]

(* The blocking batch protocol on a bounded channel, with real operation
   costs so deferred charges are flushed before each wait: the producer's
   batches overflow the capacity and block part-way, the consumer takes
   at most two items per claim. *)
let test_chan_bounded_batches () =
  let eng = Engine.create (machine ~cores:2 ()) in
  let ch = Chan.create ~capacity:2 eng "c" in
  let values = ref [] and times = ref [] and producer_done = ref 0 in
  let _ =
    Engine.spawn eng ~name:"producer" (fun () ->
        Chan.send_batch ch [ 1; 2; 3; 4; 5 ];
        Chan.send_batch ch [ 6; 7 ];
        producer_done := Engine.now ())
  in
  let _ =
    Engine.spawn eng ~name:"consumer" (fun () ->
        while List.length !values < 7 do
          Engine.sleep 1000;
          let batch = Chan.recv_batch ~max:2 ch in
          check_bool "claims at most two" true (List.length batch <= 2);
          values := List.rev_append batch !values;
          times := Engine.now () :: !times
        done)
  in
  ignore (Engine.run eng);
  Alcotest.(check (list int)) "FIFO across blocked batches" [ 1; 2; 3; 4; 5; 6; 7 ] (List.rev !values);
  check_bool "producer blocked on capacity" true (!producer_done >= 3000);
  (!producer_done :: !values) @ !times

let chan_case name script =
  Alcotest.test_case name `Quick (fun () ->
      let bare = script () in
      let observed = Test_trace.with_all_observers script in
      Alcotest.(check (list int)) "same values and times under every observer" bare observed)

(* The lock is the platform's, over a simulator engine. *)
let test_lock_mutual_exclusion () =
  let module P = Parcae_platform.Engine in
  let module Lock = Parcae_platform.Lock in
  let eng = P.create (exact_machine ~cores:4 ()) in
  let l = Lock.create eng "l" in
  let counter = ref 0 in
  let max_inside = ref 0 and inside = ref 0 in
  for i = 1 to 4 do
    ignore
      (P.spawn eng
         ~name:(Printf.sprintf "w%d" i)
         (fun () ->
           for _ = 1 to 50 do
             Lock.with_lock l (fun () ->
                 incr inside;
                 max_inside := max !max_inside !inside;
                 P.compute 10;
                 incr counter;
                 decr inside)
           done))
  done;
  ignore (P.run eng);
  check_int "all increments" 200 !counter;
  check_int "never two inside" 1 !max_inside

let test_energy_accounting () =
  (* One core busy for 1 second of virtual time on the test machine:
     energy = (idle 10 W + 1 busy W) * 1 s = 11 J. *)
  let eng = Engine.create (exact_machine ~cores:1 ()) in
  let _ = Engine.spawn eng ~name:"w" (fun () -> Engine.compute 1_000_000_000) in
  ignore (Engine.run eng);
  let e = Engine.energy_joules eng in
  Alcotest.(check (float 0.01)) "energy" 11.0 e

let test_power_sensor_sampling () =
  let eng = Engine.create (exact_machine ~cores:2 ()) in
  let sensor = Power.create ~period_ns:1000 eng in
  let readings = ref [] in
  let _ =
    Engine.spawn eng ~name:"load" (fun () -> Engine.compute 10_000)
  in
  let _ =
    Engine.spawn eng ~name:"monitor" (fun () ->
        for _ = 1 to 5 do
          readings := Power.read sensor :: !readings;
          Engine.sleep 1000
        done)
  in
  ignore (Engine.run eng);
  check_int "five readings" 5 (List.length !readings);
  (* With one busy core the true draw is idle + 1*core = 11 W. *)
  check_bool "sensor sees busy power" true (List.exists (fun p -> p > 10.5) !readings)

let test_set_online_cores () =
  (* Start with 2 cores, cut to 1: the two 1000-ns bursts that follow must
     serialize. *)
  let eng = Engine.create (exact_machine ~cores:2 ()) in
  let finish = ref [] in
  let worker name =
    Engine.spawn eng ~name (fun () ->
        Engine.sleep 100;
        Engine.compute 1000;
        finish := Engine.now () :: !finish)
  in
  let _ = worker "a" in
  let _ = worker "b" in
  Engine.set_online_cores eng 1;
  ignore (Engine.run eng);
  let latest = List.fold_left max 0 !finish in
  check_int "serialized after core removal" 2100 latest

let test_determinism () =
  let run_once () =
    let eng = Engine.create (machine ~cores:3 ()) in
    let ch = Chan.create eng "c" in
    let log = Buffer.create 64 in
    for i = 1 to 3 do
      ignore
        (Engine.spawn eng
           ~name:(Printf.sprintf "p%d" i)
           (fun () ->
             for j = 1 to 10 do
               Engine.compute ((i * 37) + j);
               Chan.send ch ((i * 100) + j)
             done))
    done;
    let _ =
      Engine.spawn eng ~name:"consumer" (fun () ->
          for _ = 1 to 30 do
            Buffer.add_string log (string_of_int (Chan.recv ch));
            Buffer.add_char log ','
          done)
    in
    ignore (Engine.run eng);
    (Buffer.contents log, Engine.time eng)
  in
  let l1, t1 = run_once () in
  let l2, t2 = run_once () in
  Alcotest.(check string) "identical traces" l1 l2;
  check_int "identical end times" t1 t2

let test_thread_failure_surfaces () =
  let eng = Engine.create (exact_machine ()) in
  let _ = Engine.spawn eng ~name:"bad" (fun () -> failwith "boom") in
  Alcotest.check_raises "failure propagates"
    (Engine.Thread_failure ("bad", Failure "boom"))
    (fun () -> ignore (Engine.run eng))

(* A thread that fails after many turns fails inside the chain of
   handler-to-handler turns, not in a first turn: the run raises at the
   failure with the other threads still live and no thread current, and
   the next run finishes them. *)
let test_thread_failure_mid_chain () =
  let eng = Engine.create (machine ~cores:2 ()) in
  let _ =
    Engine.spawn eng ~name:"bad" (fun () ->
        for _ = 1 to 50 do
          Engine.compute 137;
          Engine.yield ()
        done;
        failwith "boom")
  in
  for i = 1 to 4 do
    ignore
      (Engine.spawn eng ~name:(Printf.sprintf "w%d" i) (fun () ->
           for _ = 1 to 1_000 do
             Engine.compute (100 + i);
             Engine.yield ()
           done))
  done;
  (match Engine.run eng with
  | _ -> Alcotest.fail "the failing thread's run returned"
  | exception Engine.Thread_failure (name, e) ->
      Alcotest.(check string) "failed thread" "bad" name;
      check_bool "its exception" true (e = Failure "boom"));
  check_int "failed at" 31_318 (Engine.time eng);
  check_int "workers still live" 4 (Engine.live_threads eng);
  check_bool "no thread current" true (Engine.self_opt () = None);
  check_bool "the engine has no current thread" true (Option.is_none (Engine.current eng));
  check_int "the next run's events" 7_504 (Engine.run eng);
  check_int "finished at" 411_278 (Engine.time eng);
  check_int "no thread live" 0 (Engine.live_threads eng)

(* Each handler arm continues the next thread in tail position, so a run
   needs the same stack for any number of events: 240 048 of them (9
   finished in place) fit in a 256 KB stack.  A call left in front of
   [step] on the chain leaves one frame per event and overflows here.
   The second run checks [retc]: 25 000 threads, all started before the
   first finishes, so each one's end continues the next thread's turn. *)
let test_constant_stack () =
  let stack_limit = (Gc.get ()).Gc.stack_limit in
  let set_limit words = Gc.set { (Gc.get ()) with Gc.stack_limit = words } in
  let run what threads bursts =
    let eng = Engine.create Machine.xeon_x7460 in
    for i = 0 to threads - 1 do
      ignore
        (Engine.spawn eng ~name:"w" (fun () ->
             for _ = 1 to bursts do
               Engine.compute (1000 + i)
             done))
    done;
    match Engine.run eng with
    | n -> (n, Engine.inlined_bursts eng)
    | exception Stack_overflow -> Alcotest.failf "%s overflowed a 256 KB stack" what
  in
  Fun.protect
    ~finally:(fun () -> set_limit stack_limit)
    (fun () ->
      set_limit 32_768;
      Alcotest.(check (pair int int))
        "bursts: events, finished in place" (240_048, 9) (run "a run of bursts" 48 5_000);
      Alcotest.(check (pair int int))
        "thread ends: events, finished in place" (50_000, 0)
        (run "a run of thread ends" 25_000 1))

(* A suspended burst allocates its continuation and nothing else: 2.0
   minor words per event on OCaml 5.1.  The bound leaves room for a word
   more on another release, and fails on a [Some] box (2 words) or a
   closure (3 or more) per event. *)
let test_suspension_allocation () =
  let eng = Engine.create Machine.xeon_x7460 in
  for i = 0 to 23 do
    ignore
      (Engine.spawn eng ~name:(Printf.sprintf "w%d" i) (fun () ->
           for _ = 1 to 10_000 do
             Engine.compute (1000 + i)
           done))
  done;
  let before = Gc.minor_words () in
  let events = Engine.run eng in
  let words = Gc.minor_words () -. before in
  check_int "events" 240_024 events;
  check_bool "bursts suspend" true (Engine.inlined_bursts eng * 100 < events);
  let per_event = words /. float_of_int events in
  if per_event > 3.5 then Alcotest.failf "%.2f minor words per event, over 3.5" per_event

let test_run_until () =
  let eng = Engine.create (exact_machine ()) in
  let steps = ref 0 in
  let _ =
    Engine.spawn eng ~name:"ticker" (fun () ->
        for _ = 1 to 100 do
          Engine.sleep 100;
          incr steps
        done)
  in
  ignore (Engine.run ~until:550 eng);
  check_int "stopped mid-way" 5 !steps;
  check_int "clock at limit" 550 (Engine.time eng);
  ignore (Engine.run eng);
  check_int "resumed to completion" 100 !steps

(* The ambient operations are direct calls: inside a simulated thread
   they allocate nothing but their answer, where an effect would allocate
   its continuation; outside every engine they raise [Invalid_argument],
   and the platform's context queries answer [None]. *)
let test_ambient_direct () =
  let module P = Parcae_platform.Engine in
  let calls = 10_000 in
  let minor_words f =
    let before = Gc.minor_words () in
    for _ = 1 to calls do
      f ()
    done;
    int_of_float (Gc.minor_words () -. before)
  in
  (* Each call and the words it may allocate. *)
  let ops =
    [
      ("now", 0, fun () -> ignore (Engine.now () : int));
      ("self", 0, fun () -> ignore (Engine.self () : Engine.thread));
      ("self_opt", 0, fun () -> ignore (Engine.self_opt () : Engine.thread option));
      ("current_lane", 0, fun () -> ignore (P.current_lane () : int option));
      ("current_task_id", 0, fun () -> ignore (P.current_task_id () : int));
    ]
  in
  let eng = Engine.create (exact_machine ()) in
  let measured = ref [] in
  let _ =
    Engine.spawn eng ~name:"t" (fun () ->
        (* After a burst the thread holds a core, so its lane is [Some]. *)
        Engine.compute 1_000;
        check_bool "lane on a core" true (P.current_lane () <> None);
        check_int "task id" (Engine.self ()).Engine.tid (P.current_task_id ());
        measured := List.map (fun (what, words, f) -> (what, words, minor_words f)) ops)
  in
  ignore (Engine.run eng);
  List.iter
    (fun (what, words, got) -> check_int ("words inside a thread: " ^ what) (words * calls) got)
    !measured;
  (* On a native worker the lane is the worker's own prebuilt [Some]. *)
  let module N = Parcae_native.Engine in
  let neng = N.create ~pool:1 () in
  let native_words = ref (-1) in
  ignore
    (N.spawn neng ~name:"lane" (fun () ->
         check_bool "native: lane on a worker" true (P.current_lane () <> None);
         native_words := minor_words (fun () -> ignore (P.current_lane () : int option))));
  ignore (N.run neng);
  N.shutdown neng;
  check_int "words inside a native task: current_lane" 0 !native_words;
  check_bool "outside: no lane" true (P.current_lane () = None);
  check_int "outside: no task id" (-1) (P.current_task_id ());
  check_int "outside: current_lane allocates nothing" 0
    (minor_words (fun () -> ignore (P.current_lane ())));
  check_int "outside: current_task_id allocates nothing" 0
    (minor_words (fun () -> ignore (P.current_task_id ())));
  let raises what f =
    match f () with
    | () -> Alcotest.failf "outside: %s returned" what
    | exception Invalid_argument _ -> ()
  in
  raises "now" (fun () -> ignore (Engine.now ()));
  raises "self" (fun () -> ignore (Engine.self ()));
  raises "compute" (fun () -> Engine.compute 1);
  raises "compute_in" (fun () -> Engine.compute_in eng 1);
  raises "charge" (fun () -> Engine.charge eng 1);
  raises "yield" Engine.yield;
  raises "sleep" (fun () -> Engine.sleep 1);
  raises "spawn_thread" (fun () -> ignore (Engine.spawn_thread ~name:"x" ignore));
  raises "wait_on" (fun () -> Engine.wait_on (Engine.cond_create eng))

(* [run] records its engine in the domain's slot for its duration only:
   an engine run from a thread of another shadows it until [run] returns
   or raises, and a finished run leaves nothing reachable from the slot. *)
let test_slot_follows_run () =
  let inner_seen = ref [] and outer_seen = ref [] in
  let note r = r := (Engine.now (), (Engine.self ()).Engine.tname) :: !r in
  let dropped = Weak.create 1 in
  let outer = Engine.create (exact_machine ()) in
  let _ =
    Engine.spawn outer ~name:"a" (fun () ->
        Engine.compute 1_000;
        note outer_seen;
        let inner = Engine.create (exact_machine ()) in
        let _ =
          Engine.spawn inner ~name:"b" (fun () ->
              Engine.compute 50;
              note inner_seen)
        in
        ignore (Engine.run inner);
        note outer_seen;
        let failing = Engine.create (exact_machine ()) in
        Weak.set dropped 0 (Some failing);
        let _ =
          Engine.spawn failing ~name:"bad" (fun () ->
              note inner_seen;
              failwith "boom")
        in
        (match Engine.run failing with
        | _ -> Alcotest.fail "the failing thread's run returned"
        | exception Engine.Thread_failure ("bad", Failure _) -> ());
        note outer_seen)
  in
  ignore (Engine.run outer);
  Alcotest.(check (list (pair int string)))
    "inner threads read the inner engine" [ (50, "b"); (0, "bad") ] (List.rev !inner_seen);
  Alcotest.(check (list (pair int string)))
    "the outer thread reads its own engine after each inner run"
    [ (1_000, "a"); (1_000, "a"); (1_000, "a") ]
    (List.rev !outer_seen);
  check_bool "no thread after the outer run" true (Engine.self_opt () = None);
  Gc.full_major ();
  check_bool "a dropped engine is not retained" false (Weak.check dropped 0)

let suite =
  [
    Alcotest.test_case "engine: single compute" `Quick test_single_compute;
    Alcotest.test_case "engine: parallel computes" `Quick test_parallel_computes;
    Alcotest.test_case "engine: oversubscription serializes" `Quick test_oversubscription_serializes;
    Alcotest.test_case "engine: preemption" `Quick test_preemption_interleaves;
    Alcotest.test_case "engine: sleep" `Quick test_sleep;
    Alcotest.test_case "engine: spawn/join" `Quick test_spawn_from_thread_and_join;
    Alcotest.test_case "engine: spawn/join retains nothing" `Quick test_spawn_join_retains_nothing;
    Alcotest.test_case "engine: slot reuse never crosses turns" `Quick test_slot_reuse;
    Alcotest.test_case "engine: preempted threads retain nothing" `Quick
      test_preempted_threads_retain_nothing;
    Alcotest.test_case "engine: competitor arrival vs quantum boundary" `Quick
      test_competitor_arrival;
    Alcotest.test_case "engine: cores go offline during a run" `Quick
      test_online_shrinks_while_coasting;
    Alcotest.test_case "engine: inline burst ends are counted" `Quick test_inline_counts;
    Alcotest.test_case "engine: inline burst ends respect run ~until" `Quick test_inline_until;
    Alcotest.test_case "engine: inline burst ends order time ties by key" `Quick test_inline_tie;
    Alcotest.test_case "engine: cond FIFO" `Quick test_cond_signal_wakes_fifo;
    chan_case "chan: fifo" test_chan_fifo;
    chan_case "chan: blocking recv" test_chan_blocking_recv;
    chan_case "chan: capacity" test_chan_capacity_blocks_sender;
    chan_case "chan: drain" test_chan_drain;
    chan_case "chan: bounded batches" test_chan_bounded_batches;
    Alcotest.test_case "lock: mutual exclusion" `Quick test_lock_mutual_exclusion;
    Alcotest.test_case "power: energy accounting" `Quick test_energy_accounting;
    Alcotest.test_case "power: sensor sampling" `Quick test_power_sensor_sampling;
    Alcotest.test_case "engine: set_online_cores" `Quick test_set_online_cores;
    Alcotest.test_case "engine: determinism" `Quick test_determinism;
    Alcotest.test_case "engine: thread failure" `Quick test_thread_failure_surfaces;
    Alcotest.test_case "engine: thread failure mid-chain" `Quick test_thread_failure_mid_chain;
    Alcotest.test_case "engine: the event loop runs in constant stack" `Quick test_constant_stack;
    Alcotest.test_case "engine: a suspended burst allocates only its continuation" `Quick
      test_suspension_allocation;
    Alcotest.test_case "engine: run until" `Quick test_run_until;
    Alcotest.test_case "engine: ambient operations are direct calls" `Quick test_ambient_direct;
    Alcotest.test_case "engine: the running engine's slot follows run" `Quick
      test_slot_follows_run;
  ]
