(* Tests for the event sink (lib/obs/sink.ml): its int rows in chunks
   against a list model, growth by chunks with no copy, the release of
   overwritten boxed kinds, the round trip of every constructor, and the
   per-domain rings under concurrent writers and readers. *)

module Obs = Parcae_obs
module Event = Obs.Event
module Sink = Obs.Sink
module Trace = Obs.Trace

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let hook_task e = match e.Event.kind with Event.Hook_sample h -> h.task | _ -> -1

let test_ring_order_and_overflow () =
  let s = Sink.create ~capacity:4 () in
  for i = 1 to 10 do
    Sink.record s ~t:(i * 10) (Event.Hook_sample { task = i; dt_ns = i })
  done;
  check_int "length capped" 4 (Sink.length s);
  check_int "dropped counts overwrites" 6 (Sink.dropped s);
  check_bool "retains newest, oldest first" true
    (List.map hook_task (Sink.events s) = [ 7; 8; 9; 10 ]);
  check_bool "timestamps preserved" true
    ((Sink.to_array s).(0).Event.t = 70);
  Sink.clear s;
  check_int "clear empties" 0 (Sink.length s)

let test_clear_releases_storage () =
  (* Regression: [clear] used to reset the indices but keep the ring array
     alive, so a cleared 200k-event sink still pinned its full allocation. *)
  let s = Sink.create ~capacity:8 () in
  check_int "no allocation before first event" 0 (Sink.allocated_slots s);
  for i = 1 to 12 do
    Sink.record s ~t:i (Event.Hook_sample { task = i; dt_ns = i })
  done;
  check_int "ring allocated at capacity" 8 (Sink.allocated_slots s);
  Sink.clear s;
  check_int "clear empties" 0 (Sink.length s);
  check_int "clear resets overwrite count" 0 (Sink.dropped s);
  check_int "clear releases the backing array" 0 (Sink.allocated_slots s);
  (* Recording after clear re-allocates lazily, exactly as on first use. *)
  Sink.record s ~t:99 (Event.Hook_sample { task = 1; dt_ns = 1 });
  check_int "re-allocates on next record" 8 (Sink.allocated_slots s);
  check_int "and retains the new event" 1 (Sink.length s);
  check_bool "new event readable" true
    (List.map hook_task (Sink.events s) = [ 1 ])

(* ------------------------------ kinds ------------------------------ *)

(* One event per constructor, exercising every payload field. *)
let all_kinds =
  [
    Event.Region_start { region = "main"; scheme = "PS-DSWP"; threads = 7; budget = 24 };
    Event.Ctrl_state { region = "main"; state = Event.Calibrate };
    Event.Pause { region = "main" };
    Event.Chan_flush { chan = "q0"; dropped = 3 };
    Event.Dop_change
      { region = "main"; scheme = "DOANY"; old_dop = 4; new_dop = 9; budget = 24; light = false };
    Event.Resume { region = "main"; scheme = "DOANY"; threads = 9 };
    Event.Budget_grant { region = "main"; budget = 12 };
    Event.Daemon_repartition { shares = [ ("p1", 12); ("p2", 12) ]; total = 24 };
    Event.Hook_sample { task = 2; dt_ns = 1234 };
    Event.Feature_sample { name = "SystemPower"; value = 96.875 };
    Event.Cores_online { cores = 16 };
    Event.Trace_overflow { dropped = 41 };
    Event.Region_stop { region = "main" };
  ]

(* The per-operation kinds, which have typed emitters; with [all_kinds]
   they cover all 19 constructors. *)
let hot_kinds =
  [
    Event.Chan_send_ev { chan = "q1"; seq = 5; task = 3; busy_ns = 700 };
    Event.Chan_recv_ev { chan = "q2"; seq = 6; task = 4; busy_ns = 800 };
    Event.Hook_sample { task = 7; dt_ns = 900 };
    Event.Task_spawn { task = 8; parent = -1; name = "stage" };
    Event.Task_done { task = 9; busy_ns = 1100 };
    Event.Steal_ev { task = 10; from_lane = 1; to_lane = 0 };
  ]

let every_kind = Array.of_list (all_kinds @ (Event.Span_overflow { dropped = 2 } :: hot_kinds))

(* The [i]-th event of a stream cycling through every constructor. *)
let stream i = Event.make ~t:(i * 3) every_kind.(i mod Array.length every_kind)

(* Record through [Sink.record], or through the typed emitter where the
   kind has one: a channel's events through its interned name. *)
let record ~typed s (e : Event.t) =
  let t = e.t in
  match e.kind with
  | Event.Chan_send_ev { chan; seq; task; busy_ns } when typed ->
      Sink.chan_items s ~recv:false ~t ~chan:(Sink.intern s chan) ~seq ~k:1 ~task ~busy_ns
  | Event.Chan_recv_ev { chan; seq; task; busy_ns } when typed ->
      Sink.chan_items s ~recv:true ~t ~chan:(Sink.intern s chan) ~seq ~k:1 ~task ~busy_ns
  | Event.Hook_sample { task; dt_ns } when typed ->
      Trace.with_sink s (fun () -> Trace.hook_sample ~t ~task ~dt_ns)
  | Event.Task_spawn { task; parent; name } when typed ->
      Trace.with_sink s (fun () -> Trace.task_spawn ~t ~task ~parent ~name)
  | Event.Task_done { task; busy_ns } when typed ->
      Trace.with_sink s (fun () -> Trace.task_done ~t ~task ~busy_ns)
  | Event.Steal_ev { task; from_lane; to_lane } when typed ->
      Trace.with_sink s (fun () -> Trace.steal ~t ~task ~from_lane ~to_lane)
  | kind -> Sink.record s ~t kind

let test_ring_roundtrip () =
  check_int "every constructor in the stream" 19
    (List.length (List.sort_uniq compare (Array.to_list (Array.map Event.kind_name every_kind))));
  List.iter
    (fun typed ->
      let check what = check_bool (Printf.sprintf "%s (typed=%b)" what typed) true in
      (* Growth: a chunk of 1024 slots at the first event and one more
         each time they fill, the last cut short at the capacity, 5000. *)
      let s = Sink.create ~capacity:5000 () in
      let slots = ref [] in
      for i = 0 to 4499 do
        record ~typed s (stream i);
        if not (List.mem (Sink.allocated_slots s) !slots) then
          slots := Sink.allocated_slots s :: !slots
      done;
      check "grows 1024, 2048, 3072, 4096, then to capacity"
        (List.rev !slots = [ 1024; 2048; 3072; 4096; 5000 ]);
      check "reads back across growth steps" (Sink.events s = List.init 4500 stream);
      check "to_array and iter agree"
        (Array.to_list (Sink.to_array s) = Sink.events s
        && (let acc = ref [] in
            Sink.iter s (fun e -> acc := e :: !acc);
            List.rev !acc = Sink.events s));
      (* Wrap-around keeps the newest, oldest first. *)
      let s = Sink.create ~capacity:1500 () in
      for i = 0 to 3999 do
        record ~typed s (stream i)
      done;
      check_int "wrapped: length" 1500 (Sink.length s);
      check_int "wrapped: dropped" 2500 (Sink.dropped s);
      check "wrapped: the newest, oldest first"
        (Sink.events s = List.init 1500 (fun k -> stream (2500 + k)));
      (* Capacity 1 keeps only the last event. *)
      let s = Sink.create ~capacity:1 () in
      for i = 0 to 40 do
        record ~typed s (stream i)
      done;
      check_int "capacity 1: dropped" 40 (Sink.dropped s);
      check "capacity 1: the last event" (Sink.events s = [ stream 40 ]);
      (* Monotone clamp: a late timestamp reads back raised to the latest. *)
      let s = Sink.create ~capacity:64 () in
      let at t i = { (stream i) with Event.t } in
      List.iter (record ~typed s) [ at 100 0; at 50 1; at 120 2 ];
      check "clamped" (Sink.events s = [ at 100 0; at 100 1; at 120 2 ]))
    [ false; true ]

(* ----------------- per-domain rings under concurrency --------------- *)

module Native = Parcae_native.Engine

(* A checksummed event: [b = 2a] and [c = 3a], and a channel name that is a
   function of [a], so a slot read while its writer rewrote it shows up as
   a broken sum. *)
let chans = [| "q0"; "q1"; "q2" |]

let emit_checked s ~t a =
  if a land 1 = 0 then
    Sink.chan_items s ~recv:false ~t ~chan:(Sink.intern s chans.(a mod 3)) ~seq:a ~k:1
      ~task:(2 * a) ~busy_ns:(3 * a)
  else Sink.steal s ~t ~task:a ~from_lane:(2 * a) ~to_lane:(3 * a)

let checked_a e =
  match e.Event.kind with
  | Event.Chan_send_ev { chan; seq; task; busy_ns }
    when seq land 1 = 0 && chan = chans.(seq mod 3) && task = 2 * seq && busy_ns = 3 * seq ->
      Some seq
  | Event.Steal_ev { task; from_lane; to_lane }
    when task land 1 = 1 && from_lane = 2 * task && to_lane = 3 * task ->
      Some task
  | _ -> None

(* Writer [w] emits [a = w * n + i] at time [i], for [i < n], spinning
   [spin] times between events and yielding to the domain's other
   systhreads every 256. *)
let emit_range s ~n ~spin w =
  for i = 0 to n - 1 do
    emit_checked s ~t:i ((w * n) + i);
    for _ = 1 to spin do
      Domain.cpu_relax ()
    done;
    if i land 255 = 0 then Thread.yield ()
  done

(* Whole events and non-decreasing time, counted over every read. *)
type read_stats = { mutable reads : int; mutable torn : int; mutable backwards : int }

let check_read st evs =
  st.reads <- st.reads + 1;
  Array.iteri
    (fun i e ->
      if checked_a e = None then st.torn <- st.torn + 1;
      if i > 0 && e.Event.t < evs.(i - 1).Event.t then st.backwards <- st.backwards + 1)
    evs

(* Two pool domains and the main thread write one sink while a systhread
   on the main domain reads it in a loop. *)
let concurrent_writes ~capacity ~n ~spin =
  let s = Sink.create ~capacity () in
  let st = { reads = 0; torn = 0; backwards = 0 } in
  let stop = Atomic.make false in
  let reader =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          check_read st (Sink.to_array s);
          Thread.yield ()
        done)
      ()
  in
  let eng = Native.create ~pool:2 () in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join reader;
      Native.shutdown eng)
    (fun () ->
      List.iter
        (fun w -> ignore (Native.spawn eng ~name:"writer" (fun () -> emit_range s ~n ~spin w)))
        [ 1; 2 ];
      emit_range s ~n ~spin 0;
      ignore (Native.run eng));
  let final = Sink.to_array s in
  check_read st final;
  check_bool (Printf.sprintf "the reader read during the writes (%d reads)" st.reads) true
    (st.reads > 1);
  check_int "every event read is whole" 0 st.torn;
  check_int "merged time never decreases" 0 st.backwards;
  (s, final)

(* Under capacity the writers pause between events, so the reader's
   copies overlap the rings' growth; over capacity they write back to back,
   so a copy of a ring's oldest slot often overlaps the write that
   replaces it. *)
let test_rings_concurrent () =
  let n = 10_000 in
  let s, final = concurrent_writes ~capacity:(4 * n) ~n ~spin:20 in
  check_bool "under capacity, the final read holds every event once" true
    (List.sort compare (Array.to_list (Array.map checked_a final))
    = List.init (3 * n) Option.some);
  check_int "under capacity, nothing dropped" 0 (Sink.dropped s);
  let n = 100_000 in
  let s, final = concurrent_writes ~capacity:1000 ~n ~spin:0 in
  check_int "over capacity, length + dropped = events emitted" (3 * n)
    (Sink.length s + Sink.dropped s);
  check_int "over capacity, length is the capacity" 1000 (Sink.length s);
  check_bool "over capacity, the final read keeps at most the capacity" true
    (Array.length final <= 1000)

(* Two systhreads of one domain share its ring; neither loses an event,
   also while the ring grows under them. *)
let test_rings_systhreads () =
  let n = 50_000 in
  let s = Sink.create ~capacity:(2 * n) () in
  let writer w =
    Thread.create
      (fun () ->
        for i = 0 to n - 1 do
          emit_checked s ~t:i ((w * n) + i);
          if i mod 97 = 0 then Thread.yield ()
        done)
      ()
  in
  List.iter Thread.join [ writer 0; writer 1 ];
  let evs = Sink.to_array s in
  check_bool "every event present, once and whole" true
    (List.sort compare (Array.to_list (Array.map checked_a evs)) = List.init (2 * n) Option.some);
  check_int "nothing dropped" 0 (Sink.dropped s)

(* A read merges the rings by time, ties in ring creation order, and keeps
   the newest [capacity]; each ring clamps its own time only. *)
let test_rings_merge () =
  let s = Sink.create ~capacity:4 () in
  let hook t task = Sink.hook_sample s ~t ~task ~dt_ns:0 in
  hook 10 0;
  Domain.join
    (Domain.spawn (fun () ->
         hook 5 1;
         hook 10 2;
         hook 20 3));
  hook 10 4;
  hook 30 5;
  check_bool "merged by time, ties in creation order, newest kept" true
    (List.map (fun e -> (e.Event.t, hook_task e)) (Sink.events s)
    = [ (10, 4); (10, 2); (20, 3); (30, 5) ]);
  check_int "length is the capacity" 4 (Sink.length s);
  check_int "dropped counts the events cut by the merge" 2 (Sink.dropped s)

(* The rings live in the sink and nowhere else: once the sink is dropped,
   no domain's state keeps it, or its rings, alive. *)
let[@inline never] write_from_two_domains w =
  let s = Sink.create () in
  Weak.set w 0 (Some s);
  Trace.with_sink s (fun () ->
      Trace.hook_sample ~t:1 ~task:0 ~dt_ns:1;
      Domain.join (Domain.spawn (fun () -> Trace.hook_sample ~t:2 ~task:1 ~dt_ns:1)));
  check_int "both domains wrote" 2 (Sink.length s)

let test_rings_not_retained () =
  let w = Weak.create 1 in
  write_from_two_domains w;
  Gc.full_major ();
  check_bool "the dropped sink is collected" false (Weak.check w 0)

(* ------------------------------ model ------------------------------ *)

(* One step of a random write mix, each at a time [dt] after the last
   (which may go back, to exercise the clamp). *)
type step =
  | Chan of { recv : bool; chan : int; k : int }  (* [k] items through [chan_names.(chan)] *)
  | Hook of int  (* a hook sample of this task *)
  | Spawn  (* a task named as no earlier step named one *)
  | Boxed of int  (* [boxed_kinds.(i)] *)
  | Clear

let chan_names = [| "in"; "mid"; "out" |]

(* The control-plane kinds no row fits. *)
let boxed_kinds =
  [|
    Event.Region_start { region = "r"; scheme = "DOANY"; threads = 3; budget = 8 };
    Event.Dop_change
      { region = "r"; scheme = "DOANY"; old_dop = 3; new_dop = 5; budget = 8; light = true };
    Event.Resume { region = "r"; scheme = "SEQ"; threads = 1 };
    Event.Daemon_repartition { shares = [ ("a", 5); ("b", 3) ]; total = 8 };
    Event.Feature_sample { name = "SystemPower"; value = 0.1 };
  |]

let gen_steps =
  QCheck.Gen.(
    list_size (int_range 1 150)
      (pair (int_range (-2) 5)
         (frequency
            [
              ( 30,
                map3
                  (fun recv chan k -> Chan { recv; chan; k })
                  bool
                  (int_bound (Array.length chan_names - 1))
                  (int_range 1 120) );
              (12, map (fun task -> Hook task) (int_bound 99));
              (8, return Spawn);
              (8, map (fun i -> Boxed i) (int_bound (Array.length boxed_kinds - 1)));
              (1, return Clear);
            ])))

let print_steps steps =
  String.concat " "
    (List.map
       (fun (dt, st) ->
         Printf.sprintf "%+d:%s" dt
           (match st with
           | Chan { recv; chan; k } -> Printf.sprintf "%s%d*%d" (if recv then "r" else "s") chan k
           | Hook task -> Printf.sprintf "h%d" task
           | Spawn -> "spawn"
           | Boxed i -> Printf.sprintf "b%d" i
           | Clear -> "clear"))
       steps)

(* The capacities of the model test: one slot, one short of a chunk, a
   chunk, one past it, and a last chunk cut short. *)
let model_capacities = [ 1; 1023; 1024; 1025; (3 * 1024) + 7 ]

(* Run [steps] into a sink of [capacity] and a list model of every event
   written since the last clear, newest first, checking [length],
   [dropped] and [events] after every step.  Channel names are interned
   once, before the first step, as a channel binds them: ids survive
   [clear]. *)
let model_check capacity steps =
  let s = Sink.create ~capacity () in
  let ids = Array.map (Sink.intern s) chan_names in
  let written = ref [] and total = ref 0 and clock = ref 0 and last = ref min_int in
  let seq = ref 0 in
  let fail fmt = QCheck.Test.fail_reportf ("capacity %d: " ^^ fmt) capacity in
  let add t kind =
    written := Event.make ~t kind :: !written;
    incr total
  in
  let step i (dt, st) =
    clock := !clock + dt;
    (* The ring's clamp: a time below the ring's latest is raised to it. *)
    let t = Int.max !clock !last in
    (match st with
    | Clear ->
        Sink.clear s;
        written := [];
        total := 0;
        last := min_int
    | Chan { recv; chan; k } ->
        Sink.chan_items s ~recv ~t:!clock ~chan:ids.(chan) ~seq:!seq ~k ~task:i ~busy_ns:(7 * i);
        for q = !seq to !seq + k - 1 do
          let chan = chan_names.(chan) in
          add t
            (if recv then Event.Chan_recv_ev { chan; seq = q; task = i; busy_ns = 7 * i }
             else Event.Chan_send_ev { chan; seq = q; task = i; busy_ns = 7 * i })
        done;
        seq := !seq + k;
        last := t
    | Hook task ->
        Sink.hook_sample s ~t:!clock ~task ~dt_ns:i;
        add t (Event.Hook_sample { task; dt_ns = i });
        last := t
    | Spawn ->
        let name = Printf.sprintf "task-%d" i in
        Sink.task_spawn s ~t:!clock ~task:i ~parent:(i - 1) ~name;
        add t (Event.Task_spawn { task = i; parent = i - 1; name });
        last := t
    | Boxed b ->
        Sink.record s ~t:!clock boxed_kinds.(b);
        add t boxed_kinds.(b);
        last := t);
    let kept = Int.min capacity !total in
    if Sink.length s <> kept then fail "step %d: length %d, model %d" i (Sink.length s) kept;
    if Sink.dropped s <> !total - kept then
      fail "step %d: dropped %d, model %d" i (Sink.dropped s) (!total - kept);
    let want = List.rev (List.filteri (fun j _ -> j < kept) !written) in
    if Sink.events s <> want then fail "step %d: events differ from the model" i
  in
  List.iteri step steps

let prop_sink_model =
  QCheck.Test.make ~name:"sink: random writes match a list model at every chunk boundary"
    ~count:12
    (QCheck.make ~print:print_steps ~shrink:QCheck.Shrink.list gen_steps)
    (fun steps ->
      List.iter (fun capacity -> model_check capacity steps) model_capacities;
      true)

(* ----------------------------- storage ----------------------------- *)

let major_words () =
  let _, _, major = Gc.counters () in
  major

(* Filling a sink allocates its chunks once: no storage is copied, and no
   old storage is left behind as garbage.  Each chunk has a header word
   and the ring a one-word-per-chunk table; the allowance covers those
   and the ring's record.  The minor heap is emptied first, so what the
   fill promotes is only what it allocated. *)
let test_fill_copies_nothing () =
  let capacity = 65_536 in
  let s = Sink.create ~capacity () in
  Gc.minor ();
  let w0 = major_words () in
  for i = 0 to capacity - 1 do
    Sink.hook_sample s ~t:i ~task:i ~dt_ns:1
  done;
  let words = major_words () -. w0 in
  let storage = float_of_int (Sink.allocated_slots s * 5) in
  check_int "the sink is full" capacity (Sink.length s);
  check_int "its storage is its capacity" capacity (Sink.allocated_slots s);
  check_bool
    (Printf.sprintf "filling allocates %.0f major words for %.0f of storage" words storage)
    true
    (words <= storage +. 1024.0)

(* A boxed kind is kept by its slot only while the slot holds its event:
   overwritten by a row event or by another boxed kind, it is released. *)
let[@inline never] record_fresh s w j =
  let kind = Event.Feature_sample { name = Printf.sprintf "feature-%d" j; value = float_of_int j } in
  Weak.set w j (Some kind);
  Sink.record s ~t:j kind

let test_overwritten_kind_released () =
  let s = Sink.create ~capacity:2 () in
  let w = Weak.create 3 in
  record_fresh s w 0;
  Gc.full_major ();
  check_bool "a retained boxed kind is alive" true (Weak.check w 0);
  Sink.hook_sample s ~t:1 ~task:1 ~dt_ns:1;
  Sink.hook_sample s ~t:2 ~task:2 ~dt_ns:1;
  Gc.full_major ();
  check_bool "overwritten by a row event, it is released" false (Weak.check w 0);
  record_fresh s w 1;
  record_fresh s w 2;
  Sink.record s ~t:3 boxed_kinds.(0);
  Gc.full_major ();
  check_bool "overwritten by a boxed kind, it is released" false (Weak.check w 1);
  check_bool "the newer one is alive" true (Weak.check w 2);
  (* The sink is live up to here, so it, not its death, decided. *)
  check_int "the sink holds the newer one and the last" 2 (Sink.length s)

let suite =
  [
    Alcotest.test_case "sink: ring order and overflow" `Quick test_ring_order_and_overflow;
    Alcotest.test_case "sink: clear releases the ring allocation" `Quick
      test_clear_releases_storage;
    Alcotest.test_case "sink: every constructor round-trips the flat ring" `Quick
      test_ring_roundtrip;
    Alcotest.test_case "sink: per-domain rings under a concurrent reader" `Quick
      test_rings_concurrent;
    Alcotest.test_case "sink: systhreads of one domain lose no event" `Quick
      test_rings_systhreads;
    Alcotest.test_case "sink: a dropped sink is not retained" `Quick test_rings_not_retained;
    Alcotest.test_case "sink: rings merge by time, newest capacity kept" `Quick test_rings_merge;
    QCheck_alcotest.to_alcotest prop_sink_model;
    Alcotest.test_case "sink: filling allocates its storage once" `Quick test_fill_copies_nothing;
    Alcotest.test_case "sink: an overwritten boxed kind is released" `Quick
      test_overwritten_kind_released;
  ]
