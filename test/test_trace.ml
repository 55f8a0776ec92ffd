(* Tests for the observability layer (lib/obs): the ring sink and its
   per-domain rings under concurrent writers and readers, the scoped
   install of all seven observers, the JSONL and Chrome trace_event
   exporters, the trace oracle on a real traced workload run, trace
   determinism under a fixed seed, pinned trace and metric bytes, the
   allocation of the observer hooks, and Decima hook edge cases. *)

open Parcae_sim

(* Engine/value types come from the platform dispatch layer (the runtime's
   own types); [Machine]/[Power]/etc. remain from [Parcae_sim] above. *)
module Engine = Parcae_platform.Engine
module Chan = Parcae_platform.Chan
module Lock = Parcae_platform.Lock
open Parcae_workloads
module Obs = Parcae_obs
module Event = Obs.Event
module Sink = Obs.Sink
module Trace = Obs.Trace
module Export = Obs.Export
module Oracle = Obs.Oracle
module Json = Obs.Json
module R = Parcae_runtime

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------- sink ------------------------------ *)

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

let test_null_sink_disabled () =
  check_bool "tracing off by default" false (Trace.enabled ());
  (* Emitting into the null sink is a no-op, not an error. *)
  Trace.emit ~t:0 (Event.Region_stop { region = "r" });
  let s = Sink.create () in
  Trace.with_sink s (fun () ->
      check_bool "enabled inside with_sink" true (Trace.enabled ());
      Trace.emit ~t:5 (Event.Pause { region = "r" }));
  check_bool "with_sink restores" false (Trace.enabled ());
  check_int "event landed in installed sink" 1 (Sink.length s)

(* One row per observer layer: how to make an instance, install it for a
   scope, and tell whether a given instance is the installed one.  Layers
   with no accessor for their cell are probed by recording through it. *)
type observer =
  | Observer : {
      name : string;
      make : unit -> 'o;
      scope : 'a. 'o -> (unit -> 'a) -> 'a;
      installed : 'o -> bool;
      enabled : unit -> bool;
    }
      -> observer

let installed_in get o = match get () with Some c -> c == o | None -> false

let observers =
  [
    Observer
      {
        name = "trace";
        make = (fun () -> Sink.create ());
        scope = Trace.with_sink;
        installed =
          (fun s ->
            let n = Sink.length s in
            Trace.emit ~t:0 (Event.Region_stop { region = "probe" });
            Sink.length s > n);
        enabled = Trace.enabled;
      };
    Observer
      {
        name = "metrics";
        make = Obs.Metrics.create;
        scope = Obs.Metrics.with_registry;
        installed = (fun r -> Obs.Metrics.current () == r);
        enabled = Obs.Metrics.enabled;
      };
    Observer
      {
        name = "flight";
        make = Obs.Flight.create;
        scope = Obs.Flight.with_recorder;
        installed =
          (fun r ->
            let n = Obs.Flight.count r in
            Obs.Flight.overhead ~t:0 ~region:"probe" ~phase:"flush" ~ns:1;
            Obs.Flight.count r > n);
        enabled = Obs.Flight.enabled;
      };
    Observer
      {
        name = "ledger";
        make = Obs.Ledger.create;
        scope = Obs.Ledger.with_ledger;
        installed =
          (fun l ->
            let ns () = Obs.Ledger.phase_ns l ~region:"probe" ~phase:"flush" in
            let before = ns () in
            Obs.Ledger.note ~t:0 ~region:"probe" ~phase:"flush" 1;
            ns () > before);
        enabled = Obs.Ledger.active;
      };
    Observer
      {
        name = "hb";
        make = Obs.Hb.create;
        scope = Obs.Hb.with_tracker;
        installed = installed_in Obs.Hb.get;
        enabled = Obs.Hb.enabled;
      };
    Observer
      {
        name = "span";
        make = (fun () -> Obs.Span.create ());
        scope = Obs.Span.with_collector;
        installed = installed_in Obs.Span.get;
        enabled = Obs.Span.enabled;
      };
    Observer
      {
        name = "timeline";
        make = (fun () -> Obs.Timeline.create ~lanes:4 ~now:0 ());
        scope = Obs.Timeline.with_timeline;
        installed = installed_in Obs.Timeline.get;
        enabled = Obs.Timeline.enabled;
      };
  ]

(* Run [f] with a fresh instance of every observer installed. *)
let with_all_observers f =
  List.fold_left (fun f (Observer o) () -> o.scope (o.make ()) f) f observers ()

(* Every observer installs only through its scope: an inner scope shadows
   the outer, an exception leaving it restores the outer, and nothing is
   installed once the outer scope closes. *)
let test_observer_scopes () =
  List.iter
    (fun (Observer o) ->
      let outer = o.make () and inner = o.make () in
      let check what = check_bool (o.name ^ ": " ^ what) true in
      check "off by default" (not (o.enabled ()));
      o.scope outer (fun () ->
          o.scope inner (fun () -> check "inner shadows outer" (o.installed inner));
          check "outer restored" (o.installed outer);
          (match o.scope inner (fun () -> raise Exit) with
          | () -> Alcotest.fail "the scope swallowed the exception"
          | exception Exit -> ());
          check "outer restored after an exception" (o.installed outer));
      check "nothing installed afterwards" (not (o.enabled ())))
    observers

(* A saturated ring must account for its losses everywhere the trace is
   consumed: the sink's drop counter, a leading overflow marker in the
   export helpers, and the metrics registry. *)
let test_saturated_ring_accounting () =
  let reg = Obs.Metrics.create () in
  let s = Sink.create ~capacity:4 () in
  Obs.Metrics.with_registry reg (fun () ->
      for i = 1 to 10 do
        Sink.record s ~t:(i * 10) (Event.Hook_sample { task = i; dt_ns = i })
      done);
  check_int "sink counts drops" 6 (Sink.dropped s);
  (* The export helpers prepend a self-describing marker... *)
  (match Export.events_of_sink s with
  | marker :: rest ->
      (match marker.Event.kind with
      | Event.Trace_overflow { dropped } -> check_int "marker carries drop count" 6 dropped
      | _ -> Alcotest.fail "expected a leading Trace_overflow marker");
      check_int "marker timestamped at oldest retained event" 70 marker.Event.t;
      check_int "retained events follow" 4 (List.length rest)
  | [] -> Alcotest.fail "saturated sink exported nothing");
  (* ...which survives the JSONL and Chrome forms. *)
  (match Export.parse_jsonl (Export.jsonl_of_sink s) with
  | { Event.kind = Event.Trace_overflow { dropped }; _ } :: _ ->
      check_int "JSONL marker round-trips" 6 dropped
  | _ -> Alcotest.fail "JSONL export lost the overflow marker");
  let chrome = Json.parse (Export.chrome_of_sink s) in
  let names = List.map (Json.get_str "name") (Json.get_list "traceEvents" chrome) in
  check_bool "Chrome export has a trace-overflow instant" true
    (List.mem "trace-overflow" names);
  (* ...and the registry saw every overwrite as it happened. *)
  let c = Obs.Metrics.counter reg "parcae_trace_dropped_total" in
  check_int "metrics counted the drops" 6 (Obs.Metrics.counter_value c);
  (* An unsaturated sink gets no marker. *)
  let s2 = Sink.create ~capacity:8 () in
  Sink.record s2 ~t:1 (Event.Hook_sample { task = 1; dt_ns = 1 });
  check_int "no marker without drops" 1 (List.length (Export.events_of_sink s2))

(* ----------------------------- exporters --------------------------- *)

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

let all_events = List.mapi (fun i k -> Event.make ~t:(i * 1000) k) all_kinds

let test_jsonl_roundtrip_all_constructors () =
  let back = Export.parse_jsonl (Export.jsonl all_events) in
  check_bool "every constructor round-trips" true (back = all_events);
  (* Floats without a finite decimal expansion survive the text form. *)
  let awkward = [ Event.make ~t:1 (Event.Feature_sample { name = "f"; value = 0.1 }) ] in
  check_bool "0.1 round-trips exactly" true (Export.parse_jsonl (Export.jsonl awkward) = awkward)

(* ----------------------------- flat ring ---------------------------- *)

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
   kind has one. *)
let record ~typed s (e : Event.t) =
  let t = e.t in
  match e.kind with
  | Event.Chan_send_ev { chan; seq; task; busy_ns } when typed ->
      Trace.with_sink s (fun () -> Trace.chan_send ~t ~chan ~seq ~task ~busy_ns)
  | Event.Chan_recv_ev { chan; seq; task; busy_ns } when typed ->
      Trace.with_sink s (fun () -> Trace.chan_recv ~t ~chan ~seq ~task ~busy_ns)
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
      (* Growth: 1024 slots at the first event, doubling, capped at 5000. *)
      let s = Sink.create ~capacity:5000 () in
      let slots = ref [] in
      for i = 0 to 4499 do
        record ~typed s (stream i);
        if not (List.mem (Sink.allocated_slots s) !slots) then
          slots := Sink.allocated_slots s :: !slots
      done;
      check "grows 1024, 2048, 4096, then to capacity"
        (List.rev !slots = [ 1024; 2048; 4096; 5000 ]);
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
    Sink.chan_send s ~t ~chan:chans.(a mod 3) ~seq:a ~task:(2 * a) ~busy_ns:(3 * a)
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

(* The unit convention: everything in the tree is integer nanoseconds;
   only the Chrome exporter converts, to the trace_event format's float
   microseconds.  Pin the conversion so a unit regression cannot hide. *)
let test_timestamp_unit_conversion () =
  Alcotest.(check (float 0.0)) "us_of_ns is exact division by 1000" 1234.567
    (Export.us_of_ns 1_234_567);
  Alcotest.(check (float 0.0)) "sub-microsecond times keep precision" 0.001
    (Export.us_of_ns 1);
  let ev = [ Event.make ~t:2_500 (Event.Pause { region = "r" }) ] in
  (* JSONL keeps raw ns... *)
  (match Json.parse (List.hd (String.split_on_char '\n' (Export.jsonl ev))) with
  | j -> check_int "JSONL keeps integer ns" 2_500 (Json.get_int "t" j));
  (* ...Chrome converts every ts to us. *)
  let evs = Json.get_list "traceEvents" (Json.parse (Export.chrome ev)) in
  let ts =
    List.filter_map
      (fun e -> if Json.get_str "ph" e = "M" then None else Some (Json.get_float "ts" e))
      evs
  in
  check_bool "at least one timestamped record" true (ts <> []);
  List.iter (fun t -> Alcotest.(check (float 0.0)) "Chrome ts in us" 2.5 t) ts

let test_chrome_export_well_formed () =
  let j = Json.parse (Export.chrome all_events) in
  let evs = Json.get_list "traceEvents" j in
  check_bool "traceEvents non-empty" true (List.length evs >= List.length all_events);
  let phs = List.map (Json.get_str "ph") evs in
  check_bool "has duration-begin" true (List.mem "B" phs);
  check_bool "has duration-end" true (List.mem "E" phs);
  check_bool "has counters" true (List.mem "C" phs);
  check_bool "has instants" true (List.mem "i" phs);
  check_bool "has track metadata" true (List.mem "M" phs);
  (* Every non-metadata record carries a timestamp and a pid. *)
  List.iter
    (fun e ->
      ignore (Json.get_int "pid" e);
      if Json.get_str "ph" e <> "M" then ignore (Json.get_float "ts" e))
    evs

(* Chrome counter tracks carry a numeric args.value; pause windows are
   duration slices that nest inside their region's lifetime slice. *)
let chrome_counters_numeric evs =
  List.iter
    (fun e ->
      if Json.get_str "ph" e = "C" then
        let args = Option.get (Json.member "args" e) in
        match Json.member "value" args with
        | Some (Json.Int _) | Some (Json.Float _) -> ()
        | _ -> Alcotest.fail ("counter without numeric value: " ^ Json.to_string e))
    evs

let chrome_check_nesting evs =
  (* Replay each tid's B/E slices as a stack: pairing is LIFO, "paused"
     only opens inside an open "region ..." slice, and every slice closes. *)
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 7 in
  let pauses = ref 0 in
  List.iter
    (fun e ->
      let tid = Json.get_int "tid" e in
      let name = Json.get_str "name" e in
      let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
      match Json.get_str "ph" e with
      | "B" ->
          if name = "paused" then begin
            incr pauses;
            (match stack with
            | top :: _ when String.length top >= 6 && String.sub top 0 6 = "region" -> ()
            | _ -> Alcotest.fail "paused slice opened outside a region slice")
          end;
          Hashtbl.replace stacks tid (name :: stack)
      | "E" -> (
          match stack with
          | top :: rest ->
              (* An E record names the slice family it closes ("region" /
                 "paused"); the B side may carry a suffix ("region DOANY"). *)
              check_bool ("E closes matching B: " ^ top ^ " vs " ^ name) true
                (top = name || (String.length top >= String.length name
                                && String.sub top 0 (String.length name) = name));
              Hashtbl.replace stacks tid rest
          | [] -> Alcotest.fail ("E without open slice on tid " ^ string_of_int tid))
      | _ -> ())
    evs;
  Hashtbl.iter
    (fun tid stack ->
      check_int ("all slices closed on tid " ^ string_of_int tid) 0 (List.length stack))
    stacks;
  !pauses

(* ------------------------- traced real run -------------------------- *)

let machine = Machine.xeon_x7460

let traced_batch ?mechanism ?(m = 25) ?(seed = 11) ~config mk =
  let sink = Sink.create ~capacity:200_000 () in
  let r, _, _ =
    Trace.with_sink sink (fun () -> Experiments.run_batch ~m ~seed ~machine ?mechanism ~config mk)
  in
  (r, sink)

let wqt_h = Option.get (List.assoc "wqt-h" Experiments.mechanisms)

let test_traced_run_exports_and_oracle () =
  let r, sink =
    traced_batch ~mechanism:wqt_h ~config:(`Named "outer-only") (fun ~budget eng ->
        Bzip.make ~budget eng)
  in
  check_int "all requests completed" r.Experiments.submitted r.Experiments.completed;
  let events = Sink.events sink in
  check_bool "no overflow at this size" true (Sink.dropped sink = 0);
  check_bool "captured the protocol" true (List.length events > 3);
  check_bool "real trace round-trips via JSONL" true
    (Export.parse_jsonl (Export.jsonl events) = events);
  let j = Json.parse (Export.chrome events) in
  check_bool "real trace exports to Chrome JSON" true (Json.get_list "traceEvents" j <> []);
  match Oracle.check ~require_flush:true events with
  | Ok st ->
      check_int "one region" 1 st.Oracle.regions;
      check_bool "saw at least one pause" true (st.Oracle.pauses >= 1)
  | Error vs -> Alcotest.fail (Oracle.violations_to_string vs)

let test_chrome_real_run_counters_and_nesting () =
  let _, sink =
    traced_batch ~mechanism:wqt_h ~config:(`Named "outer-only") (fun ~budget eng ->
        Bzip.make ~budget eng)
  in
  let evs = Json.get_list "traceEvents" (Json.parse (Export.chrome (Sink.events sink))) in
  chrome_counters_numeric evs;
  let pauses = chrome_check_nesting evs in
  check_bool "at least one pause window exported" true (pauses >= 1);
  (* The synthetic all-constructor stream must satisfy the same shape. *)
  let all = Json.get_list "traceEvents" (Json.parse (Export.chrome all_events)) in
  chrome_counters_numeric all;
  check_int "synthetic stream has one pause window" 1 (chrome_check_nesting all)

let test_trace_determinism () =
  (* Same seed, same workload, same mechanism: the traces must be
     byte-identical in their canonical (JSONL) form. *)
  let run () =
    let _, sink =
      traced_batch ~seed:23
        ~mechanism:(Option.get (List.assoc "tbf" Experiments.mechanisms))
        ~config:(`Named "even")
        (fun ~budget eng -> Ferret.make ~budget eng)
    in
    Export.jsonl (Sink.events sink)
  in
  let a = run () and b = run () in
  check_bool "trace is non-trivial" true (String.length a > 100);
  check_string "same seed, byte-identical traces" a b

(* --------------------- pinned trace and metric bytes ----------------- *)

(* [trace_digests.txt] pins the MD5 of [Export.jsonl_of_sink] for fixed-seed
   serve runs of ferret under tbf and x264 under wq-linear, each recorded
   into a sink that never wraps and into a 1000-slot sink that does (the
   export then leads with the overflow marker).  Any change to the sink's
   storage or to the emitters must reproduce every digest; on a mismatch
   the recomputed table is written next to the committed one in the build
   directory.  [metrics_digests.txt] does the same for
   [Metrics.to_prometheus] of the same runs repeated with a registry and a
   span collector installed. *)
let trace_digest_file = "trace_digests.txt"
let metrics_digest_file = "metrics_digests.txt"

(* (app, factory, mechanism, request rate); each run starts where the
   CLI's serve does: "even" on ferret, "inner-max" on x264. *)
let digest_apps =
  [
    ("ferret", (fun ~budget eng -> Ferret.make ~budget eng), "tbf", 400.0);
    ("x264", (fun ~budget eng -> Transcode.make ~budget eng), "wq-linear", 8.8);
  ]

let serve_into sink (_, make, mech, rate) =
  ignore
    (Trace.with_sink sink (fun () ->
         Experiments.run_server ~m:200 ~seed:7 ~machine ~rate_per_s:rate
           ?mechanism:(List.assoc mech Experiments.mechanisms)
           ~config:`Serve make))

let digest_run run ~capacity =
  let sink = Sink.create ~capacity () in
  serve_into sink run;
  (Digest.to_hex (Digest.string (Export.jsonl_of_sink sink)), Sink.dropped sink)

let digest_cases =
  List.concat_map
    (fun ((app, _, mech, _) as run) ->
      List.map
        (fun (size, capacity) -> (Printf.sprintf "%s-%s-%s" app mech size, run, capacity))
        [ ("full", 1_000_000); ("wrap1000", 1_000) ])
    digest_apps

(* Compare [actual] with the table in [file] (one "name rest" line per
   run); on a mismatch write the recomputed table beside it and fail. *)
let check_digest_table file actual =
  let expected =
    In_channel.with_open_text file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
    |> List.map (fun line -> Scanf.sscanf line "%s %[^\n]" (fun name d -> (name, d)))
  in
  if actual <> expected then begin
    Out_channel.with_open_text (file ^ ".actual") (fun oc ->
        List.iter (fun (name, d) -> Printf.fprintf oc "%s %s\n" name d) actual);
    Alcotest.failf "recorded bytes diverge from %s (recomputed table: %s.actual)" file file
  end

let test_trace_digests () =
  check_digest_table trace_digest_file
    (List.map
       (fun (name, run, capacity) ->
         let d, dropped = digest_run run ~capacity in
         check_bool (name ^ ": the sink wraps iff it is the small one") (capacity = 1_000)
           (dropped > 0);
         (name, d))
       digest_cases)

(* A wrapping run's line also pins [parcae_trace_dropped_total], which
   must equal the sink's own drop count. *)
let test_metrics_digests () =
  check_digest_table metrics_digest_file
    (List.map
       (fun (name, run, capacity) ->
         let reg = Obs.Metrics.create () and sink = Sink.create ~capacity () in
         Obs.Metrics.with_registry reg (fun () ->
             Obs.Span.with_collector (Obs.Span.create ()) (fun () -> serve_into sink run));
         let d = Digest.to_hex (Digest.string (Obs.Metrics.to_prometheus reg)) in
         if Sink.dropped sink = 0 then (name, d)
         else begin
           let counted =
             Obs.Metrics.counter_value (Obs.Metrics.counter reg "parcae_trace_dropped_total")
           in
           check_int (name ^ ": the registry counts every drop") (Sink.dropped sink) counted;
           (name, Printf.sprintf "%s parcae_trace_dropped_total=%d" d counted)
         end)
       digest_cases)

(* ------------------- allocation of the observer hooks --------------- *)

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* A typed emit into a full ring writes columns in place: 10 000 of them,
   each overwriting the oldest event and counting the drop in the
   registry, allocate nothing beyond what the measurement itself does. *)
let test_typed_emits_allocate_nothing () =
  let s = Sink.create ~capacity:1024 () in
  Obs.Metrics.with_registry (Obs.Metrics.create ()) @@ fun () ->
  Trace.with_sink s @@ fun () ->
  let emit i =
    match i mod 6 with
    | 0 -> Trace.chan_send ~t:i ~chan:"q" ~seq:i ~task:1 ~busy_ns:i
    | 1 -> Trace.chan_recv ~t:i ~chan:"q" ~seq:i ~task:2 ~busy_ns:i
    | 2 -> Trace.hook_sample ~t:i ~task:1 ~dt_ns:i
    | 3 -> Trace.task_spawn ~t:i ~task:i ~parent:1 ~name:"worker"
    | 4 -> Trace.task_done ~t:i ~task:i ~busy_ns:i
    | _ -> Trace.steal ~t:i ~task:i ~from_lane:0 ~to_lane:1
  in
  let emits lo hi () =
    for i = lo to hi - 1 do
      emit i
    done
  in
  (* Fill and wrap the ring first, which also builds the drop counter. *)
  emits 0 2048 ();
  check_int "the ring is full" 1024 (Sink.length s);
  let nothing = minor_words (fun () -> ()) in
  let words = minor_words (emits 2048 12_048) in
  check_bool
    (Printf.sprintf "10 000 emits allocate %.0f words (the measurement: %.0f)" words nothing)
    true (words = nothing);
  check_int "every emit landed" 11_024 (Sink.dropped s)

(* The six observers a deployment keeps on while serving (every one but the
   race sanitizer), created fresh for one run. *)
let with_serving_observers f =
  Obs.Metrics.with_registry (Obs.Metrics.create ()) @@ fun () ->
  Obs.Span.with_collector (Obs.Span.create ~capacity:4096 ()) @@ fun () ->
  Trace.with_sink (Sink.create ()) @@ fun () ->
  Obs.Flight.with_recorder (Obs.Flight.create ()) @@ fun () ->
  Obs.Ledger.with_ledger (Obs.Ledger.create ()) @@ fun () ->
  Obs.Timeline.with_timeline (Obs.Timeline.create ~lanes:machine.Machine.cores ~now:0 ()) f

(* Serving with every observer on allocates little more than serving bare:
   the hooks on each channel op, scheduler turn and Decima sample allocate
   nothing, so what remains is the observers' set-up and a few words per
   request in the span collector. *)
let test_observed_serve_allocation () =
  let n = 400 in
  let serve () =
    ignore
      (Experiments.run_server ~m:n ~seed:42 ~machine ~rate_per_s:400.0 ~config:(`Named "even")
         (fun ~budget eng -> Ferret.make ~budget eng))
  in
  (* Warm-up: first-use costs of the process, not of a serve. *)
  with_serving_observers serve;
  let bare = minor_words serve in
  let observed = minor_words (fun () -> with_serving_observers serve) in
  let extra = (observed -. bare) /. float_of_int n in
  check_bool
    (Printf.sprintf "observers add %.1f minor words per request (bound 48; bare %.1f)" extra
       (bare /. float_of_int n))
    true (extra <= 48.0)

(* ------------------------- Decima edge cases ------------------------ *)

let test_decima_hook_edges () =
  let eng = Engine.create (Machine.test_machine ~cores:4 ()) in
  let d = R.Decima.create eng ~tasks:2 in
  let sink = Sink.create () in
  Trace.with_sink sink (fun () ->
      let _ =
        Engine.spawn eng ~name:"probe" (fun () ->
            let slot = R.Decima.make_slot () in
            (* hook_end without a matching hook_begin: counted as a call,
               but records no sample. *)
            R.Decima.hook_end d ~task:0 slot;
            check_int "unmatched end: no sample" 0
              (List.length (List.filter (fun e -> hook_task e >= 0) (Sink.events sink)));
            (* Out-of-range task indices are ignored, not fatal. *)
            R.Decima.tick d 7;
            R.Decima.tick d (-1);
            check_int "out-of-range tick ignored" 0 (R.Decima.iters d 0 + R.Decima.iters d 1);
            R.Decima.hook_begin d slot;
            Engine.compute 500;
            R.Decima.hook_end d ~task:99 slot;
            check_int "hooks all counted" 3 (R.Decima.hook_calls d);
            check_int "out-of-range end: no sample" 0
              (List.length (List.filter (fun e -> hook_task e >= 0) (Sink.events sink)));
            (* reset mid-region while a hook slot is open: the pending
               sample lands in the new, larger task table. *)
            R.Decima.hook_begin d slot;
            R.Decima.reset d ~tasks:5;
            Engine.compute 300;
            R.Decima.hook_end d ~task:4 slot;
            check_int "task table resized" 5 (R.Decima.task_count d);
            check_bool "pending sample recorded after reset" true (R.Decima.exec_time d 4 > 0.0))
      in
      ignore (Engine.run eng));
  check_bool "exactly the post-reset sample was traced" true
    (List.map hook_task (List.filter (fun e -> hook_task e >= 0) (Sink.events sink)) = [ 4 ])

let suite =
  [
    Alcotest.test_case "sink: ring order and overflow" `Quick test_ring_order_and_overflow;
    Alcotest.test_case "sink: clear releases the ring allocation" `Quick
      test_clear_releases_storage;
    Alcotest.test_case "sink: null sink disables tracing" `Quick test_null_sink_disabled;
    Alcotest.test_case "observers: scopes nest and restore" `Quick test_observer_scopes;
    Alcotest.test_case "sink: saturated ring accounts for drops" `Quick
      test_saturated_ring_accounting;
    Alcotest.test_case "export: JSONL round-trips all constructors" `Quick
      test_jsonl_roundtrip_all_constructors;
    Alcotest.test_case "sink: every constructor round-trips the flat ring" `Quick
      test_ring_roundtrip;
    Alcotest.test_case "sink: per-domain rings under a concurrent reader" `Quick
      test_rings_concurrent;
    Alcotest.test_case "sink: systhreads of one domain lose no event" `Quick
      test_rings_systhreads;
    Alcotest.test_case "sink: a dropped sink is not retained" `Quick test_rings_not_retained;
    Alcotest.test_case "sink: rings merge by time, newest capacity kept" `Quick test_rings_merge;
    Alcotest.test_case "export: ns-to-us conversion pinned" `Quick
      test_timestamp_unit_conversion;
    Alcotest.test_case "export: Chrome trace is well-formed" `Quick test_chrome_export_well_formed;
    Alcotest.test_case "trace: real run exports and satisfies oracle" `Quick
      test_traced_run_exports_and_oracle;
    Alcotest.test_case "export: Chrome counters numeric, slices nest" `Quick
      test_chrome_real_run_counters_and_nesting;
    Alcotest.test_case "trace: same seed gives identical traces" `Quick test_trace_determinism;
    Alcotest.test_case "trace: serve runs reproduce their committed digests" `Quick
      test_trace_digests;
    Alcotest.test_case "metrics: serve runs reproduce their committed digests" `Quick
      test_metrics_digests;
    Alcotest.test_case "sink: typed emits into a full ring allocate nothing" `Quick
      test_typed_emits_allocate_nothing;
    Alcotest.test_case "observers: serving observed allocates little more than bare" `Quick
      test_observed_serve_allocation;
    Alcotest.test_case "decima: hook edge cases" `Quick test_decima_hook_edges;
  ]
