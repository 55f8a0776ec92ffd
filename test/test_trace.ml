(* Tests for the observability layer (lib/obs): the null sink and a
   saturated sink's drop accounting, the scoped install of all seven
   observers, the JSONL and Chrome trace_event exporters, the trace oracle
   on a real traced workload run, trace determinism under a fixed seed,
   pinned trace and metric bytes, the allocation of the observer hooks,
   and Decima hook edge cases.  The sink's storage has its own suite
   (test_sink.ml). *)

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

let hook_task = Test_sink.hook_task

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
   scope, and tell whether a given instance is the installed one; its bit
   of the installed-observer word, and its null value if it has a public
   one.  Layers with no accessor for their cell are probed by recording
   through it. *)
type observer =
  | Observer : {
      name : string;
      make : unit -> 'o;
      scope : 'a. 'o -> (unit -> 'a) -> 'a;
      installed : 'o -> bool;
      enabled : unit -> bool;
      bit : int;
      null : 'o option;
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
        bit = Obs.Observed.trace;
        null = Some Sink.null;
      };
    Observer
      {
        name = "metrics";
        make = Obs.Metrics.create;
        scope = Obs.Metrics.with_registry;
        installed = (fun r -> Obs.Metrics.current () == r);
        enabled = Obs.Metrics.enabled;
        bit = Obs.Observed.metrics;
        null = Some Obs.Metrics.null;
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
        bit = Obs.Observed.flight;
        null = None;
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
        bit = Obs.Observed.ledger;
        null = None;
      };
    Observer
      {
        name = "hb";
        make = Obs.Hb.create;
        scope = Obs.Hb.with_tracker;
        installed = installed_in Obs.Hb.get;
        enabled = Obs.Hb.enabled;
        bit = Obs.Observed.hb;
        null = None;
      };
    Observer
      {
        name = "span";
        make = (fun () -> Obs.Span.create ());
        scope = Obs.Span.with_collector;
        installed = installed_in Obs.Span.get;
        enabled = Obs.Span.enabled;
        bit = Obs.Observed.span;
        null = None;
      };
    Observer
      {
        name = "timeline";
        make = (fun () -> Obs.Timeline.create ~lanes:4 ~now:0 ());
        scope = Obs.Timeline.with_timeline;
        installed = installed_in Obs.Timeline.get;
        enabled = Obs.Timeline.enabled;
        bit = Obs.Observed.timeline;
        null = None;
      };
  ]

(* Run [f] with a fresh instance of every observer installed. *)
let with_all_observers f =
  List.fold_left (fun f (Observer o) () -> o.scope (o.make ()) f) f observers ()

(* Every observer installs only through its scope: an inner scope shadows
   the outer, an exception leaving it restores the outer, and nothing is
   installed once the outer scope closes.  The observer's bit of the
   installed-observer word follows its cell, the other six bits stay as
   they were, and installing a null value clears the bit for its scope. *)
let test_observer_scopes () =
  let word () = Atomic.get Obs.Observed.word in
  List.iter
    (fun (Observer o) ->
      let outer = o.make () and inner = o.make () in
      let check what = check_bool (o.name ^ ": " ^ what) true in
      let live what =
        check (what ^ ": bit set") (word () = o.bit);
        check (what ^ ": enabled") (o.enabled ())
      in
      check "off by default" (not (o.enabled ()));
      check "empty word" (word () = 0);
      o.scope outer (fun () ->
          live "outer";
          o.scope inner (fun () ->
              live "inner";
              check "inner shadows outer" (o.installed inner));
          live "after the inner scope";
          check "outer restored" (o.installed outer);
          (match o.scope inner (fun () -> raise Exit) with
          | () -> Alcotest.fail "the scope swallowed the exception"
          | exception Exit -> ());
          live "after an exception";
          check "outer restored after an exception" (o.installed outer);
          Option.iter
            (fun null ->
              o.scope null (fun () ->
                  check "null inside: bit clear" (word () = 0);
                  check "null inside: disabled" (not (o.enabled ())));
              live "after the null scope";
              check "outer restored after the null scope" (o.installed outer))
            o.null);
      check "nothing installed afterwards" (not (o.enabled ()));
      check "empty word afterwards" (word () = 0);
      (match o.scope outer (fun () -> raise Exit) with
      | () -> Alcotest.fail "the scope swallowed the exception"
      | exception Exit -> ());
      check "empty word after an exception" (word () = 0);
      check "disabled after an exception" (not (o.enabled ()));
      Option.iter
        (fun null -> o.scope null (fun () -> check "null: bit clear" (word () = 0)))
        o.null)
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

(* One event per constructor but the per-operation ones. *)
let all_kinds = Test_sink.all_kinds

let all_events = List.mapi (fun i k -> Event.make ~t:(i * 1000) k) all_kinds

let test_jsonl_roundtrip_all_constructors () =
  let back = Export.parse_jsonl (Export.jsonl all_events) in
  check_bool "every constructor round-trips" true (back = all_events);
  (* Floats without a finite decimal expansion survive the text form. *)
  let awkward = [ Event.make ~t:1 (Event.Feature_sample { name = "f"; value = 0.1 }) ] in
  check_bool "0.1 round-trips exactly" true (Export.parse_jsonl (Export.jsonl awkward) = awkward)

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
   export then leads with the overflow marker), and of Nona runs
   ([nona_runs] below).  Any change to the sink's storage, to the emitters
   or to how Flex runs a scheme must reproduce every digest; on a mismatch
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

(* The Nona rows of [trace_digests.txt]: the JSONL trace of crc32 (SEQ,
   DOACROSS, PS-DSWP) and kmeans (DOANY) compiled and launched under the
   controller, and of blackscholes under a driver that light-resizes DOANY
   and PS-DSWP and switches schemes between them.  Each run must finish
   with the reference semantics, run every scheme it is there for and
   light-resize the ones it scripts.  The last row is the sanitizer's JSON
   report over the built-in kernels at 256 iterations and a 16-loop seeded
   corpus: the bytes [parcae_demo sanitize --suite --corpus 16 --seed 1
   --json] prints. *)
module Compiler = Parcae_nona.Compiler
module Kernels = Parcae_ir.Kernels

let nona_params =
  {
    R.Controller.default_params with
    R.Controller.nseq = 8;
    poll_ns = 20_000;
    monitor_ns = 10_000_000;
    change_frac = 0.3;
  }

let under_controller eng (h : Compiler.handle) =
  ignore (R.Controller.spawn eng (R.Controller.create ~params:nona_params h.Compiler.region))

let scripted steps eng (h : Compiler.handle) =
  ignore
    (Engine.spawn eng ~name:"driver" (fun () ->
         let region = h.Compiler.region in
         List.iter
           (fun (scheme, dop) ->
             if not (R.Region.is_done region) then
               R.Executor.reconfigure region (Compiler.config_for h ~dop scheme);
             Engine.sleep 1_000_000)
           steps;
         R.Executor.await region))

(* (row, loop, driver, schemes it runs, schemes it light-resizes) *)
let nona_runs =
  [
    ( "nona-crc32-controller",
      (fun () -> Kernels.crc32 ~n:3000 ()),
      under_controller,
      [ "SEQ"; "DOACROSS"; "PS-DSWP" ],
      [] );
    ("nona-kmeans-controller", (fun () -> Kernels.kmeans ~n:3000 ()), under_controller, [ "DOANY" ], []);
    ( "nona-blackscholes-resize",
      (fun () -> Kernels.blackscholes ~n:2000 ()),
      scripted
        [ ("DOANY", 4); ("DOANY", 12); ("PS-DSWP", 6); ("PS-DSWP", 10); ("SEQ", 1); ("DOANY", 3); ("DOANY", 7) ],
      [ "SEQ"; "DOANY"; "PS-DSWP" ],
      [ "DOANY"; "PS-DSWP" ] );
  ]

let nona_digest (row, make, drive, ran, resized) =
  let c = Compiler.compile (make ()) in
  let sink = Sink.create ~capacity:1_000_000 () in
  let h =
    Trace.with_sink sink (fun () ->
        let eng = Engine.create machine in
        let h = Compiler.launch ~budget:24 eng c in
        drive eng h;
        ignore (Engine.run ~until:60_000_000_000 eng);
        h)
  in
  check_bool (row ^ ": done") true (R.Region.is_done h.Compiler.region);
  check_bool (row ^ ": semantics") true (Compiler.preserves_semantics h);
  check_int (row ^ ": the sink does not wrap") 0 (Sink.dropped sink);
  let events = Sink.events sink in
  let seen f scheme = List.exists (fun e -> f e.Event.kind = Some scheme) events in
  List.iter
    (fun s ->
      check_bool (row ^ " runs " ^ s) true
        (seen
           (function
             | Event.Region_start { scheme; _ } | Event.Resume { scheme; _ } -> Some scheme
             | _ -> None)
           s))
    ran;
  List.iter
    (fun s ->
      check_bool (row ^ " light-resizes " ^ s) true
        (seen (function Event.Dop_change { scheme; light = true; _ } -> Some scheme | _ -> None) s))
    resized;
  (row, Digest.to_hex (Digest.string (Export.jsonl_of_sink sink)))

let sanitize_digest () =
  let n = 256 in
  let named =
    Kernels.
      [
        blackscholes ~n ();
        crc32 ~n ();
        url ~n ();
        kmeans ~n ();
        histogram ~n ();
        montecarlo ~n ();
        stringsearch ~n ();
        recurrence ~n ();
      ]
  in
  check_bool "the built-in kernels, in suite order" true
    (List.map (fun (l : Parcae_ir.Loop.t) -> l.Parcae_ir.Loop.name) named
    = List.map (fun (k : Kernels.expectation) -> k.Kernels.k_name) Kernels.suite);
  let loops =
    named @ List.map (fun g -> g.Parcae_ir.Kgen.g_loop) (Parcae_ir.Kgen.corpus ~seed:1 ~n:16)
  in
  let reports = List.map (fun loop -> Parcae_nona.Sanitize.run ~dop:3 loop) loops in
  let errors =
    List.fold_left
      (fun acc r -> acc + Parcae_analysis.Diag.count_errors r.Parcae_nona.Sanitize.diags)
      0 reports
  in
  let json =
    Json.Obj
      [
        ("errors", Json.Int errors);
        ("reports", Json.List (List.map Parcae_nona.Sanitize.to_json reports));
      ]
  in
  ("sanitize-suite-corpus16", Digest.to_hex (Digest.string (Json.to_string json ^ "\n")))

(* The six observers a deployment keeps on while serving (every one but the
   race sanitizer), created fresh for one run unless given. *)
let with_serving_observers ?(spans = Obs.Span.create ~capacity:4096 ())
    ?(timeline = Obs.Timeline.create ~lanes:machine.Machine.cores ~now:0 ()) f =
  Obs.Metrics.with_registry (Obs.Metrics.create ()) @@ fun () ->
  Obs.Span.with_collector spans @@ fun () ->
  Trace.with_sink (Sink.create ()) @@ fun () ->
  Obs.Flight.with_recorder (Obs.Flight.create ()) @@ fun () ->
  Obs.Ledger.with_ledger (Obs.Ledger.create ()) @@ fun () ->
  Obs.Timeline.with_timeline timeline f

(* The digest apps served under every serving observer, pinned where no
   trace or metric digest reaches: the timeline's breakdown at the
   engine's end time, and the span collector's report followed by every
   retained record. *)
let observed_digests (app, make, mech, rate) =
  let spans = Obs.Span.create ~capacity:4096 () in
  let timeline = Obs.Timeline.create ~lanes:machine.Machine.cores ~now:0 () in
  let eng = ref None in
  with_serving_observers ~spans ~timeline (fun () ->
      ignore
        (Experiments.run_server ~m:200 ~seed:7 ~machine ~rate_per_s:rate
           ?mechanism:(List.assoc mech Experiments.mechanisms)
           ~on_start:(fun a _ -> eng := Some a.App.eng)
           ~config:`Serve make));
  let until = Engine.time (Option.get !eng) in
  let md5 s = Digest.to_hex (Digest.string s) in
  let timeline_json =
    Json.to_string (Obs.Timeline.breakdown_to_json (Obs.Timeline.breakdown timeline ~until))
  in
  let records =
    List.map
      (fun (r : Obs.Span.rec_view) ->
        Printf.sprintf "%d %d %d %d %d %d %d %d %s\n" r.rv_id r.rv_end_ns r.rv_total r.rv_queue
          r.rv_chan r.rv_compute r.rv_reconfig r.rv_gc
          (String.concat "," (Array.to_list (Array.map string_of_int r.rv_stage_ns))))
      (Obs.Span.records spans)
  in
  check_int (app ^ ": the collector keeps every span") 200 (List.length records);
  let row what = Printf.sprintf "%s-%s-observed-%s" app mech what in
  [
    (row "timeline", md5 timeline_json);
    (row "spans", md5 (String.concat "" (Json.to_string (Obs.Span.report_json spans) :: "\n" :: records)));
  ]

let test_trace_digests () =
  check_digest_table trace_digest_file
    (List.map
       (fun (name, run, capacity) ->
         let d, dropped = digest_run run ~capacity in
         check_bool (name ^ ": the sink wraps iff it is the small one") (capacity = 1_000)
           (dropped > 0);
         (name, d))
       digest_cases
    @ List.map nona_digest nona_runs
    @ [ sanitize_digest () ]
    @ List.concat_map observed_digests digest_apps)

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

(* ------------------ observer scopes swapped mid-run ------------------ *)

(* One part of a run: a registry, a sink and a timeline installed while
   [f] advances the engine, the timeline starting at the engine's clock. *)
type part = { reg : Obs.Metrics.t; sink : Sink.t; tl : Obs.Timeline.t; until : int }

let observe_part eng f =
  let reg = Obs.Metrics.create () and sink = Sink.create ~capacity:1_000_000 () in
  let tl = Obs.Timeline.create ~lanes:machine.Machine.cores ~now:(Engine.time eng) () in
  Obs.Metrics.with_registry reg (fun () ->
      Trace.with_sink sink (fun () -> Obs.Timeline.with_timeline tl f));
  { reg; sink; tl; until = Engine.time eng }

(* Counter series of [family] in [reg], keyed by their label values. *)
let counters reg family =
  List.concat_map
    (fun (f : Obs.Metrics.fam_snapshot) ->
      if f.Obs.Metrics.name <> family then []
      else
        List.map
          (fun (s : Obs.Metrics.sample) ->
            ( String.concat "/" (List.map snd s.Obs.Metrics.labels),
              match s.Obs.Metrics.value with Obs.Metrics.Counter_v n -> n | _ -> -1 ))
          f.Obs.Metrics.samples)
    (Obs.Metrics.snapshot reg)

(* A ferret serve (seed 7, 200 requests from the serve configuration),
   advanced to 250 ms of virtual time and then to its horizon: [parts]
   observes both legs, each in its own scope or in one. *)
let ferret_in_two_legs parts =
  let eng = Experiments.make_engine machine in
  let budget = Experiments.engine_budget eng machine in
  let app = Ferret.make ~budget eng in
  let region =
    R.Executor.launch ~budget ~name:app.App.name eng app.App.schemes
      (Experiments.start_config app `Serve) ~on_pause:app.App.on_pause
      ~on_reset:app.App.on_reset
  in
  ignore
    (Load_gen.spawn_generator ~rng:(Parcae_util.Rng.create 7) ~rate_per_s:400.0 ~m:200
       ~queue:app.App.queue ~metrics:app.App.metrics eng);
  let leg until () = ignore (Engine.run ~until eng) in
  let observed = parts eng (leg 250_000_000) (leg 60_000_000_000) in
  check_int "every request completes" 200 (Metrics.completed app.App.metrics);
  let iters =
    let d = R.Region.decima region in
    List.init (R.Decima.task_count d) (R.Decima.iters d) |> List.fold_left ( + ) 0
  in
  let queue_sent = Chan.total_sent app.App.queue in
  Engine.shutdown eng;
  (observed, iters, queue_sent)

(* Registry, sink and timeline A for the first leg and B for the second
   split every count exactly: each channel's sends and Decima's
   iterations in A plus B are the run's totals, A's events followed by
   B's are the one-sink trace, and each timeline partitions its own wall
   time.  Channels and Decima rebind their handles to B on their first
   operation after the swap. *)
let test_scopes_swapped_mid_run () =
  let (a, b), iters, queue_sent =
    ferret_in_two_legs (fun eng first second ->
        let a = observe_part eng first in
        (a, observe_part eng second))
  in
  let ref_parts, ref_iters, _ =
    ferret_in_two_legs (fun eng first second ->
        observe_part eng (fun () ->
            first ();
            second ()))
  in
  let whole = ref_parts in
  check_int "the split run and the whole run iterate alike" ref_iters iters;
  check_int "no sink wraps" 0 (Sink.dropped a.sink + Sink.dropped b.sink + Sink.dropped whole.sink);
  check_string "A's events then B's are the one-sink trace"
    (Export.jsonl_of_sink whole.sink)
    (Export.jsonl (Sink.events a.sink @ Sink.events b.sink));
  (* Every item a channel sends is one Chan_send event numbered by the
     channel's send count, so a part's trace counts each channel's sends
     in that part. *)
  let traced p =
    let t = Hashtbl.create 8 in
    List.iter
      (fun e ->
        match e.Event.kind with
        | Event.Chan_send_ev { chan; _ } ->
            Hashtbl.replace t chan (1 + Option.value ~default:0 (Hashtbl.find_opt t chan))
        | _ -> ())
      (Sink.events p.sink);
    t
  in
  let total = traced whole in
  check_int "the work queue's sends, traced" queue_sent (Hashtbl.find total "work-queue");
  let sends p = counters p.reg "parcae_chan_sends_total" in
  let in_ p key = Option.value ~default:0 (List.assoc_opt key p) in
  check_int "channels counted" (Hashtbl.length total) (List.length (sends whole));
  List.iter
    (fun (name, p) ->
      let t = traced p in
      Hashtbl.iter
        (fun chan _ ->
          check_int (Printf.sprintf "%s: sends in %s" chan name)
            (Option.value ~default:0 (Hashtbl.find_opt t chan))
            (in_ (sends p) chan))
        total)
    [ ("A", a); ("B", b) ];
  Hashtbl.iter
    (fun chan n ->
      check_int (chan ^ ": sends in A plus B") n (in_ (sends a) chan + in_ (sends b) chan))
    total;
  let it p = counters p.reg "parcae_decima_iters_total" in
  check_bool "both legs iterate" true (it a <> [] && it b <> []);
  List.iter
    (fun (key, n) -> check_int (key ^ ": iterations in A plus B") n (in_ (it a) key + in_ (it b) key))
    (it whole);
  check_int "Decima's iterations in A plus B" iters
    (List.fold_left (fun acc (_, n) -> acc + n) 0 (it a @ it b));
  List.iter
    (fun p ->
      Array.iter
        (fun (bd : Obs.Timeline.lane_breakdown) ->
          check_int "a lane's states sum to its wall" bd.Obs.Timeline.wall_ns
            (Array.fold_left ( + ) 0 bd.Obs.Timeline.by_state))
        (Obs.Timeline.breakdown p.tl ~until:p.until))
    [ a; b; whole ];
  check_int "A's wall ends at the split" 250_000_000 a.until

(* ------------------- allocation of the observer hooks --------------- *)

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* A typed emit into a full ring writes a row in place: 10 000 of them,
   each overwriting the oldest event and counting the drop in the
   registry, allocate nothing beyond what the measurement itself does.
   Channel events go through the channel's bound name id, as
   [Chan_obs] writes them. *)
let test_typed_emits_allocate_nothing () =
  let s = Sink.create ~capacity:1024 () in
  let q = Sink.intern s "q" in
  Obs.Metrics.with_registry (Obs.Metrics.create ()) @@ fun () ->
  Trace.with_sink s @@ fun () ->
  let emit i =
    match i mod 6 with
    | 0 -> Sink.chan_items s ~recv:false ~t:i ~chan:q ~seq:i ~k:1 ~task:1 ~busy_ns:i
    | 1 -> Sink.chan_items s ~recv:true ~t:i ~chan:q ~seq:i ~k:1 ~task:2 ~busy_ns:i
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
    Alcotest.test_case "sink: null sink disables tracing" `Quick test_null_sink_disabled;
    Alcotest.test_case "observers: scopes nest and restore" `Quick test_observer_scopes;
    Alcotest.test_case "sink: saturated ring accounts for drops" `Quick
      test_saturated_ring_accounting;
    Alcotest.test_case "export: JSONL round-trips all constructors" `Quick
      test_jsonl_roundtrip_all_constructors;
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
    Alcotest.test_case "observers: scopes swapped mid-run split every count" `Quick
      test_scopes_swapped_mid_run;
    Alcotest.test_case "sink: typed emits into a full ring allocate nothing" `Quick
      test_typed_emits_allocate_nothing;
    Alcotest.test_case "observers: serving observed allocates little more than bare" `Quick
      test_observed_serve_allocation;
    Alcotest.test_case "decima: hook edge cases" `Quick test_decima_hook_edges;
  ]
