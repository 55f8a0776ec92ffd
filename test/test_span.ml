(* Request-span tracing and the tail-latency observatory (DESIGN.md
   section 15).

   The HDR histogram is checked against exact order statistics (qcheck):
   every quantile estimate must sit within the bucket's relative-error
   bound of the true ranked value, and merging histograms must equal the
   histogram of the concatenated observations.  The span side hammers a
   drain_stage pipeline with repeated DoP changes on both backends and
   asserts the accounting invariant the design promises: every retained
   record's five phases sum to its total exactly, with every request
   completed exactly once — also under pooled record reuse with stale
   tokens, double finishes, and ring overflow.  The HTTP exposition
   server gets a golden-response check and a concurrent-scrape smoke. *)

open Parcae_sim
module Engine = Parcae_platform.Engine
module Chan = Parcae_platform.Chan
module Obs = Parcae_obs
module Span = Parcae_obs.Span
module Hdr = Parcae_obs.Hdr
open Parcae_core
open Parcae_runtime

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- HDR histogram vs exact order statistics (qcheck) ---- *)

let ladder = [ 0.5; 0.9; 0.99; 0.999 ]

let exact_quantile sorted q =
  let n = Array.length sorted in
  let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
  sorted.(rank - 1)

(* Buckets are at most 1/128 of their value wide, so the
   estimate (a bucket upper bound clamped to the observed max) can sit at
   most value/128 + 1 above the exact ranked value, and never below it. *)
let prop_hdr_error_bound =
  QCheck.Test.make ~name:"hdr quantiles within the relative-error bound" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 400) (int_range 0 2_000_000_000))
    (fun xs ->
      QCheck.assume (xs <> []);
      let h = Hdr.create () in
      List.iter (Hdr.observe h) xs;
      let sorted = Array.of_list (List.sort compare xs) in
      List.for_all
        (fun q ->
          let exact = exact_quantile sorted q in
          let est = Hdr.quantile h q in
          exact <= est && est <= exact + (exact / 128) + 1)
        ladder)

let prop_hdr_merge =
  QCheck.Test.make ~name:"hdr merge equals histogram of the concatenation" ~count:200
    QCheck.(pair (small_list (int_range 0 10_000_000)) (small_list (int_range 0 10_000_000)))
    (fun (xs, ys) ->
      let a = Hdr.create () and b = Hdr.create () and all = Hdr.create () in
      List.iter (Hdr.observe a) xs;
      List.iter (Hdr.observe b) ys;
      List.iter (Hdr.observe all) (xs @ ys);
      Hdr.merge ~into:a b;
      Hdr.count a = Hdr.count all
      && Hdr.sum a = Hdr.sum all
      && List.for_all (fun q -> Hdr.quantile a q = Hdr.quantile all q) ladder)

(* ---- phase-sum invariant under the reconfigure hammer ---- *)

(* The batched pipeline from the pool tests, with spans attached: one
   preallocated span per item, reset at production, stamped through both
   drain stages, finished at the tail.  The invariant checked afterwards
   is the design's central claim: queue + chan + compute + reconfig + gc
   equals end minus arrival exactly, per record, under live DoP changes. *)
let make_span_pipeline ?(work = 2_000) eng n =
  let spans = Array.init n (fun _ -> Span.make_span ()) in
  let clock () = Engine.time eng in
  let span_of v = spans.(v) in
  let q1 = Chan.create ~capacity:8 eng "sq1" and q2 = Chan.create ~capacity:8 eng "sq2" in
  let produced = ref 0 and consumed = ref 0 in
  let produce =
    Pipeline.source ~name:"produce"
      ~forward:(Pipeline.forward_to q1)
      (fun _ctx ->
        if !produced >= n then Task_status.Complete
        else begin
          Engine.compute (work / 4);
          Span.reset spans.(!produced) ~id:!produced ~arrival_ns:(clock ());
          Pipeline.send q1 !produced;
          incr produced;
          Task_status.Iterating
        end)
  in
  let transform =
    Pipeline.drain_stage ~name:"transform" ~input:q1 ~load:(Pipeline.load q1)
      ~next:q2
      ~forward:(Pipeline.forward_to q2)
      ~span_of ~span_clock:clock
      (fun ctx _v ->
        ctx.Task.hook_begin ();
        Engine.compute work;
        ctx.Task.hook_end ();
        Task_status.Iterating)
  in
  let consume =
    Pipeline.drain_stage ~ttype:Task.Seq ~name:"consume" ~input:q2
      ~forward:(fun _ -> ())
      ~span_of ~span_clock:clock
      (fun _ctx v ->
        incr consumed;
        Span.finish spans.(v) ~now:(clock ());
        Task_status.Iterating)
  in
  let pd =
    Task.descriptor ~name:"spanned"
      [ produce.Pipeline.task; transform.Pipeline.task; consume.Pipeline.task ]
  in
  let on_reset =
    Pipeline.make_reset ~stages:[ produce; transform; consume ] ~channels:[ q1; q2 ]
  in
  (* The flush-sentinel pause protocol (like the real apps' on_pause):
     stages park at the Flush instead of draining the whole backlog, so
     items behind it stay queued across the pause — the in-flight spans
     whose waits the Reconfig carving re-attributes. *)
  let on_pause () = Pipeline.inject_flush q1 in
  (pd, on_reset, on_pause, consumed)

let config dop = Config.make [ Config.seq_task; Config.task dop; Config.seq_task ]

let check_phase_sums ~n sc =
  check_int "all spans completed" n (Span.completed sc);
  check_int "no double finishes" 0 (Span.double_finishes sc);
  check_int "no drops" 0 (Span.drops sc);
  let records = Span.records sc in
  check_int "all records retained" n (List.length records);
  List.iter
    (fun (rv : Span.rec_view) ->
      check_int
        (Printf.sprintf "request %d: phases sum to total" rv.Span.rv_id)
        rv.Span.rv_total
        (rv.Span.rv_queue + rv.Span.rv_chan + rv.Span.rv_compute + rv.Span.rv_reconfig
       + rv.Span.rv_gc);
      check_bool
        (Printf.sprintf "request %d: no negative phase" rv.Span.rv_id)
        true
        (rv.Span.rv_queue >= 0 && rv.Span.rv_chan >= 0 && rv.Span.rv_compute >= 0
        && rv.Span.rv_reconfig >= 0 && rv.Span.rv_gc >= 0))
    records

let test_phase_sum_reconfigure_sim () =
  let machine =
    { (Machine.test_machine ~cores:8 ()) with Machine.ctx_switch = 0; chan_op = 5 }
  in
  let eng = Engine.create machine in
  let n = 400 in
  let sc = Span.create ~capacity:(2 * n) () in
  Span.with_collector sc (fun () ->
      let pd, on_reset, on_pause, consumed = make_span_pipeline eng n in
      let _ =
        Engine.spawn eng ~name:"driver" (fun () ->
            let r = Executor.launch ~name:"s" eng [ pd ] ~on_reset ~on_pause (config 1) in
            let dop = ref 1 in
            while not (Region.is_done r) do
              (* A DoP-only change takes the light-resize path (no stall);
                 the explicit pause/hold/resume cycle forces full barriers
                 so the Reconfig carving is actually exercised. *)
              Engine.sleep 20_000;
              dop := (!dop mod 6) + 1;
              Executor.reconfigure r (config !dop);
              Engine.sleep 20_000;
              if Executor.pause r then begin
                Engine.sleep 5_000;
                Executor.resume r
              end
            done)
      in
      ignore (Engine.run eng);
      check_int "all consumed" n !consumed);
  check_phase_sums ~n sc;
  (* The hammer reconfigures throughout the run, so the stall accounting
     must actually have carved a reconfig phase somewhere. *)
  check_bool "some reconfig stall attributed" true
    (List.exists (fun (rv : Span.rec_view) -> rv.Span.rv_reconfig > 0) (Span.records sc))

let test_phase_sum_reconfigure_native () =
  let eng = Engine.create_native ~pool:3 () in
  let n = 120 in
  let sc = Span.create ~capacity:(2 * n) () in
  Span.with_collector sc (fun () ->
      let pd, on_reset, on_pause, consumed = make_span_pipeline ~work:200_000 eng n in
      let region =
        Executor.launch ~budget:3 ~name:"s" eng [ pd ] ~on_reset ~on_pause (config 1)
      in
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
      check_int "all consumed" n !consumed);
  check_phase_sums ~n sc

(* ---- exactly-once completion under pooled record reuse ---- *)

let test_exactly_once_reuse () =
  let sc = Span.create () in
  Span.with_collector sc (fun () ->
      let sp = Span.make_span () in
      (* Life 1: normal flow, then a double finish. *)
      Span.reset sp ~id:1 ~arrival_ns:0;
      let tok = Span.enter sp ~now:10 in
      Span.exit sp ~token:tok ~now:25;
      Span.finish sp ~now:30;
      check_int "first finish lands" 1 (Span.completed sc);
      Span.finish sp ~now:40;
      check_int "double finish is dropped" 1 (Span.completed sc);
      check_int "double finish is counted" 1 (Span.double_finishes sc);
      (* Life 2: pooled reuse — the life-1 token must be stale. *)
      Span.reset sp ~id:2 ~arrival_ns:100;
      Span.exit sp ~token:tok ~now:150;
      let tok2 = Span.enter sp ~now:110 in
      Span.exit sp ~token:tok2 ~now:130;
      Span.finish sp ~now:140;
      check_int "reused record completes once more" 2 (Span.completed sc));
  match Span.records sc with
  | [ r1; r2 ] ->
      check_int "life 1 total" 30 r1.Span.rv_total;
      check_int "life 1 queue" 10 r1.Span.rv_queue;
      check_int "life 1 compute" 15 r1.Span.rv_compute;
      check_int "life 1 stage0 segment" 15 r1.Span.rv_stage_ns.(0);
      check_int "life 2 total" 40 r2.Span.rv_total;
      check_int "life 2 compute (stale exit ignored)" 20 r2.Span.rv_compute;
      check_int "life 2 phase sum" r2.Span.rv_total
        (r2.Span.rv_queue + r2.Span.rv_chan + r2.Span.rv_compute + r2.Span.rv_reconfig
       + r2.Span.rv_gc)
  | rs -> Alcotest.failf "expected 2 records, got %d" (List.length rs)

(* ---- the shared null span is inert, even with a collector installed ----

   A record minted while tracing was disabled still carries [Span.null]
   after a mid-run enable; every hook must skip it physically — no
   mutation, no completion, no double-finish pollution. *)

let test_null_span_inert () =
  let sc = Span.create () in
  Span.with_collector sc (fun () ->
      let sp = Span.null in
      Span.reset sp ~id:9 ~arrival_ns:0;
      let tok = Span.enter sp ~now:10 in
      Span.exit sp ~token:tok ~now:25;
      Span.finish sp ~now:30;
      check_int "null finish publishes nothing" 0 (Span.completed sc);
      check_int "null finish is not a double finish" 0 (Span.double_finishes sc);
      check_int "null span id untouched" (-1) sp.Span.s_id;
      check_int "null span accumulates nothing" 0
        (sp.Span.s_queue_ns + sp.Span.s_chan_ns + sp.Span.s_compute_ns);
      check_bool "null span stays closed" false sp.Span.s_open)

(* ---- collector scopes nest ---- *)

let test_nested_collectors () =
  let outer = Span.create () and inner = Span.create () in
  let installed t = match Span.get () with Some c -> c == t | None -> false in
  Span.with_collector outer (fun () ->
      Span.with_collector inner (fun () ->
          check_bool "inner installed" true (installed inner));
      check_bool "outer restored" true (installed outer));
  check_bool "nothing installed after the outer scope" false (Span.enabled ())

(* ---- ring overflow never corrupts the quantiles ---- *)

let test_overflow_keeps_quantiles () =
  let sink = Obs.Sink.create ~capacity:1024 () in
  let sc = Span.create ~capacity:8 () in
  let n = 100 in
  Obs.Trace.with_sink sink (fun () ->
      Span.with_collector sc (fun () ->
          let sp = Span.make_span () in
          for i = 1 to n do
            Span.reset sp ~id:i ~arrival_ns:0;
            Span.finish sp ~now:(i * 1000)
          done));
  check_int "all completions counted" n (Span.completed sc);
  check_int "overflow drops counted" (n - 8) (Span.drops sc);
  check_int "ring keeps the last capacity records" 8 (List.length (Span.records sc));
  (* The HDR distribution saw every completion, so the quantiles must
     reflect all 100 totals (1000..100000), not the 8 survivors. *)
  List.iter
    (fun q ->
      let exact = int_of_float (ceil (q *. float_of_int n)) * 1000 in
      let est = Span.quantile_ns sc q in
      check_bool
        (Printf.sprintf "overflowed q=%g stays exact-ish (%d vs %d)" q est exact)
        true
        (exact <= est && est <= exact + (exact / 128) + 1))
    ladder;
  (* The first drop emits the trace marker, mirroring the sink's own
     overflow treatment. *)
  let overflows =
    List.filter
      (fun (e : Obs.Event.t) ->
        match e.Obs.Event.kind with Obs.Event.Span_overflow _ -> true | _ -> false)
      (Obs.Sink.events sink)
  in
  check_int "one span-overflow marker" 1 (List.length overflows)

(* ---- the offline SLO check ---- *)

(* N = 1000 synthetic requests, [over] of them at 2T and the rest at T/2.
   The rule is "more than a fraction F of requests took longer than T":
   exactly floor(F*N) over the target passes, one more breaches. *)
let test_latency_slo_rule () =
  let module Latency = Parcae_workloads.Latency in
  let module Diag = Parcae_analysis.Diag in
  let n = 1000 and target_ns = 10_000_000 in
  let collector over =
    let sc = Span.create () in
    Span.with_collector sc (fun () ->
        let sp = Span.make_span () in
        for i = 0 to n - 1 do
          Span.reset sp ~id:i ~arrival_ns:0;
          Span.finish sp ~now:(if i < over then 2 * target_ns else target_ns / 2)
        done);
    sc
  in
  let l100 ?slo sc =
    List.filter
      (fun (d : Diag.t) -> d.Diag.code = "L100")
      (Latency.analyze ?slo sc).Latency.r_findings
  in
  List.iter
    (fun budget ->
      let allowed = int_of_float (budget *. float_of_int n) in
      let slo = (target_ns, budget) in
      check_int
        (Printf.sprintf "F=%g, %d over: no L100" budget allowed)
        0
        (List.length (l100 ~slo (collector allowed)));
      match l100 ~slo (collector (allowed + 1)) with
      | [ d ] ->
          check_bool
            (Printf.sprintf "F=%g, %d over: L100 is an error" budget (allowed + 1))
            true (d.Diag.severity = Diag.Error)
      | ds -> Alcotest.failf "F=%g: expected one L100, got %d" budget (List.length ds))
    [ 0.001; 0.01; 0.0125; 0.05 ];
  check_int "no ~slo: no L100" 0 (List.length (l100 (collector n)))

(* ---- HTTP exposition endpoint ---- *)

(* A tiny blocking GET against 127.0.0.1:port; returns (status, body). *)
let http_get port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Printf.sprintf "GET %s HTTP/1.1\r\nHost: test\r\n\r\n" path in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 1024 in
      let rec drain () =
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        end
      in
      (try drain () with Unix.Unix_error _ -> ());
      let s = Buffer.contents buf in
      let status =
        try Scanf.sscanf s "HTTP/1.1 %d" Fun.id with Scanf.Scan_failure _ | End_of_file -> 0
      in
      let body =
        let rec find i =
          if i + 4 > String.length s then ""
          else if String.sub s i 4 = "\r\n\r\n" then
            String.sub s (i + 4) (String.length s - i - 4)
          else find (i + 1)
        in
        find 0
      in
      (status, body))

(* One collector + registry with a known span, served over the real
   socket stack: golden body for /healthz, the summary families present
   in /metrics, a parseable /latency.json, and 404/405 handling. *)
let test_http_endpoint_golden () =
  let reg = Obs.Metrics.create () in
  let sc = Span.create () in
  Obs.Metrics.with_registry reg (fun () ->
      Span.with_collector sc (fun () ->
          let sp = Span.make_span () in
          Span.reset sp ~id:7 ~arrival_ns:0;
          let tok = Span.enter sp ~now:200 in
          Span.exit sp ~token:tok ~now:900;
          Span.finish sp ~now:1000));
  let routes =
    [
      ( "/metrics",
        fun () ->
          Obs.Httpd.ok ~content_type:"text/plain; version=0.0.4"
            (Obs.Metrics.to_prometheus reg) );
      ("/healthz", fun () -> Obs.Httpd.ok "ok\n");
      ( "/latency.json",
        fun () ->
          Obs.Httpd.ok ~content_type:"application/json"
            (Obs.Json.to_string (Span.report_json sc)) );
    ]
  in
  let srv = Obs.Httpd.start ~port:0 ~routes () in
  Fun.protect
    ~finally:(fun () -> Obs.Httpd.stop srv)
    (fun () ->
      let port = Obs.Httpd.port srv in
      let status, body = http_get port "/healthz" in
      check_int "healthz status" 200 status;
      Alcotest.(check string) "healthz body" "ok\n" body;
      let status, body = http_get port "/metrics" in
      check_int "metrics status" 200 status;
      let contains hay needle =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      check_bool "latency summary exported" true
        (contains body "# TYPE parcae_request_latency_ns summary");
      check_bool "phase summary exported" true
        (contains body "parcae_request_phase_ns{phase=\"queue\",quantile=\"0.5\"}");
      check_bool "count series exported" true
        (contains body "parcae_request_latency_ns_count 1");
      let status, body = http_get port "/latency.json" in
      check_int "latency.json status" 200 status;
      check_bool "latency.json completed field" true (contains body "\"completed\":1");
      let status, _ = http_get port "/nope" in
      check_int "unknown path is 404" 404 status)

let test_http_concurrent_scrape () =
  let hits = Atomic.make 0 in
  let routes = [ ("/healthz", fun () -> Atomic.incr hits; Obs.Httpd.ok "ok\n") ] in
  let srv = Obs.Httpd.start ~port:0 ~routes () in
  Fun.protect
    ~finally:(fun () -> Obs.Httpd.stop srv)
    (fun () ->
      let port = Obs.Httpd.port srv in
      let failures = Atomic.make 0 in
      let scraper () =
        for _ = 1 to 20 do
          let status, body = http_get port "/healthz" in
          if status <> 200 || body <> "ok\n" then Atomic.incr failures
        done
      in
      let threads = List.init 4 (fun _ -> Thread.create scraper ()) in
      List.iter Thread.join threads;
      check_int "every concurrent scrape succeeded" 0 (Atomic.get failures);
      check_int "every scrape hit the handler" 80 (Atomic.get hits))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_hdr_error_bound;
    QCheck_alcotest.to_alcotest prop_hdr_merge;
    Alcotest.test_case "span: phase sums under reconfigure hammer (sim)" `Quick
      test_phase_sum_reconfigure_sim;
    Alcotest.test_case "span: phase sums under reconfigure hammer (native)" `Slow
      test_phase_sum_reconfigure_native;
    Alcotest.test_case "span: exactly-once with pooled reuse" `Quick test_exactly_once_reuse;
    Alcotest.test_case "span: null span is inert under a collector" `Quick
      test_null_span_inert;
    Alcotest.test_case "span: collector scopes nest" `Quick test_nested_collectors;
    Alcotest.test_case "span: ring overflow keeps quantiles exact" `Quick
      test_overflow_keeps_quantiles;
    Alcotest.test_case "httpd: golden responses" `Quick test_http_endpoint_golden;
    Alcotest.test_case "httpd: concurrent scrape smoke" `Quick test_http_concurrent_scrape;
    Alcotest.test_case "latency: SLO check follows the budget rule" `Quick
      test_latency_slo_rule;
  ]
