(* parcae_demo: command-line driver for the Parcae system.

   Subcommands:
     serve    — run a server workload under a mechanism at a load factor
     top      — serve with a live metrics dashboard on the virtual clock
     batch    — run a batch workload under a mechanism, report throughput
     compile  — compile an IR kernel with Nona and show PDG/SCC/pipeline
     run      — execute a compiled kernel under the closed-loop controller
     doctor   — sweep DoP on a known pipeline and diagnose the scaling curve
     latency  — attribute tail-latency quantiles to phases via request spans

   Examples:
     parcae_demo serve -a x264 -m wq-linear -l 0.8 --metrics-out m.prom
     parcae_demo serve -a ferret -m tbf --listen 127.0.0.1:9090 --linger 30
     parcae_demo top -a ferret -m static -i 2
     parcae_demo batch -a ferret -m tbf --profile-out ferret.folded
     parcae_demo compile -k crc32
     parcae_demo run -k kmeans --budget 12
     parcae_demo doctor --backend native --json
     parcae_demo latency -a ferret -m tbf --slo-ms 500 --json *)

open Cmdliner
open Parcae_sim
open Parcae_workloads

(* The demo drives everything through the platform layer so one binary can
   execute on either backend; [Machine] and [Power] stay sim modules. *)
module Engine = Parcae_platform.Engine
module R = Parcae_runtime
module Config = Parcae_core.Config
module Obs = Parcae_obs
module Diag = Parcae_analysis.Diag

(* ------------------------------------------------------------------ *)
(* Shared argument definitions.                                        *)
(* ------------------------------------------------------------------ *)

(* Name-keyed tables back the enumerated arguments: cmdliner rejects an
   unknown name as a usage error (exit 124) before any command runs, so
   the lookups below cannot miss. *)
let names table = List.map (fun (n, _) -> (n, n)) table

(* Numeric arguments are range-checked the same way: a value no run can
   use is a usage error, not an exception out of the run. *)
let checked_conv parse print ok what =
  let parse s =
    match parse s with
    | Some v when ok v -> Ok v
    | _ -> Error (`Msg (Printf.sprintf "%S is not %s" s what))
  in
  Arg.conv (parse, print)

let positive_int =
  checked_conv int_of_string_opt Format.pp_print_int (fun n -> n > 0) "a positive integer"

let non_negative_int =
  checked_conv int_of_string_opt Format.pp_print_int (fun n -> n >= 0) "a non-negative integer"

let positive_float =
  checked_conv float_of_string_opt Format.pp_print_float
    (fun f -> f > 0.0 && Float.is_finite f)
    "a positive finite number"

let non_negative_float =
  checked_conv float_of_string_opt Format.pp_print_float
    (fun f -> f >= 0.0 && Float.is_finite f)
    "a non-negative finite number"

let fraction =
  checked_conv float_of_string_opt Format.pp_print_float
    (fun f -> f >= 0.0 && f <= 1.0)
    "a fraction between 0 and 1"

let machine_arg =
  let doc = "Simulated platform: xeon24 (Intel Xeon X7460) or xeon8 (Intel Xeon E5310)." in
  let machines = [ ("xeon24", Machine.xeon_x7460); ("xeon8", Machine.xeon_e5310) ] in
  Arg.(
    value & opt (enum machines) Machine.xeon_x7460 & info [ "machine" ] ~docv:"MACHINE" ~doc)

(* The execution backend, with --pool folded into the native case. *)
let backend_arg : Experiments.backend Term.t =
  let doc =
    "Execution backend: sim (the deterministic simulator with $(b,--machine)'s cost \
     model) or native (OCaml 5 domains on the host's real cores; $(b,--machine) then \
     only sizes budgets)."
  in
  let backend =
    Arg.(
      value
      & opt (enum [ ("sim", `Sim); ("native", `Native) ]) `Sim
      & info [ "backend" ] ~docv:"BACKEND" ~doc)
  in
  let pool =
    let doc = "Domain-pool size for the native backend (default: host cores - 1)." in
    Arg.(value & opt (some positive_int) None & info [ "pool" ] ~docv:"N" ~doc)
  in
  Term.(
    const (fun backend pool -> match backend with `Sim -> `Sim | `Native -> `Native pool)
    $ backend
    $ pool)

let seed_arg =
  let doc = "Random seed for the load generator." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let budget_arg =
  let doc = "Thread budget for the region (defaults to the machine's cores)." in
  Arg.(value & opt (some positive_int) None & info [ "budget" ] ~docv:"N" ~doc)

let load_arg =
  let doc = "Load factor (arrival rate / max sustainable throughput)." in
  Arg.(value & opt positive_float 0.8 & info [ "l"; "load" ] ~docv:"LOAD" ~doc)

let requests_arg =
  let doc = "Number of requests to process." in
  Arg.(value & opt positive_int 500 & info [ "n"; "requests" ] ~docv:"N" ~doc)

let file_arg =
  let doc = "Parse the loop from a .loop source file instead of a built-in kernel." in
  Arg.(value & opt (some file) None & info [ "f"; "file" ] ~docv:"FILE" ~doc)

(* An optional output file.  The path is opened (and truncated) while the
   arguments are evaluated, so an unwritable path fails in one line with
   exit 1 before the run, not with an uncaught exception after it. *)
let out_file_arg long ~doc =
  let writable = function
    | Some path as out -> (
        match open_out path with
        | oc ->
            close_out oc;
            out
        | exception Sys_error m ->
            prerr_endline ("parcae_demo: cannot write --" ^ long ^ ": " ^ m);
            exit 1)
    | None -> None
  in
  let path = Arg.(value & opt (some string) None & info [ long ] ~docv:"FILE" ~doc) in
  Term.(const writable $ path)

let trace_arg =
  out_file_arg "trace"
    ~doc:
      "Record a runtime event trace and write it to $(docv) in Chrome trace_event JSON \
       (load it in Perfetto or chrome://tracing)."

(* Run [f] with tracing directed at a fresh sink, then export the trace as
   a Chrome trace_event file and report the oracle's verdict on it. *)
let with_trace ?require_flush ?check_budget path f =
  match path with
  | None -> f ()
  | Some file ->
      let sink = Obs.Sink.create ~capacity:1_000_000 () in
      let result = Obs.Trace.with_sink sink f in
      let events = Obs.Sink.events sink in
      (* [chrome_of_sink] prepends a trace-overflow marker carrying the
         ring's drop count, so saturated recordings are self-describing. *)
      Obs.Export.write_file file (Obs.Export.chrome_of_sink sink);
      Printf.printf "\ntrace: wrote %d events to %s" (List.length events) file;
      if Obs.Sink.dropped sink > 0 then
        Printf.printf " (ring overflowed: %d oldest events dropped)" (Obs.Sink.dropped sink);
      print_newline ();
      (match Obs.Oracle.check ?require_flush ?check_budget events with
      | Ok st ->
          Printf.printf
            "oracle: OK (%d regions, %d ctrl transitions, %d pauses, %d DoP changes, %d flushes)\n"
            st.Obs.Oracle.regions st.Obs.Oracle.ctrl_transitions st.Obs.Oracle.pauses
            st.Obs.Oracle.dop_changes st.Obs.Oracle.flushes
      | Error vs ->
          Printf.printf "oracle: %d violation(s)\n%s\n" (List.length vs)
            (Obs.Oracle.violations_to_string vs));
      result

let flight_out_arg =
  out_file_arg "flight-out"
    ~doc:
      "Record the controller flight log — one JSONL decision per controller/daemon/morta \
       epoch plus reconfiguration overhead entries — to $(docv).  Inspect it with \
       $(b,parcae_demo explain)."

(* The replay verdict, shared by recording (--flight-out) and [explain]. *)
let print_replay (rr : Obs.Flight.replay_result) =
  if rr.Obs.Flight.mismatches = [] then
    Printf.printf "replay: OK (%d decisions reproduce the recorded moves)\n"
      rr.Obs.Flight.decisions
  else begin
    Printf.printf "replay: %d mismatch(es)\n" (List.length rr.Obs.Flight.mismatches);
    List.iter
      (fun (epoch, what) -> Printf.printf "  epoch %d: %s\n" epoch what)
      rr.Obs.Flight.mismatches
  end

(* Run [f] with a flight recorder installed, then write the JSONL log and
   immediately replay it: a recording whose replay diverges would be useless
   as a regression reference, so the divergence is reported at record time. *)
let with_flight path f =
  match path with
  | None -> f ()
  | Some file ->
      let rc = Obs.Flight.create () in
      let result = Obs.Flight.with_recorder rc f in
      let entries = Obs.Flight.entries rc in
      Obs.Export.write_file file (Obs.Flight.to_jsonl entries);
      let decisions =
        List.length
          (List.filter (function Obs.Flight.Decision _ -> true | _ -> false) entries)
      in
      Printf.printf "flight: wrote %d decisions, %d overhead entries to %s\n" decisions
        (List.length entries - decisions)
        file;
      print_replay (Obs.Flight.replay entries);
      result

let metrics_out_arg =
  out_file_arg "metrics-out"
    ~doc:
      "Write a final metrics snapshot to $(docv): Prometheus text format 0.0.4, or a JSON \
       document when $(docv) ends in .json."

let profile_out_arg =
  out_file_arg "profile-out"
    ~doc:
      "Write a folded-stack compute profile (region;scheme;task lines) to $(docv) — feed \
       it to flamegraph.pl or speedscope."

let write_metrics_file reg file =
  let json = Filename.check_suffix file ".json" in
  let data = if json then Obs.Metrics.to_json_string reg else Obs.Metrics.to_prometheus reg in
  Obs.Export.write_file file data;
  Printf.printf "metrics: wrote %s snapshot (%d families) to %s\n"
    (if json then "JSON" else "Prometheus")
    (List.length (Obs.Metrics.snapshot reg))
    file

let write_profile_file reg file =
  let folded = Obs.Profile.folded reg in
  Obs.Export.write_file file folded;
  Printf.printf "profile: wrote %d stacks to %s\n"
    (List.length (Obs.Profile.parse folded))
    file

(* Run [f] with a fresh metrics registry installed when any metrics output
   was requested (mirrors [with_trace]); dump the requested files after. *)
let with_metrics ?metrics_out ?profile_out f =
  match (metrics_out, profile_out) with
  | None, None -> f ()
  | _ ->
      let reg = Obs.Metrics.create () in
      let result = Obs.Metrics.with_registry reg f in
      Option.iter (write_metrics_file reg) metrics_out;
      Option.iter (write_profile_file reg) profile_out;
      result

let apps : (string * (budget:int -> Engine.t -> App.t)) list =
  [
    ("x264", fun ~budget eng -> Transcode.make ~budget eng);
    ("swaptions", fun ~budget eng -> Swaptions.make ~budget eng);
    ("bzip", fun ~budget eng -> Bzip.make ~budget eng);
    ("gimp", fun ~budget eng -> Gimp_oilify.make ~budget eng);
    ("ferret", fun ~budget eng -> Ferret.make ~budget eng);
    ("dedup", fun ~budget eng -> Dedup.make ~budget eng);
  ]

let app_arg =
  let doc = "Application: x264, swaptions, bzip, gimp, ferret, dedup." in
  Arg.(value & opt (enum (names apps)) "x264" & info [ "a"; "app" ] ~docv:"APP" ~doc)

let app_factory name = List.assoc name apps

(* Each built-in kernel builds its loop for an iteration count, listed
   with the count compile/check/run use; sanitize passes its own. *)
let kernels : (string * ((int -> Parcae_ir.Loop.t) * int)) list =
  let open Parcae_ir.Kernels in
  [
    ("blackscholes", ((fun n -> blackscholes ~n ()), 40_000));
    ("crc32", ((fun n -> crc32 ~n ()), 60_000));
    ("url", ((fun n -> url ~n ()), 50_000));
    ("kmeans", ((fun n -> kmeans ~n ()), 40_000));
    ("histogram", ((fun n -> histogram ~n ()), 60_000));
    ("montecarlo", ((fun n -> montecarlo ~n ()), 50_000));
    ("stringsearch", ((fun n -> stringsearch ~n ()), 40_000));
    ("recurrence", ((fun n -> recurrence ~n ()), 200_000));
    ("adaptive", ((fun n -> adaptive ~n ()), 200_000));
  ]

let kernel_arg =
  let doc =
    "IR kernel: blackscholes, crc32, url, kmeans, histogram, montecarlo, stringsearch, \
     recurrence, adaptive."
  in
  Arg.(
    value
    & opt (enum (names kernels)) "blackscholes"
    & info [ "k"; "kernel" ] ~docv:"KERNEL" ~doc)

let kernel_of ?n name =
  let make, default_n = List.assoc name kernels in
  make (Option.value n ~default:default_n)

let mech_arg =
  let doc = "Mechanism: static, wqt-h, wq-linear, tbf, tb, fdp, seda, tpc." in
  Arg.(
    value & opt (enum (names Experiments.mechanisms)) "static" & info [ "m"; "mechanism" ] ~docv:"MECH" ~doc)

let print_result (r : Experiments.result) =
  Printf.printf "completed:          %d / %d requests\n" r.Experiments.completed
    r.Experiments.submitted;
  Printf.printf "mean response time: %.3f s\n" r.Experiments.mean_response_s;
  Printf.printf "p95 response time:  %.3f s\n" r.Experiments.p95_response_s;
  Printf.printf "mean execution:     %.3f s\n" r.Experiments.mean_exec_s;
  Printf.printf "throughput:         %.2f requests/s\n" r.Experiments.throughput_rps;
  Printf.printf "energy:             %.1f J\n" r.Experiments.energy_j;
  Printf.printf "virtual time:       %.2f s\n" r.Experiments.sim_end_s;
  Printf.printf "reconfigurations:   %d\n" r.Experiments.reconfigurations

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

(* Shared serve-like setup: calibrate max throughput, then run the server
   experiment from the app's serve configuration.  [wrap] runs around the
   measured server run only (not the calibration run), which is where the
   trace and metrics wrappers go; [on_start] lets `top` attach its
   dashboard thread to the live region. *)
let run_serve ?on_start ?(wrap = fun f -> f ()) ?(backend = `Sim) ?(quiet = false) app
    mech load m machine seed =
  (match (mech, backend) with
  | "tpc", `Native _ ->
      prerr_endline ("parcae_demo: " ^ Experiments.tpc_needs_sim);
      exit 1
  | _ -> ());
  let mk = app_factory app in
  let maxthr = Experiments.max_throughput ~machine ~seed ~backend mk in
  if not quiet then begin
    Printf.printf "%s on %s: max sustainable throughput %.2f requests/s\n" app
      (match backend with
      | `Sim -> machine.Machine.name
      | `Native _ -> "native cores")
      maxthr;
    Printf.printf "running %d requests at load %.2f under %s...\n\n" m load mech
  end;
  wrap (fun () ->
      Experiments.run_server ~m ~seed ~machine ~backend ~rate_per_s:(load *. maxthr)
        ?mechanism:(List.assoc mech Experiments.mechanisms) ?on_start ~config:`Serve mk)

(* HOST:PORT, or a bare PORT on 127.0.0.1; an empty HOST is 127.0.0.1. *)
let listen_conv =
  let parse spec =
    let host, port =
      match String.rindex_opt spec ':' with
      | Some i -> (String.sub spec 0 i, String.sub spec (i + 1) (String.length spec - i - 1))
      | None -> ("", spec)
    in
    match int_of_string_opt port with
    | Some p when p >= 0 && p <= 65535 -> Ok ((if host = "" then "127.0.0.1" else host), p)
    | _ -> Error (`Msg (Printf.sprintf "bad address %S (expected HOST:PORT)" spec))
  in
  Arg.conv ~docv:"HOST:PORT" (parse, fun ppf (h, p) -> Format.fprintf ppf "%s:%d" h p)

let listen_arg =
  let doc =
    "Expose the run over HTTP at $(docv) (HOST:PORT, or just PORT on 127.0.0.1; port 0 \
     picks an ephemeral port): $(b,/metrics) serves the live Prometheus snapshot, \
     $(b,/healthz) a liveness probe, and $(b,/latency.json) the span collector's \
     tail-latency report.  Implies a live metrics registry and span collector."
  in
  Arg.(value & opt (some listen_conv) None & info [ "listen" ] ~docv:"HOST:PORT" ~doc)

let linger_arg =
  let doc =
    "With $(b,--listen), keep serving the endpoints for $(docv) wall seconds after the \
     run completes, so external scrapers can read the final state."
  in
  Arg.(value & opt non_negative_float 0.0 & info [ "linger" ] ~docv:"SECONDS" ~doc)

(* The live exposition wrapper: force-install a metrics registry and a span
   collector (the endpoints read both), serve /metrics, /healthz, and
   /latency.json for the whole measured run plus [linger] wall seconds.
   [reg] may be shared with --metrics-out so one snapshot serves both. *)
let with_exposition ~listen ~linger ~reg ~sc f =
  match listen with
  | None -> f ()
  | Some (host, port) ->
      let routes =
        [
          ( "/metrics",
            fun () ->
              Obs.Httpd.ok ~content_type:"text/plain; version=0.0.4; charset=utf-8"
                (Obs.Metrics.to_prometheus reg) );
          ("/healthz", fun () -> Obs.Httpd.ok "ok\n");
          ( "/latency.json",
            fun () ->
              Obs.Httpd.ok ~content_type:"application/json"
                (Obs.Json.to_string (Obs.Span.report_json sc)) );
        ]
      in
      let srv = Obs.Httpd.start ~host ~port ~routes () in
      Printf.printf "listening on http://%s:%d (/metrics /healthz /latency.json)\n%!" host
        (Obs.Httpd.port srv);
      Fun.protect
        ~finally:(fun () -> Obs.Httpd.stop srv)
        (fun () ->
          let r = f () in
          if linger > 0.0 then begin
            Printf.printf "lingering %gs for scrapes on port %d...\n%!" linger
              (Obs.Httpd.port srv);
            Unix.sleepf linger
          end;
          r)

let serve app mech load m machine backend seed trace metrics_out profile_out flight_out
    listen linger =
  (* With --listen, the registry and span collector are installed
     unconditionally (the endpoints need them live); --metrics-out then
     reuses the same registry rather than installing a second one. *)
  let reg = Obs.Metrics.create () in
  let sc = Obs.Span.create () in
  let wrap f =
    match listen with
    | None ->
        (* A metrics snapshot should include the latency summaries, so a
           requested --metrics-out/--profile-out also installs the span
           collector (inside the registry scope: the summary handles bind
           to the ambient registry at emission). *)
        let body () =
          match (metrics_out, profile_out) with
          | None, None -> with_trace trace (fun () -> with_flight flight_out f)
          | _ ->
              Obs.Span.with_collector sc (fun () ->
                  with_trace trace (fun () -> with_flight flight_out f))
        in
        with_metrics ?metrics_out ?profile_out body
    | Some _ ->
        Obs.Metrics.with_registry reg (fun () ->
            Obs.Span.with_collector sc (fun () ->
                let r = with_trace trace (fun () -> with_flight flight_out f) in
                Option.iter (write_metrics_file reg) metrics_out;
                Option.iter (write_profile_file reg) profile_out;
                r))
  in
  with_exposition ~listen ~linger ~reg ~sc (fun () ->
      let r = run_serve ~wrap ~backend app mech load m machine seed in
      print_result r;
      (match Obs.Span.completed sc with
      | 0 -> ()
      | n ->
          Printf.printf "request spans:      %d completed, p99 %.3f ms (%d dropped)\n" n
            (float_of_int (Obs.Span.quantile_ns sc 0.99) /. 1e6)
            (Obs.Span.drops sc)))

let serve_cmd =
  let term =
    Term.(
      const serve $ app_arg $ mech_arg $ load_arg $ requests_arg $ machine_arg $ backend_arg
      $ seed_arg $ trace_arg $ metrics_out_arg $ profile_out_arg $ flight_out_arg $ listen_arg
      $ linger_arg)
  in
  Cmd.v (Cmd.info "serve" ~doc:"Run a server workload at a load factor under a mechanism.") term

(* ------------------------------------------------------------------ *)
(* top                                                                 *)
(* ------------------------------------------------------------------ *)

let interval_arg =
  let doc = "Dashboard refresh interval in virtual seconds." in
  Arg.(value & opt positive_float 1.0 & info [ "i"; "interval" ] ~docv:"SECONDS" ~doc)

let top app mech load m machine seed interval metrics_out profile_out =
  let interval_ns = int_of_float (interval *. 1e9) in
  (* `top` always runs with a registry installed — the dashboard renders
     it — while --metrics-out / --profile-out remain optional extras. *)
  let reg = Obs.Metrics.create () in
  (* A per-core timeline for the measured run, whose clock starts at 0, so
     the dashboard's scheduler panel has data to show, and a span collector
     for its latency panel (inside the registry scope, like serve's). *)
  let tl = Obs.Timeline.create ~lanes:(max 1 machine.Machine.cores) ~now:0 () in
  let sc = Obs.Span.create () in
  let r =
    run_serve
      ~wrap:(fun f ->
        Obs.Metrics.with_registry reg (fun () ->
            Obs.Span.with_collector sc (fun () -> Obs.Timeline.with_timeline tl f)))
      ~on_start:(fun (a : App.t) region ->
        ignore
          (Dashboard.spawn ~interval_ns
             ~title:(Printf.sprintf "parcae top — %s under %s" app mech)
             ~stop:(fun () -> R.Region.is_done region)
             a.App.eng))
      app mech load m machine seed
  in
  print_result r;
  Option.iter (write_metrics_file reg) metrics_out;
  Option.iter (write_profile_file reg) profile_out

let top_cmd =
  let term =
    Term.(
      const top $ app_arg $ mech_arg $ load_arg $ requests_arg $ machine_arg $ seed_arg
      $ interval_arg $ metrics_out_arg $ profile_out_arg)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Run a server workload with a live metrics dashboard refreshed every virtual \
          interval.")
    term

(* ------------------------------------------------------------------ *)
(* batch                                                               *)
(* ------------------------------------------------------------------ *)

let batch app mech m machine seed trace metrics_out profile_out flight_out =
  Printf.printf "running %d requests in batch mode under %s...\n\n" m mech;
  let r, _, _ =
    with_metrics ?metrics_out ?profile_out (fun () ->
        with_trace trace (fun () ->
            with_flight flight_out (fun () ->
                Experiments.run_batch ~m ~seed ~machine
                  ?mechanism:(List.assoc mech Experiments.mechanisms)
                  ~config:`Default (app_factory app))))
  in
  print_result r

let batch_cmd =
  let term =
    Term.(
      const batch $ app_arg $ mech_arg $ requests_arg $ machine_arg $ seed_arg $ trace_arg
      $ metrics_out_arg $ profile_out_arg $ flight_out_arg)
  in
  Cmd.v (Cmd.info "batch" ~doc:"Run a batch workload under a mechanism and report throughput.") term

(* ------------------------------------------------------------------ *)
(* compile                                                             *)
(* ------------------------------------------------------------------ *)

let loop_source kernel file =
  match file with
  | Some path -> (
      try Parcae_ir.Parser.parse_file path
      with Parcae_ir.Parser.Parse_error m ->
        prerr_endline m;
        exit 1)
  | None -> kernel_of kernel

let compile kernel file =
  let open Parcae_ir in
  let open Parcae_pdg in
  let open Parcae_nona in
  let loop = loop_source kernel file in
  Format.printf "%a@." Loop.pp loop;
  let c = Compiler.compile loop in
  Format.printf "%a@." Pdg.pp c.Compiler.pdg;
  Format.printf "%a@." Scc.pp c.Compiler.scc;
  (match Doany.inhibitors c.Compiler.pdg with
  | [] -> Format.printf "DOANY: applicable@."
  | deps ->
      Format.printf "DOANY: inhibited by:@.";
      List.iter (fun d -> Format.printf "  %s@." (Dep.to_string d)) deps);
  match c.Compiler.pipeline with
  | Some pipe -> Format.printf "PS-DSWP:@.%a@." Mtcg.pp pipe
  | None -> Format.printf "PS-DSWP: not applicable@."

let compile_cmd =
  let term = Term.(const compile $ kernel_arg $ file_arg) in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Compile an IR kernel (built-in or from a .loop file) and print the analysis.")
    term

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

let json_arg =
  let doc = "Emit the report as JSON instead of human-readable text." in
  Arg.(value & flag & info [ "json" ] ~doc)

(* A failure before any report exists (a parse error, an invalid loop): the
   one finding, as text or as the command's JSON document with [fields]
   filled empty, then exit 1. *)
let fail_with ~json fields d =
  if json then
    print_endline
      (Obs.Json.to_string
         (Obs.Json.Obj (fields @ [ ("diagnostics", Obs.Json.List [ Diag.to_json d ]) ])))
  else print_string (Diag.render [ d ]);
  exit 1

let check_file_arg =
  let doc = "A .loop source file to check (alternative to -k)." in
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

(* Static diagnostics only: parse, compile, verify, lint — never run.
   Exit 1 when any error diagnostic (including a parse error) is present;
   warnings and infos alone exit 0. *)
let check kernel pos_file file json =
  let open Parcae_ir in
  let open Parcae_nona in
  let fail_with = fail_with ~json [ ("loop", Obs.Json.Null); ("schemes", Obs.Json.List []) ] in
  let loop =
    match (match pos_file with Some _ -> pos_file | None -> file) with
    | Some path -> (
        try Parser.parse_file path
        with Parser.Parse_error m -> fail_with (Diag.error "P001" "%s" m))
    | None -> kernel_of kernel
  in
  let report =
    try Check.run loop
    with Invalid_argument m -> fail_with (Diag.error "P003" "invalid loop: %s" m)
  in
  if json then print_endline (Obs.Json.to_string (Check.to_json report))
  else print_string (Check.render report);
  exit (if Diag.count_errors report.Check.diags > 0 then 1 else 0)

let check_cmd =
  let term = Term.(const check $ kernel_arg $ check_file_arg $ file_arg $ json_arg) in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Statically analyze a loop: applicable schemes, verified plan legality, \
          parallelization inhibitors explained in source terms, and lints.")
    term

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let run kernel file machine backend budget trace metrics_out profile_out flight_out =
  let open Parcae_ir in
  let open Parcae_nona in
  let loop = loop_source kernel file in
  let c = Compiler.compile loop in
  let h, done_at, budget =
    with_metrics ?metrics_out ?profile_out @@ fun () ->
    with_trace ~check_budget:true trace @@ fun () ->
    with_flight flight_out (fun () ->
        let eng = Experiments.make_engine ~backend machine in
        let budget = Option.value budget ~default:(Experiments.engine_budget eng machine) in
        let h = Compiler.launch ~budget eng c in
        let ctl =
          R.Controller.create
            ~params:
              {
                R.Controller.default_params with
                R.Controller.npar_factor = 16;
                monitor_ns = 50_000_000;
              }
            h.Compiler.region
        in
        ignore (R.Controller.spawn eng ctl);
        let done_at = ref 0 in
        let _ =
          Engine.spawn eng ~name:"watch" (fun () ->
              R.Executor.await h.Compiler.region;
              done_at := Engine.now ())
        in
        ignore (Engine.run ~until:600_000_000_000 eng);
        Engine.shutdown eng;
        (h, !done_at, budget))
  in
  let done_at = ref done_at in
  let seq = (Interp.run loop).Interp.work_ns in
  Printf.printf "kernel:      %s (%d iterations)\n" loop.Loop.name h.Compiler.rs.Flex.next_iter;
  Printf.printf "schemes:     %s\n" (String.concat ", " h.Compiler.names);
  Printf.printf "chosen:      %s %s\n"
    (R.Region.scheme_name h.Compiler.region)
    (Config.to_string (R.Region.config h.Compiler.region));
  Printf.printf "sequential:  %.3f s\n" (float_of_int seq *. 1e-9);
  Printf.printf "parallel:    %.3f s (speedup %.2fx on %d threads)\n"
    (float_of_int !done_at *. 1e-9)
    (float_of_int seq /. float_of_int (max 1 !done_at))
    budget;
  Printf.printf "semantics:   %s\n"
    (if Compiler.preserves_semantics h then "preserved" else "VIOLATED")

let run_cmd =
  let term =
    Term.(
      const run $ kernel_arg $ file_arg $ machine_arg $ backend_arg $ budget_arg $ trace_arg
      $ metrics_out_arg $ profile_out_arg $ flight_out_arg)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Compile a kernel and execute it under the closed-loop controller.")
    term

(* ------------------------------------------------------------------ *)
(* doctor                                                              *)
(* ------------------------------------------------------------------ *)

let dops_arg =
  let doc = "Comma-separated degrees of parallelism to sweep (default 1,2,4,8)." in
  Arg.(value & opt (some (list positive_int)) None & info [ "dops" ] ~docv:"D1,D2,..." ~doc)

let doctor_items_arg =
  let doc = "Items pushed through the diagnostic pipeline per DoP." in
  Arg.(value & opt positive_int 240 & info [ "items" ] ~docv:"N" ~doc)

let doctor_work_arg =
  let doc = "Transform cost per item in nanoseconds (the consumer costs a quarter)." in
  (* The bound [Doctor.run] itself enforces. *)
  let work_ns =
    checked_conv int_of_string_opt Format.pp_print_int (fun n -> n >= 4) "an integer >= 4"
  in
  Arg.(value & opt work_ns 1_500_000 & info [ "work-ns" ] ~docv:"NS" ~doc)

(* Exit codes: 0 diagnosis produced, 3 a Runtime_events cursor leaked —
   the CI smoke job treats a leak as a hard failure. *)
let doctor machine backend dops items work_ns json =
  let backend : Doctor.backend =
    match backend with
    | `Sim -> `Sim machine
    | `Native pool -> `Native pool
  in
  let r = Doctor.run ~items ~work_ns ?dops ~backend () in
  if json then print_endline (Obs.Json.to_string (Doctor.report_to_json r))
  else print_string (Doctor.render r);
  exit (if r.Doctor.leaked_cursors > 0 then 3 else 0)

let doctor_cmd =
  let term =
    Term.(
      const doctor $ machine_arg $ backend_arg $ dops_arg $ doctor_items_arg $ doctor_work_arg
      $ json_arg)
  in
  Cmd.v
    (Cmd.info "doctor"
       ~doc:
         "Sweep the degree of parallelism on a known three-stage pipeline with the \
          scheduler observatory attached (per-domain timelines, GC attribution, \
          critical-path analysis) and diagnose why the scaling curve looks the way it \
          does.")
    term

(* ------------------------------------------------------------------ *)
(* latency                                                             *)
(* ------------------------------------------------------------------ *)

let slo_ms_arg =
  let doc =
    "Check a latency SLO after the run: when more than the $(b,--slo-budget) fraction of \
     requests took longer than $(docv) milliseconds end-to-end, report finding L100 and \
     exit 2."
  in
  Arg.(value & opt (some positive_float) None & info [ "slo-ms" ] ~docv:"MS" ~doc)

let slo_budget_arg =
  let doc = "Tolerated over-SLO fraction of requests (the error budget)." in
  Arg.(value & opt fraction 0.001 & info [ "slo-budget" ] ~docv:"FRACTION" ~doc)

let top_k_arg =
  let doc = "How many slowest-request exemplars to include in the report." in
  Arg.(value & opt non_negative_int 5 & info [ "top" ] ~docv:"K" ~doc)

(* Run a server workload with the full latency observatory attached —
   span collector, flight recorder, and (on native) the runtime-events GC
   consumer — then attribute the tail quantiles to phases.  Exit codes:
   0 report produced, 2 an error finding (the L100 SLO breach). *)
let latency app mech load m machine backend seed slo_ms slo_budget top_k json =
  let sc = Obs.Span.create () in
  let rc = Obs.Flight.create () in
  (* GC carving needs the runtime-events feed; its timestamps are wall
     nanoseconds, so it only makes sense against the native clock. *)
  let consumer =
    match backend with `Native _ -> Some (Obs.Runtime_ev.start ()) | `Sim -> None
  in
  (* [wrap] scopes the observatory to the measured run only — the
     calibration run must not contribute spans. *)
  let wrap f = Obs.Span.with_collector sc (fun () -> Obs.Flight.with_recorder rc f) in
  let r = run_serve ~wrap ~backend ~quiet:json app mech load m machine seed in
  (match consumer with
  | Some c ->
      ignore (Obs.Runtime_ev.poll c);
      Obs.Runtime_ev.stop c
  | None -> ());
  let slo = Option.map (fun ms -> (int_of_float (ms *. 1e6), slo_budget)) slo_ms in
  let report = Latency.analyze ~flight:(Obs.Flight.entries rc) ?slo ~top:top_k sc in
  if json then print_endline (Obs.Json.to_string (Latency.to_json report))
  else begin
    print_result r;
    print_newline ();
    print_string (Latency.render report)
  end;
  exit (if Diag.count_errors report.Latency.r_findings > 0 then 2 else 0)

let latency_cmd =
  let term =
    Term.(
      const latency $ app_arg $ mech_arg $ load_arg $ requests_arg $ machine_arg
      $ backend_arg $ seed_arg $ slo_ms_arg $ slo_budget_arg $ top_k_arg $ json_arg)
  in
  Cmd.v
    (Cmd.info "latency"
       ~doc:
         "Run a server workload with request-level span tracing attached and attribute \
          the tail-latency quantiles to phases: admission queueing, inter-stage channel \
          wait, per-stage compute, reconfiguration stall, and GC overlap.  Reports the \
          slowest requests with their span timelines and the nearest \
          reconfiguration/GC event, findings codes L100-L1xx, and exits 2 on an SLO \
          breach.")
    term

(* ------------------------------------------------------------------ *)
(* explain                                                             *)
(* ------------------------------------------------------------------ *)

let flight_log_arg =
  let doc = "A flight log recorded with $(b,--flight-out)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"LOG" ~doc)

let sec_of_ns ns = float_of_int ns *. 1e-9

let explain_text entries (rr : Obs.Flight.replay_result) =
  let module F = Obs.Flight in
  let decisions = List.filter_map (function F.Decision d -> Some d | _ -> None) entries in
  let overheads = List.filter_map (function F.Overhead o -> Some o | _ -> None) entries in
  Printf.printf "flight log: %d decisions, %d overhead entries\n\n" (List.length decisions)
    (List.length overheads);
  Printf.printf "%5s %10s  %-10s %-14s %-9s %-22s %s\n" "epoch" "t(s)" "actor" "region"
    "state" "reason" "move";
  List.iter
    (fun (d : F.decision) ->
      let state =
        match d.F.state with Some s -> Obs.Event.ctrl_state_to_string s | None -> "-"
      in
      let move =
        if d.F.candidate = d.F.chosen then
          Printf.sprintf "stay at %d (%d threads, budget %d)" d.F.chosen d.F.threads
            d.F.budget
        else
          Printf.sprintf "%d -> %d (%d threads, budget %d)" d.F.candidate d.F.chosen
            d.F.threads d.F.budget
      in
      Printf.printf "%5d %10.3f  %-10s %-14s %-9s %-22s %s\n" d.F.epoch (sec_of_ns d.F.t)
        d.F.actor d.F.region state d.F.reason move;
      if d.F.probes <> [] then
        Printf.printf "%56s probes: %s\n" ""
          (String.concat ", "
             (List.map (fun (dp, f) -> Printf.sprintf "%d:%.2f" dp f) d.F.probes));
      match d.F.gradient with
      | Some g -> Printf.printf "%56s gradient: %+.3f\n" "" g
      | None -> ())
    decisions;
  if overheads <> [] then begin
    (* Aggregate the per-phase costs the ledger attributed during the run. *)
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (o : F.overhead) ->
        let key = (o.F.o_region, o.F.o_phase) in
        let cur = try Hashtbl.find tbl key with Not_found -> 0 in
        Hashtbl.replace tbl key (cur + o.F.o_ns))
      overheads;
    let rows =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare
    in
    Printf.printf "\nreconfiguration overhead (summed over the run):\n";
    Printf.printf "%-14s %-8s %12s\n" "region" "phase" "ns";
    List.iter
      (fun ((region, phase), ns) -> Printf.printf "%-14s %-8s %12d\n" region phase ns)
      rows
  end;
  print_newline ();
  print_replay rr

let explain_json entries (rr : Obs.Flight.replay_result) =
  let module F = Obs.Flight in
  let module J = Obs.Json in
  let moves =
    J.Obj
      (List.map (fun (region, ms) -> (region, J.List (List.map (fun m -> J.Int m) ms)))
         rr.F.moves)
  in
  let doc =
    J.Obj
      [
        ("entries", J.List (List.map F.entry_to_json entries));
        ( "replay",
          J.Obj
            [
              ("ok", J.Bool (rr.F.mismatches = []));
              ("decisions", J.Int rr.F.decisions);
              ( "mismatches",
                J.List
                  (List.map
                     (fun (epoch, what) -> J.List [ J.Int epoch; J.Str what ])
                     rr.F.mismatches) );
              ("moves", moves);
            ] );
      ]
  in
  print_endline (J.to_string doc)

(* Exit codes: 0 clean replay, 1 replay mismatch, 2 unreadable log. *)
let explain log json =
  let contents =
    try In_channel.with_open_text log In_channel.input_all
    with Sys_error m ->
      prerr_endline m;
      exit 2
  in
  let entries =
    try Obs.Flight.parse_jsonl contents
    with Obs.Json.Parse_error m ->
      Printf.eprintf "%s: not a flight log: %s\n" log m;
      exit 2
  in
  let rr = Obs.Flight.replay entries in
  if json then explain_json entries rr else explain_text entries rr;
  exit (if rr.Obs.Flight.mismatches = [] then 0 else 1)

let explain_cmd =
  let term = Term.(const explain $ flight_log_arg $ json_arg) in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Render a recorded flight log as a decision timeline with reasons and the \
          reconfiguration overhead ledger, then replay the decisions offline and verify \
          they reproduce the recorded moves.")
    term

(* ------------------------------------------------------------------ *)
(* sanitize                                                            *)
(* ------------------------------------------------------------------ *)

let sanitize_suite_arg =
  let doc = "Sanitize every built-in kernel instead of a single one." in
  Arg.(value & flag & info [ "suite" ] ~doc)

let sanitize_corpus_arg =
  let doc = "Additionally sanitize $(docv) seeded random kernels (see $(b,--seed))." in
  Arg.(value & opt non_negative_int 0 & info [ "corpus" ] ~docv:"N" ~doc)

(* Small kernel instances for sanitizing: the sanitizer shadows every
   load/store, and a few hundred iterations already exercise every
   collision pattern the kernels contain (histogram's bins wrap at 64,
   so 256 iterations give four hits per bin). *)
let sanitize_n_arg =
  let doc = "Iteration count for built-in kernels." in
  Arg.(value & opt non_negative_int 256 & info [ "iters" ] ~docv:"N" ~doc)

let sanitize_dop_arg =
  let doc = "Degree of parallelism for the parallel schemes." in
  Arg.(value & opt positive_int 3 & info [ "dop" ] ~docv:"D" ~doc)

let inject_arg =
  let doc =
    "Fault injection: strip every loop-carried memory dependence from the PDG before \
     planning, simulating an unsound alias analysis.  The sanitizer must then report \
     S701 on any kernel whose parallel execution actually races."
  in
  Arg.(value & flag & info [ "inject-race" ] ~doc)

let sanitize_file_arg =
  let doc = "A .loop source file to sanitize (alternative to -k)." in
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

(* Exit-code contract matches [check]: 1 iff any error diagnostic (S701 /
   S702 / a parse failure), 0 otherwise. *)
let sanitize kernel pos_file file suite corpus n seed dop backend inject json =
  let open Parcae_ir in
  let open Parcae_nona in
  let backend =
    match backend with
    | `Sim -> Sanitize.Sim_backend
    | `Native pool -> Sanitize.Native_backend pool
  in
  let fail_with m =
    fail_with ~json
      [ ("errors", Obs.Json.Int 1); ("reports", Obs.Json.List []) ]
      (Diag.error "P001" "%s" m)
  in
  let named =
    match (match pos_file with Some _ -> pos_file | None -> file) with
    | Some path -> ( try [ Parser.parse_file path ] with Parser.Parse_error m -> fail_with m)
    | None when suite -> List.map (fun k -> kernel_of ~n k.Kernels.k_name) Kernels.suite
    | None -> [ kernel_of ~n kernel ]
  in
  let generated =
    List.map
      (fun g -> g.Kgen.g_loop)
      (if corpus > 0 then Kgen.corpus ~seed ~n:corpus else [])
  in
  let reports =
    List.map (fun loop -> Sanitize.run ~backend ~dop ~inject loop) (named @ generated)
  in
  let errors =
    List.fold_left (fun acc r -> acc + Diag.count_errors r.Sanitize.diags) 0 reports
  in
  if json then
    print_endline
      (Obs.Json.to_string
         (Obs.Json.Obj
            [
              ("errors", Obs.Json.Int errors);
              ("reports", Obs.Json.List (List.map Sanitize.to_json reports));
            ]))
  else List.iter (fun r -> print_string (Sanitize.render r)) reports;
  exit (if errors > 0 then 1 else 0)

let sanitize_cmd =
  let term =
    Term.(
      const sanitize $ kernel_arg $ sanitize_file_arg $ file_arg $ sanitize_suite_arg
      $ sanitize_corpus_arg $ sanitize_n_arg $ seed_arg $ sanitize_dop_arg $ backend_arg
      $ inject_arg $ json_arg)
  in
  Cmd.v
    (Cmd.info "sanitize"
       ~doc:
         "Execute a loop under every emitted scheme with the happens-before race \
          sanitizer attached, and cross-validate the dynamic dependences it observes \
          against the static PDG: races under verifier-passed plans (S701) and dynamic \
          collisions without a static dependence (S702) are soundness errors; static \
          may-dependences that never materialize are precision gaps (G711).")
    term

(* ------------------------------------------------------------------ *)

let () =
  let doc = "Parcae: a system for flexible parallel execution (simulated reproduction)" in
  let info = Cmd.info "parcae_demo" ~version:"1.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            serve_cmd;
            top_cmd;
            batch_cmd;
            compile_cmd;
            check_cmd;
            run_cmd;
            doctor_cmd;
            latency_cmd;
            sanitize_cmd;
            explain_cmd;
          ]))
