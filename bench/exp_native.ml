(* Native-backend experiments: real wall-clock numbers, not virtual time.

   [native_speedup] runs a three-stage pipeline (produce | transform^DoP |
   consume) on the native OCaml 5 backend at increasing transform DoP and
   reports wall-clock speedup over DoP 1.  Each configuration gets a fresh
   engine whose domain pool is sized to the configuration (parallelism
   across systhreads needs distinct domains), so the measurement is the
   paper's flexible-pipeline claim on real cores: more lanes on the PAR
   stage shorten the run until the host runs out of cores.

   [sim_headline] re-measures a small set of headline simulator numbers
   and writes them to BENCH_sim.json so CI can diff both backends from the
   same artifact format. *)

module Engine = Parcae_platform.Engine
module Chan = Parcae_platform.Chan
module Config = Parcae_core.Config
module Task = Parcae_core.Task
module Task_status = Parcae_core.Task_status
module Pipeline = Parcae_core.Pipeline
module Executor = Parcae_runtime.Executor
module Region = Parcae_runtime.Region
module Json = Parcae_obs.Json
module Timeline = Parcae_obs.Timeline
module Table = Parcae_util.Table
open Parcae_workloads

(* Artifact provenance lives in [Prov] (shared with Exp_allocs). *)
let provenance = Prov.provenance

(* ---- request-latency ladders ----

   Both artifacts carry the HDR tail-latency ladder (p50/p99/p999 ns) for
   ferret and x264 server runs, measured from the workload's always-on
   latency distribution (Metrics.latency_quantile_ns), so latency
   regressions are auditable per-commit next to throughput and
   allocation. *)

let latency_fields prefix (r : Experiments.result) =
  [
    (prefix ^ "_latency_p50_ns", Json.Int r.Experiments.latency_p50_ns);
    (prefix ^ "_latency_p99_ns", Json.Int r.Experiments.latency_p99_ns);
    (prefix ^ "_latency_p999_ns", Json.Int r.Experiments.latency_p999_ns);
  ]

(* Calibrate max throughput with a halved request count, then serve at 0.8
   load — the same shape as `parcae_demo serve`, sized down so the native
   runs (real wall-clock) stay cheap in CI. *)
let measure_serve_latency ?backend ~machine ~flat ~m mk =
  let thr =
    if flat then Experiments.max_throughput_flat ~m:(max 20 (m / 2)) ~machine ?backend mk
    else Experiments.max_throughput ~m:(max 20 (m / 2)) ~machine ?backend mk
  in
  Experiments.run_server ~m ~machine ?backend ~rate_per_s:(0.8 *. thr)
    ~config:(`Named (if flat then "even" else "inner-max"))
    mk

(* ---- native_speedup ---- *)

let items = 400
let work_ns = 1_500_000 (* per-item transform cost: 1.5ms of real spinning *)

(* DoP sweep: 1..4 by default (the acceptance target is DoP 4), overridable
   for CI smokes via PARCAE_NATIVE_DOPS="1,2". *)
let dops () =
  match Sys.getenv_opt "PARCAE_NATIVE_DOPS" with
  | None -> [ 1; 2; 4 ]
  | Some s ->
      String.split_on_char ',' s
      |> List.filter_map (fun x -> int_of_string_opt (String.trim x))

(* Pool sizing for a measured run at transform DoP [dop].  The
   work-stealing scheduler multiplexes fibers, so correctness never needs
   more domains than the host has — but *overlap* needs one domain per
   concurrently-spinning lane (dop transform lanes + produce + consume +
   the controller).  We request that, clamp to the host's recommended
   count, and report both numbers so the artifact is honest about what
   actually ran. *)
let requested_domains ~dop = dop + 3

let spawnable_domains ~dop =
  min (requested_domains ~dop) (Domain.recommended_domain_count ())

(* Fail the run loudly when the host cannot supply the requested domains:
   always warn on stderr; exit non-zero under PARCAE_BENCH_STRICT=1 (the
   CI artifact job keeps strictness off so a 1-core runner still produces
   an honest BENCH_native.json instead of nothing). *)
let check_domains ~dop ~spawned =
  let requested = requested_domains ~dop in
  if spawned < requested then begin
    Printf.eprintf
      "WARNING: DoP %d requested %d domains but the host spawned %d \
       (recommended_domain_count = %d); lanes are time-multiplexed, not \
       parallel\n%!"
      dop requested spawned
      (Domain.recommended_domain_count ());
    if Sys.getenv_opt "PARCAE_BENCH_STRICT" = Some "1" then begin
      Printf.eprintf
        "PARCAE_BENCH_STRICT=1: failing bench run on domain divergence\n%!";
      exit 1
    end
  end

(* One measured run: fresh native engine, 3-stage pipeline, transform at
   [dop] lanes.  Returns wall-clock seconds from region launch to engine
   drain (excludes domain-pool spawn and spin calibration), plus the
   domain count the engine actually spawned. *)
let measure_native ~dop =
  let eng = Engine.create_native ~pool:(spawnable_domains ~dop) () in
  let spawned =
    match Engine.native_engine eng with
    | Some ne -> Parcae_native.Engine.pool_size ne
    | None -> assert false
  in
  check_domains ~dop ~spawned;
  (* A per-domain timeline for the run, so the artifact records where each
     lane's wall time went alongside the headline wall-clock number. *)
  let tl = Timeline.create ~lanes:(max 1 spawned) ~now:(Engine.time eng) () in
  Timeline.with_timeline tl @@ fun () ->
  let q1 = Chan.create ~capacity:64 eng "q1" and q2 = Chan.create ~capacity:64 eng "q2" in
  let produced = ref 0 and consumed = ref 0 in
  let produce =
    Pipeline.source ~name:"produce"
      ~forward:(Pipeline.forward_to q1)
      (fun _ctx ->
        if !produced >= items then Task_status.Complete
        else begin
          Pipeline.send q1 !produced;
          incr produced;
          Task_status.Iterating
        end)
  in
  let transform =
    Pipeline.drain_stage ~max_batch:1 ~name:"transform" ~input:q1 ~load:(Pipeline.load q1)
      ~forward:(Pipeline.forward_to q2)
      (fun _ctx v ->
        Engine.compute work_ns;
        Pipeline.send q2 v;
        Task_status.Iterating)
  in
  let consume =
    Pipeline.drain_stage ~max_batch:1 ~ttype:Task.Seq ~name:"consume" ~input:q2
      ~forward:(fun _ -> ())
      (fun _ctx _ ->
        incr consumed;
        Task_status.Iterating)
  in
  let pd =
    Task.descriptor ~name:"pipeline"
      [ produce.Pipeline.task; transform.Pipeline.task; consume.Pipeline.task ]
  in
  let on_reset = Pipeline.make_reset ~stages:[ produce; transform; consume ] ~channels:[ q1; q2 ] in
  let config = Config.make [ Config.seq_task; Config.task dop; Config.seq_task ] in
  let t0 = Unix.gettimeofday () in
  ignore (Executor.launch ~budget:(dop + 2) ~name:"native-pipe" eng [ pd ] ~on_reset config);
  ignore (Engine.run eng);
  let dt = Unix.gettimeofday () -. t0 in
  let steals =
    match Engine.native_engine eng with
    | Some ne -> Parcae_native.Engine.steal_count ne
    | None -> 0
  in
  let shares = Timeline.merged_shares (Timeline.breakdown tl ~until:(Engine.time eng)) in
  Engine.shutdown eng;
  if !consumed <> items then
    failwith (Printf.sprintf "native_speedup: consumed %d of %d items" !consumed items);
  (dt, spawned, steals, shares)

let native_speedup () =
  let dops = dops () in
  let host = Domain.recommended_domain_count () in
  Printf.printf "host: %d recommended domains; %d items x %.1fms transform\n%!" host items
    (float_of_int work_ns *. 1e-6);
  let t =
    Table.create
      ~title:"Native backend: pipeline wall-clock vs transform DoP"
      ~header:[ "DoP"; "domains"; "wall (s)"; "speedup"; "run%"; "steals" ]
  in
  let results =
    List.map
      (fun dop ->
        let dt, spawned, steals, shares = measure_native ~dop in
        Printf.printf "  DoP %d (%d domains): %.3fs, %d steals\n%!" dop spawned dt steals;
        (dop, dt, spawned, steals, shares))
      dops
  in
  let base = match results with (_, dt, _, _, _) :: _ -> dt | [] -> 1.0 in
  List.iter
    (fun (dop, dt, spawned, steals, shares) ->
      Table.add_row t
        [
          string_of_int dop;
          string_of_int spawned;
          Printf.sprintf "%.3f" dt;
          Printf.sprintf "%.2fx" (base /. dt);
          Printf.sprintf "%.1f" (100.0 *. List.assoc Timeline.Run shares);
          string_of_int steals;
        ])
    results;
  Table.print t;
  let degraded =
    List.exists (fun (dop, _, spawned, _, _) -> spawned < requested_domains ~dop) results
  in
  (* Per-item allocator tax on the same pipeline shape, so the native
     artifact carries its own allocation number next to the wall-clock. *)
  let alloc = Exp_allocs.measure_native () in
  (* Request-latency ladders on real cores (sized down: wall-clock). *)
  let lat_m =
    match Option.bind (Sys.getenv_opt "PARCAE_NATIVE_LATENCY_M") int_of_string_opt with
    | Some n when n > 0 -> n
    | _ -> 80
  in
  Printf.printf "measuring native request-latency ladders (m=%d)...\n%!" lat_m;
  let machine = Parcae_sim.Machine.xeon_x7460 in
  let ferret_r =
    measure_serve_latency ~backend:(`Native None) ~machine ~flat:true ~m:lat_m
      (fun ~budget eng -> Ferret.make ~budget eng)
  in
  let x264_r =
    measure_serve_latency ~backend:(`Native None) ~machine ~flat:false ~m:lat_m
      (fun ~budget eng -> Transcode.make ~budget eng)
  in
  Printf.printf "  ferret p99 %.3fms, x264 p99 %.3fms\n%!"
    (float_of_int ferret_r.Experiments.latency_p99_ns /. 1e6)
    (float_of_int x264_r.Experiments.latency_p99_ns /. 1e6);
  let shares_json shares =
    Json.Obj
      (List.map (fun (st, v) -> (Timeline.state_name st, Json.Float v)) shares)
  in
  let json =
    Json.Obj
      (provenance ()
      @ [
          ("backend", Json.Str "native");
          ("host_domains", Json.Int host);
          ("degraded", Json.Bool degraded);
          ("items", Json.Int items);
          ("work_ns_per_item", Json.Int work_ns);
          ("dops", Json.List (List.map (fun (d, _, _, _, _) -> Json.Int d) results));
          ( "requested_domains",
            Json.List
              (List.map (fun (d, _, _, _, _) -> Json.Int (requested_domains ~dop:d)) results)
          );
          ( "spawned_domains",
            Json.List (List.map (fun (_, _, s, _, _) -> Json.Int s) results) );
          ("wall_s", Json.List (List.map (fun (_, dt, _, _, _) -> Json.Float dt) results));
          ( "speedup",
            Json.List (List.map (fun (_, dt, _, _, _) -> Json.Float (base /. dt)) results)
          );
          ("steals", Json.List (List.map (fun (_, _, _, st, _) -> Json.Int st) results));
          ( "utilization",
            Json.List (List.map (fun (_, _, _, _, sh) -> shares_json sh) results) );
          ( "minor_words_per_item",
            Json.Float alloc.Exp_allocs.s_words_per_req );
          ("latency_m", Json.Int lat_m);
        ]
      @ latency_fields "ferret" ferret_r
      @ latency_fields "x264" x264_r)
  in
  Parcae_obs.Export.write_file "BENCH_native.json" (Json.to_string json ^ "\n");
  Printf.printf "wrote BENCH_native.json\n"

(* ---- sim headline numbers ---- *)

(* Pre-pooling reference points, measured at the commit before the
   zero-allocation serve path landed (same machine model, same m): the
   artifact carries before/after so the allocation work is auditable
   without checking out the old tree. *)
let ferret_words_per_req_before = 1831.0
let ferret_thr_before = 500.83
let x264_thr_before = 14.44

let sim_headline () =
  let machine = Parcae_sim.Machine.xeon_x7460 in
  let mk_x264 ~budget eng = Transcode.make ~budget eng in
  let mk_ferret ~budget eng = Ferret.make ~budget eng in
  let x264_thr = Experiments.max_throughput ~m:200 ~machine mk_x264 in
  let ferret_thr = Experiments.max_throughput_flat ~m:300 ~machine mk_ferret in
  let serve =
    Experiments.run_server ~m:250 ~machine ~rate_per_s:(0.8 *. x264_thr)
      ~config:(`Named "inner-max") mk_x264
  in
  let ferret_serve =
    Experiments.run_server ~m:250 ~machine ~rate_per_s:(0.8 *. ferret_thr)
      ~config:(`Named "even") mk_ferret
  in
  let ferret_alloc = Exp_allocs.measure_sim_ferret () in
  let x264_alloc = Exp_allocs.measure_sim_x264 () in
  let t =
    Table.create ~title:"Headline simulated numbers (xeon24)"
      ~header:[ "metric"; "value" ]
  in
  Table.add_row t [ "x264 max throughput (req/s)"; Printf.sprintf "%.2f" x264_thr ];
  Table.add_row t [ "ferret max throughput (req/s)"; Printf.sprintf "%.2f" ferret_thr ];
  Table.add_row t [ "x264 p95 response @ 0.8 load (s)"; Printf.sprintf "%.3f" serve.Experiments.p95_response_s ];
  Table.add_row t
    [ "x264 latency p99 @ 0.8 load (ms)";
      Printf.sprintf "%.3f" (float_of_int serve.Experiments.latency_p99_ns /. 1e6) ];
  Table.add_row t
    [ "ferret latency p99 @ 0.8 load (ms)";
      Printf.sprintf "%.3f" (float_of_int ferret_serve.Experiments.latency_p99_ns /. 1e6) ];
  Table.add_row t
    [ "ferret minor words/request"; Printf.sprintf "%.1f (was %.1f)"
        ferret_alloc.Exp_allocs.s_words_per_req ferret_words_per_req_before ];
  Table.add_row t
    [ "x264 minor words/request"; Printf.sprintf "%.1f"
        x264_alloc.Exp_allocs.s_words_per_req ];
  Table.print t;
  let json =
    Json.Obj
      (provenance ()
      @ [
        ("backend", Json.Str "sim");
        ("machine", Json.Str machine.Parcae_sim.Machine.name);
        ("x264_max_throughput_rps", Json.Float x264_thr);
        ("ferret_max_throughput_rps", Json.Float ferret_thr);
        ("x264_max_throughput_rps_before", Json.Float x264_thr_before);
        ("ferret_max_throughput_rps_before", Json.Float ferret_thr_before);
        ("ferret_minor_words_per_request", Json.Float ferret_alloc.Exp_allocs.s_words_per_req);
        ("ferret_minor_words_per_request_before", Json.Float ferret_words_per_req_before);
        ("x264_minor_words_per_request", Json.Float x264_alloc.Exp_allocs.s_words_per_req);
        ("x264_p95_response_s_load08", Json.Float serve.Experiments.p95_response_s);
        ("x264_mean_response_s_load08", Json.Float serve.Experiments.mean_response_s);
        ("completed", Json.Int serve.Experiments.completed);
      ]
      @ latency_fields "x264" serve
      @ latency_fields "ferret" ferret_serve)
  in
  Parcae_obs.Export.write_file "BENCH_sim.json" (Json.to_string json ^ "\n");
  Printf.printf "wrote BENCH_sim.json\n"
