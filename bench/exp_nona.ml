(* Experiments over Nona-compiled programs: Figure 8.8 (run-time control),
   Figure 8.9 (platform-wide optimization of multiple programs),
   Table 8.6 (compiler benchmark speedups), the Morta/Decima overhead
   measurements of Section 8.3.6, and the Chapter 7 ablations. *)

open Parcae_ir
open Parcae_sim

(* Engine/value types come from the platform dispatch layer (the runtime's
   own types); [Machine]/[Power]/etc. remain from [Parcae_sim] above. *)
module Engine = Parcae_platform.Engine
module Chan = Parcae_platform.Chan
module Lock = Parcae_platform.Lock
open Parcae_nona
module R = Parcae_runtime
module Config = Parcae_core.Config
module Table = Parcae_util.Table
module Series = Parcae_util.Series

let machine = Machine.xeon_x7460
let fmt2 v = Printf.sprintf "%.2f" v

let controller_params =
  {
    R.Controller.default_params with
    R.Controller.nseq = 16;
    npar_factor = 16;
    poll_ns = 20_000;
    monitor_ns = 20_000_000;
    change_frac = 0.3;
  }

let state_name code =
  match int_of_float code with 0 -> "INIT" | 1 -> "CALIB" | 2 -> "OPT" | _ -> "MONITOR"

(* Print the controller's state/throughput timeline in the style of
   Figure 8.8: throughput normalized to the INIT-state measurement. *)
let print_controller_timeline title ctl ~t1 =
  let thr = R.Controller.throughputs ctl in
  let states = R.Controller.states ctl in
  let base =
    if Series.length thr > 0 then snd (Series.get thr 0) else 1.0
  in
  let base = if base <= 0.0 then 1.0 else base in
  let t = Table.create ~title ~header:[ "time (s)"; "state"; "normalized throughput" ] in
  let pts = Series.bucketed thr ~t0:0.0 ~t1 ~buckets:20 in
  Array.iter
    (fun (time, v) ->
      (* state = last controller state entered at or before this time *)
      let st = ref 0.0 in
      Series.iter states (fun ts v -> if ts <= time then st := v);
      Table.add_row t [ fmt2 time; state_name !st; fmt2 (v /. base) ])
    pts;
  Table.print t;
  (* The optimization episodes are much shorter than a bucket; list the
     raw state transitions (the solid vertical lines of Figure 8.8). *)
  let transitions = Buffer.create 128 in
  let prev = ref (-1.0) in
  Series.iter states (fun ts v ->
      if v <> !prev then begin
        Buffer.add_string transitions (Printf.sprintf " %.3fs->%s" ts (state_name v));
        prev := v
      end);
  Printf.printf "state transitions:%s
" (Buffer.contents transitions)

(* ------------------------------------------------------------------ *)
(* Figure 8.8: the controller adapting a compiled program.             *)
(* ------------------------------------------------------------------ *)

let fig8_8 () =
  (* (a) Workload change (Section 8.3.2): per-iteration work quadruples at
     t = 0.5 s; the controller must leave MONITOR and re-optimize. *)
  let c = Compiler.compile (Kernels.adaptive ~n:800_000 ~work:60_000 ()) in
  let eng = Engine.create machine in
  let h = Compiler.launch ~budget:24 eng c in
  let ctl = R.Controller.create ~params:controller_params h.Compiler.region in
  ignore (R.Controller.spawn eng ctl);
  let _ =
    Engine.spawn eng ~name:"driver" (fun () ->
        Engine.sleep 1_500_000_000;
        (* The loop only loads the knob, so its working array is the
           loop's own: this write also changes the loop's [knob], which
           [Kernels.adaptive] builds fresh on every call. *)
        (List.assoc "knob" h.Compiler.rs.Flex.arrays).(0) <- 240_000)
  in
  ignore (Engine.run ~until:120_000_000_000 eng);
  Printf.printf
    "Figure 8.8(a): workload change at t=1.50s (work 60us -> 240us); final scheme %s, config %s\n"
    (R.Region.scheme_name h.Compiler.region)
    (Config.to_string (R.Region.config h.Compiler.region));
  print_controller_timeline "Figure 8.8(a): controller states and normalized throughput" ctl
    ~t1:(Engine.seconds_of_ns (Engine.time eng));

  (* (b) Scheme selection (Section 8.3.3): url admits both DOANY and
     PS-DSWP; the controller measures both and keeps the best. *)
  let c = Compiler.compile (Kernels.url ~n:30_000 ()) in
  let eng = Engine.create machine in
  let h = Compiler.launch ~budget:24 eng c in
  let ctl = R.Controller.create ~params:controller_params h.Compiler.region in
  ignore (R.Controller.spawn eng ctl);
  ignore (Engine.run ~until:120_000_000_000 eng);
  Printf.printf
    "Figure 8.8(b): scheme selection on url: schemes {%s}; controller chose %s with config %s\n"
    (String.concat ", " h.Compiler.names)
    (R.Region.scheme_name h.Compiler.region)
    (Config.to_string (R.Region.config h.Compiler.region));
  ignore ctl;

  (* (c) Resource change (Section 8.3.4): the platform withdraws threads at
     t = 0.5 s (budget 24 -> 8). *)
  let c = Compiler.compile (Kernels.blackscholes ~n:900_000 ()) in
  let eng = Engine.create machine in
  let h = Compiler.launch ~budget:24 eng c in
  let ctl = R.Controller.create ~params:controller_params h.Compiler.region in
  ignore (R.Controller.spawn eng ctl);
  let sampled = ref [] in
  let _ =
    Engine.spawn eng ~name:"driver" (fun () ->
        Engine.sleep 500_000_000;
        R.Region.set_budget h.Compiler.region 8;
        R.Controller.notify_resource_change ctl;
        let rec sample () =
          Engine.sleep 500_000_000;
          if not (R.Region.is_done h.Compiler.region) then begin
            sampled :=
              (Engine.seconds_of_ns (Engine.now ()), Config.threads (R.Region.config h.Compiler.region))
              :: !sampled;
            sample ()
          end
        in
        sample ())
  in
  ignore (Engine.run ~until:120_000_000_000 eng);
  Printf.printf "Figure 8.8(c): resource change at t=0.50s (budget 24 -> 8):\n";
  List.iter
    (fun (t, threads) -> Printf.printf "  t=%.2fs threads in use: %d\n" t threads)
    (List.rev !sampled)

(* ------------------------------------------------------------------ *)
(* Figure 8.9: platform-wide optimization of two programs.             *)
(* ------------------------------------------------------------------ *)

let fig8_9 () =
  let eng = Engine.create machine in
  let daemon = R.Daemon.create eng ~total_threads:24 in
  let launch kernel name =
    let c = Compiler.compile kernel in
    let h = Compiler.launch ~budget:24 ~name eng c in
    let ctl = R.Controller.create ~params:controller_params h.Compiler.region in
    R.Daemon.register daemon h.Compiler.region ctl;
    ignore (R.Controller.spawn eng ctl);
    h
  in
  let h1 = launch (Kernels.blackscholes ~n:700_000 ()) "program-1" in
  let h2 = launch (Kernels.kmeans ~n:400_000 ()) "program-2" in
  ignore (R.Daemon.spawn eng daemon);
  let tl = Table.create ~title:"Figure 8.9: two co-scheduled programs under the platform daemon"
      ~header:[ "time (s)"; "p1 budget"; "p1 threads"; "p2 budget"; "p2 threads" ] in
  let _ =
    Engine.spawn eng ~name:"sampler" (fun () ->
        let stop = ref false in
        while not !stop do
          Engine.sleep 400_000_000;
          let row r =
            if R.Region.is_done r then ("-", "-")
            else (string_of_int (R.Region.budget r), string_of_int (Config.threads (R.Region.config r)))
          in
          let b1, t1 = row h1.Compiler.region and b2, t2 = row h2.Compiler.region in
          Table.add_row tl [ fmt2 (Engine.seconds_of_ns (Engine.now ())); b1; t1; b2; t2 ];
          if R.Region.is_done h1.Compiler.region && R.Region.is_done h2.Compiler.region then
            stop := true
        done)
  in
  ignore (Engine.run ~until:200_000_000_000 eng);
  Table.print tl;
  Printf.printf "p1 done=%b semantics=%b; p2 done=%b semantics=%b\n"
    (R.Region.is_done h1.Compiler.region) (Compiler.preserves_semantics h1)
    (R.Region.is_done h2.Compiler.region) (Compiler.preserves_semantics h2)

(* ------------------------------------------------------------------ *)
(* Table 8.6: Nona benchmark speedups.                                 *)
(* ------------------------------------------------------------------ *)

let bench_kernels =
  [
    ("blackscholes", fun () -> Kernels.blackscholes ~n:20_000 ());
    ("crc32", fun () -> Kernels.crc32 ~n:40_000 ());
    ("url", fun () -> Kernels.url ~n:30_000 ());
    ("kmeans", fun () -> Kernels.kmeans ~n:25_000 ());
    ("histogram", fun () -> Kernels.histogram ~n:50_000 ());
    ("montecarlo", fun () -> Kernels.montecarlo ~n:30_000 ());
    ("stringsearch", fun () -> Kernels.stringsearch ~n:30_000 ());
    ("recurrence", fun () -> Kernels.recurrence ~n:1_500_000 ());
  ]

(* Run one compiled kernel under a fixed scheme, returning sim ns. *)
let timed_run ?dop kernel scheme =
  let c = Compiler.compile (kernel ()) in
  let eng = Engine.create machine in
  let h = Compiler.launch ~budget:24 eng c in
  if List.mem scheme h.Compiler.names then begin
    let cfg = Compiler.config_for h ?dop scheme in
    let _ =
      Engine.spawn eng ~name:"driver" (fun () ->
          R.Executor.reconfigure h.Compiler.region cfg;
          R.Executor.await h.Compiler.region)
    in
    ignore (Engine.run eng);
    assert (Compiler.preserves_semantics h);
    Some (Engine.time eng)
  end
  else None

let timed_controller_run kernel =
  let c = Compiler.compile (kernel ()) in
  let eng = Engine.create machine in
  let h = Compiler.launch ~budget:24 eng c in
  let ctl = R.Controller.create ~params:controller_params h.Compiler.region in
  ignore (R.Controller.spawn eng ctl);
  (* Time the region's completion, not the controller's trailing sleep. *)
  let done_at = ref 0 in
  let _ =
    Engine.spawn eng ~name:"watch" (fun () ->
        R.Executor.await h.Compiler.region;
        done_at := Engine.now ())
  in
  ignore (Engine.run ~until:600_000_000_000 eng);
  assert (Compiler.preserves_semantics h);
  (!done_at, R.Region.scheme_name h.Compiler.region, R.Region.config h.Compiler.region)

let tab8_6 () =
  let t =
    Table.create
      ~title:"Table 8.6: Nona kernel speedups over sequential execution (24-thread platform)"
      ~header:
        [ "kernel"; "DOANY x24"; "DOACROSS x24"; "PS-DSWP x22"; "Parcae (controller)";
          "Parcae scheme" ]
  in
  List.iter
    (fun (name, kernel) ->
      let seq = Option.get (timed_run kernel "SEQ") in
      let sp = function None -> "-" | Some ns -> fmt2 (float_of_int seq /. float_of_int ns) ^ "x" in
      let doany = timed_run ~dop:24 kernel "DOANY" in
      let doacross = timed_run ~dop:24 kernel "DOACROSS" in
      let psdswp = timed_run ~dop:22 kernel "PS-DSWP" in
      let ctl_ns, scheme, cfg = timed_controller_run kernel in
      Table.add_row t
        [ name; sp doany; sp doacross; sp psdswp;
          fmt2 (float_of_int seq /. float_of_int ctl_ns) ^ "x";
          Printf.sprintf "%s %s" scheme (Config.to_string cfg) ])
    bench_kernels;
  Table.print t

(* ------------------------------------------------------------------ *)
(* Section 8.3.6: Morta and Decima overheads.                          *)
(* ------------------------------------------------------------------ *)

let tab_overheads () =
  let t =
    Table.create ~title:"Section 8.3.6: Morta/Decima recurring-operation overheads (simulated)"
      ~header:[ "operation"; "cost"; "notes" ]
  in
  (* Monitoring hooks: per rdtsc-pair cost on the evaluation platform. *)
  Table.add_row t
    [ "Decima begin/end hook"; Printf.sprintf "%d ns" machine.Machine.hook;
      "charged per hook invocation (rdtsc)" ];
  Table.add_row t
    [ "Morta status query (get_status)"; "~0 ns"; "shared-memory flag read" ];
  (* Pause latency: force reconfigurations on a pipelined kernel. *)
  let c = Compiler.compile (Kernels.crc32 ~n:60_000 ()) in
  let eng = Engine.create machine in
  let h = Compiler.launch ~budget:24 eng c in
  let _ =
    Engine.spawn eng ~name:"driver" (fun () ->
        let region = h.Compiler.region in
        R.Executor.reconfigure region (Compiler.config_for h ~dop:8 "PS-DSWP");
        let d = ref 8 in
        while not (R.Region.is_done region) do
          Engine.sleep 10_000_000;
          d := (if !d = 8 then 10 else 8);
          if not (R.Region.is_done region) then
            R.Executor.reconfigure region (Compiler.config_for h ~dop:!d "PS-DSWP")
        done)
  in
  ignore (Engine.run eng);
  let reconfigs = R.Region.reconfig_count h.Compiler.region in
  let pause_us =
    if reconfigs = 0 then 0.0
    else float_of_int (R.Region.pause_wait_ns h.Compiler.region) /. float_of_int reconfigs /. 1000.0
  in
  Table.add_row t
    [ "pause + pipeline drain (PS-DSWP crc32)";
      Printf.sprintf "%.0f us avg over %d reconfigs" pause_us reconfigs;
      "bounded channels keep drains short" ];
  let d = R.Region.decima h.Compiler.region in
  Table.add_row t
    [ "Decima iteration accounting";
      Printf.sprintf "%d instances tracked" (R.Decima.iters d 0);
      "one shared-memory increment each" ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* Chapter 7 ablations.                                                *)
(* ------------------------------------------------------------------ *)

let timed_flags_run ~flags kernel scheme dop =
  let c = Compiler.compile (kernel ()) in
  let eng = Engine.create machine in
  let h = Compiler.launch ~flags ~budget:24 eng c in
  let _ =
    Engine.spawn eng ~name:"driver" (fun () ->
        R.Executor.reconfigure h.Compiler.region (Compiler.config_for h ~dop scheme);
        R.Executor.await h.Compiler.region)
  in
  ignore (Engine.run eng);
  assert (Compiler.preserves_semantics h);
  Engine.time eng

let tab7_ablation () =
  let t =
    Table.create ~title:"Chapter 7 ablations: run time with each overhead optimization on/off"
      ~header:[ "optimization"; "kernel/scheme"; "off"; "on"; "improvement" ]
  in
  let on = Flex.default_flags in
  (* 7.4: privatize-and-merge reductions vs per-iteration critical section. *)
  let off = { on with Flex.privatize_reductions = false } in
  let t_off = timed_flags_run ~flags:off Kernels.finegrain "DOANY" 23 in
  let t_on = timed_flags_run ~flags:on Kernels.finegrain "DOANY" 23 in
  Table.add_row t
    [ "reduction privatization (7.4)"; "finegrain / DOANY x23";
      Printf.sprintf "%.1f ms" (float_of_int t_off /. 1e6);
      Printf.sprintf "%.1f ms" (float_of_int t_on /. 1e6);
      fmt2 (float_of_int t_off /. float_of_int t_on) ^ "x" ];
  (* 7.1: hoisting cross-iteration state save/restore out of the loop. *)
  let off = { on with Flex.hoist_state = false } in
  let t_off = timed_flags_run ~flags:off Kernels.statecarry "SEQ" 1 in
  let t_on = timed_flags_run ~flags:on Kernels.statecarry "SEQ" 1 in
  Table.add_row t
    [ "state hoisting (7.1)"; "statecarry / SEQ";
      Printf.sprintf "%.1f ms" (float_of_int t_off /. 1e6);
      Printf.sprintf "%.1f ms" (float_of_int t_on /. 1e6);
      fmt2 (float_of_int t_off /. float_of_int t_on) ^ "x" ];
  (* 7.2/7.3: periodic DoP changes through the full barrier pause vs the
     barrier-less epoch protocol (Figure 7.6). *)
  let steady = timed_flags_run ~flags:on (fun () -> Kernels.blackscholes ~n:30_000 ()) "PS-DSWP" 10 in
  let churn ~light =
    let c = Compiler.compile (Kernels.blackscholes ~n:30_000 ()) in
    let eng = Engine.create machine in
    let h = Compiler.launch ~budget:24 eng c in
    let _ =
      Engine.spawn eng ~name:"driver" (fun () ->
          let region = h.Compiler.region in
          R.Executor.reconfigure region (Compiler.config_for h ~dop:10 "PS-DSWP");
          let d = ref 10 in
          while not (R.Region.is_done region) do
            Engine.sleep 20_000_000;
            d := (if !d = 10 then 9 else 10);
            if (not (R.Region.is_done region)) && R.Region.status region = R.Region.Running
            then begin
              let cfg = Compiler.config_for h ~dop:!d "PS-DSWP" in
              if light then R.Executor.reconfigure region cfg
              else if R.Executor.pause region then R.Executor.resume ~config:cfg region
            end
          done)
    in
    ignore (Engine.run eng);
    let n =
      R.Region.light_resizes h.Compiler.region + R.Region.reconfig_count h.Compiler.region - 1
    in
    (Engine.time eng, max 1 n)
  in
  let full_ns, n_full = churn ~light:false in
  let light_ns, n_light = churn ~light:true in
  Table.add_row t
    [ "barrier-less DoP change (7.2)";
      Printf.sprintf "blackscholes / PS-DSWP, %d + %d reconfigs" n_full n_light;
      Printf.sprintf "%.1f ms (%.0f us/reconfig, full pause)"
        (float_of_int full_ns /. 1e6)
        (float_of_int (full_ns - steady) /. float_of_int n_full /. 1e3);
      Printf.sprintf "%.1f ms (%.0f us/reconfig, epoch switch)"
        (float_of_int light_ns /. 1e6)
        (float_of_int (light_ns - steady) /. float_of_int n_light /. 1e3);
      fmt2 (float_of_int (full_ns - steady) /. float_of_int (max 1 (light_ns - steady))) ^ "x" ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* Both evaluation platforms (Table 8.1): the paper demonstrates gains  *)
(* on two real machines; here the same flexible binaries run on both    *)
(* simulated platforms and the controller adapts to each.               *)
(* ------------------------------------------------------------------ *)

let tab_platforms () =
  let t =
    Table.create
      ~title:"Both platforms: controller-managed speedup over sequential (Table 8.1 machines)"
      ~header:
        [ "kernel"; "Xeon E5310 (8 thr)"; "config"; "Xeon X7460 (24 thr)"; "config" ]
  in
  let run machine kernel =
    let c = Compiler.compile (kernel ()) in
    let eng = Engine.create machine in
    let h = Compiler.launch ~budget:machine.Machine.cores eng c in
    let ctl = R.Controller.create ~params:controller_params h.Compiler.region in
    ignore (R.Controller.spawn eng ctl);
    let done_at = ref 0 in
    let _ =
      Engine.spawn eng ~name:"watch" (fun () ->
          R.Executor.await h.Compiler.region;
          done_at := Engine.now ())
    in
    ignore (Engine.run ~until:600_000_000_000 eng);
    assert (Compiler.preserves_semantics h);
    let seq = (Interp.run (kernel ())).Interp.work_ns in
    ( float_of_int seq /. float_of_int (max 1 !done_at),
      Printf.sprintf "%s %s"
        (R.Region.scheme_name h.Compiler.region)
        (Config.to_string (R.Region.config h.Compiler.region)) )
  in
  List.iter
    (fun (name, kernel) ->
      let s8, c8 = run Machine.xeon_e5310 kernel in
      let s24, c24 = run Machine.xeon_x7460 kernel in
      Table.add_row t [ name; fmt2 s8 ^ "x"; c8; fmt2 s24 ^ "x"; c24 ])
    [
      ("blackscholes", fun () -> Kernels.blackscholes ~n:20_000 ());
      ("crc32", fun () -> Kernels.crc32 ~n:40_000 ());
      ("kmeans", fun () -> Kernels.kmeans ~n:25_000 ());
      ("stringsearch", fun () -> Kernels.stringsearch ~n:30_000 ());
    ];
  Table.print t
