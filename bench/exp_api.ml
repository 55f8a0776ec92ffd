(* Experiments over the Parcae API workloads: Figure 2.4 (motivation),
   Figures 8.1-8.5 (response time vs load), Table 8.5 and Figures 8.6-8.7
   (throughput and power goals), Table 6.1 (mechanism sizes).

   Every experiment prints the same rows/series the paper's figure plots;
   EXPERIMENTS.md records the paper-vs-measured comparison. *)

open Parcae_sim
open Parcae_workloads
module Mech = Parcae_mechanisms
module Table = Parcae_util.Table
module Series = Parcae_util.Series

let machine = Machine.xeon_x7460
let load_factors = [ 0.2; 0.4; 0.6; 0.8; 1.0; 1.2 ]

let mk_transcode ~budget eng = Transcode.make ~budget eng
let mk_swaptions ~budget eng = Swaptions.make ~budget eng
let mk_bzip ~budget eng = Bzip.make ~budget eng
let mk_gimp ~budget eng = Gimp_oilify.make ~budget eng
let mk_ferret ~budget eng = Ferret.make ~budget eng
let mk_dedup ~budget eng = Dedup.make ~budget eng

let fmt3 v = Printf.sprintf "%.3f" v
let fmt2 v = Printf.sprintf "%.2f" v

(* A mechanism by its CLI name, with the parameters the CLI runs. *)
let mech name = List.assoc name Experiments.mechanisms

(* ------------------------------------------------------------------ *)
(* Figure 2.4: execution time / throughput / response time vs load.    *)
(* ------------------------------------------------------------------ *)

let fig2_4 () =
  let maxthr = Experiments.max_throughput ~m:200 ~machine mk_transcode in
  let ta = Table.create ~title:"Figure 2.4(a): x264 execution time (s) vs load"
      ~header:[ "load"; Transcode.static_outer_name; Transcode.static_inner_name ] in
  let tb = Table.create ~title:"Figure 2.4(b): x264 throughput (videos/s) vs load"
      ~header:[ "load"; Transcode.static_outer_name; Transcode.static_inner_name ] in
  let tc = Table.create ~title:"Figure 2.4(c): x264 response time (s) vs load, with DoP oracle"
      ~header:[ "load"; Transcode.static_outer_name; Transcode.static_inner_name; "oracle"; "oracle <l>" ] in
  List.iter
    (fun lf ->
      let rate = lf *. maxthr in
      let outer = Experiments.run_server ~m:250 ~machine ~rate_per_s:rate ~config:(`Named "outer-only") mk_transcode in
      let inner = Experiments.run_server ~m:250 ~machine ~rate_per_s:rate ~config:(`Named "inner-max") mk_transcode in
      (* Oracle: exhaustive search over feasible inner DoPs. *)
      let feasible = [ 1; 2; 3; 4; 6; 8; 12 ] in
      let best =
        List.fold_left
          (fun best dp ->
            let cfg = (Two_level.make_config ~budget:24 Transcode.kind) dp in
            let r = Experiments.run_server ~m:250 ~machine ~rate_per_s:rate ~config:(`Config cfg) mk_transcode in
            match best with
            | Some (_, b) when b.Experiments.mean_response_s <= r.Experiments.mean_response_s -> best
            | _ -> Some (dp, r))
          None feasible
      in
      let odp, obest = Option.get best in
      Table.add_row ta [ fmt2 lf; fmt3 outer.Experiments.mean_exec_s; fmt3 inner.Experiments.mean_exec_s ];
      Table.add_row tb [ fmt2 lf; fmt2 outer.Experiments.throughput_rps; fmt2 inner.Experiments.throughput_rps ];
      Table.add_row tc
        [ fmt2 lf; fmt3 outer.Experiments.mean_response_s; fmt3 inner.Experiments.mean_response_s;
          fmt3 obest.Experiments.mean_response_s; Printf.sprintf "<%d,%d>" (24 / max 1 odp) odp ])
    load_factors;
  Table.print ta;
  Table.print tb;
  Table.print tc

(* ------------------------------------------------------------------ *)
(* Figures 8.1-8.4: response time vs load for the two-level servers.   *)
(* ------------------------------------------------------------------ *)

let response_sweep_nested ~title ~static_outer ~static_inner mk =
  let maxthr = Experiments.max_throughput ~m:200 ~machine mk in
  let t = Table.create ~title
      ~header:[ "load"; static_outer; static_inner; "WQT-H"; "WQ-Linear" ] in
  List.iter
    (fun lf ->
      let rate = lf *. maxthr in
      let run ?mechanism config =
        (Experiments.run_server ~m:250 ~machine ~rate_per_s:rate ?mechanism ~config mk)
          .Experiments.mean_response_s
      in
      Table.add_row t
        [ fmt2 lf;
          fmt3 (run (`Named "outer-only"));
          fmt3 (run (`Named "inner-max"));
          fmt3 (run ?mechanism:(mech "wqt-h") (`Named "inner-max"));
          fmt3 (run ?mechanism:(mech "wq-linear") (`Named "inner-max"))
        ])
    load_factors;
  Table.print t

let fig8_1 () =
  response_sweep_nested ~title:"Figure 8.1: video transcoding response time (s) vs load"
    ~static_outer:Transcode.static_outer_name ~static_inner:Transcode.static_inner_name
    mk_transcode

let fig8_2 () =
  response_sweep_nested ~title:"Figure 8.2: option pricing response time (s) vs load"
    ~static_outer:Swaptions.static_outer_name ~static_inner:Swaptions.static_inner_name
    mk_swaptions

let fig8_3 () =
  response_sweep_nested ~title:"Figure 8.3: data compression response time (s) vs load"
    ~static_outer:Bzip.static_outer_name ~static_inner:Bzip.static_inner_name mk_bzip

let fig8_4 () =
  response_sweep_nested ~title:"Figure 8.4: image editing response time (s) vs load"
    ~static_outer:Gimp_oilify.static_outer_name ~static_inner:Gimp_oilify.static_inner_name
    mk_gimp

(* ------------------------------------------------------------------ *)
(* Figure 8.5: ferret response time vs load.                           *)
(* ------------------------------------------------------------------ *)

let fig8_5 () =
  let maxthr = Experiments.max_throughput ~m:300 ~machine mk_ferret in
  let t =
    Table.create ~title:"Figure 8.5: image search response time (s) vs load"
      ~header:[ "load"; "(PIPE,<1,6,6,6,6,1>)"; "(PIPE,<1,24,24,24,24,1>)"; "WQT-H"; "WQ-Linear" ]
  in
  List.iter
    (fun lf ->
      let rate = lf *. maxthr in
      let run ?mechanism config =
        (Experiments.run_server ~m:1500 ~machine ~rate_per_s:rate ?mechanism
           ~period_ns:100_000_000 ~config mk_ferret)
          .Experiments.mean_response_s
      in
      Table.add_row t
        [ fmt2 lf;
          fmt3 (run (`Named "even"));
          fmt3 (run (`Named "oversubscribed"));
          fmt3 (run ?mechanism:(mech "wqt-h") (`Named "even"));
          fmt3 (run ?mechanism:(mech "wq-linear") (`Named "even"))
        ])
    load_factors;
  Table.print t

(* ------------------------------------------------------------------ *)
(* Table 8.5: throughput improvement over the static even distribution. *)
(* ------------------------------------------------------------------ *)

let tab8_5 () =
  let t =
    Table.create
      ~title:"Table 8.5: throughput improvement over static even thread distribution"
      ~header:[ "mechanism"; "ferret"; "dedup"; "ferret (paper)"; "dedup (paper)" ]
  in
  let m = 12_000 in
  let measure mk =
    let base, _, _ = Experiments.run_batch ~m ~machine ~config:(`Named "even") mk in
    let base = base.Experiments.throughput_rps in
    let ratio ?mechanism ?(period_ns = 100_000_000) config =
      let r, _, _ = Experiments.run_batch ~m ~machine ?mechanism ~period_ns ~config mk in
      r.Experiments.throughput_rps /. base
    in
    [
      ("Pthreads-Baseline", 1.0);
      ("Pthreads-OS", ratio (`Named "oversubscribed"));
      ("Parcae-SEDA", ratio ?mechanism:(mech "seda") ~period_ns:50_000_000 (`Named "single"));
      ("Parcae-FDP", ratio ?mechanism:(mech "fdp") ~period_ns:50_000_000 (`Named "even"));
      ("Parcae-TB", ratio ?mechanism:(mech "tb") (`Named "even"));
      ("Parcae-TBF", ratio ?mechanism:(mech "tbf") (`Named "even"));
    ]
  in
  let ferret = measure mk_ferret and dedup = measure mk_dedup in
  let paper = [ ("Pthreads-Baseline", (1.00, 1.00)); ("Pthreads-OS", (2.12, 0.89));
                ("Parcae-SEDA", (1.64, 1.16)); ("Parcae-FDP", (2.14, 2.08));
                ("Parcae-TB", (1.96, 1.75)); ("Parcae-TBF", (2.35, 2.36)) ] in
  List.iter2
    (fun (name, f) (_, d) ->
      let pf, pd = List.assoc name paper in
      Table.add_row t
        [ name; fmt2 f ^ "x"; fmt2 d ^ "x"; fmt2 pf ^ "x"; fmt2 pd ^ "x" ])
    ferret dedup;
  Table.print t

(* ------------------------------------------------------------------ *)
(* Figure 8.6: ferret throughput timeline under TBF.                   *)
(* ------------------------------------------------------------------ *)

let print_series title unit series ~buckets =
  let t = Table.create ~title ~header:[ "time (s)"; unit ] in
  (match (Series.length series, Series.last series) with
  | 0, _ | _, None -> ()
  | _, Some (t1, _) ->
      let pts = Series.bucketed series ~t0:0.0 ~t1 ~buckets in
      Array.iter (fun (time, v) -> Table.add_row t [ fmt2 time; fmt2 v ]) pts);
  Table.print t

let fig8_6 () =
  let _, thr, _ =
    Experiments.run_batch ~m:30_000 ~machine ~config:(`Named "single")
      ~period_ns:500_000_000 ~sample_ns:1_000_000_000
      ~mechanism:(fun app -> Mech.Tbf.make ?fused_choice:app.App.fused_choice ~warmup:100 ())
      mk_ferret
  in
  print_series "Figure 8.6: ferret throughput (queries/s) under TBF" "queries/s" thr ~buckets:24

(* ------------------------------------------------------------------ *)
(* Figure 8.7: ferret power-throughput under TPC.                      *)
(* ------------------------------------------------------------------ *)

let fig8_7 () =
  let target = 0.9 *. Machine.peak_power machine in
  let res, thr, power =
    Experiments.run_batch ~m:120_000 ~machine ~config:(`Named "single")
      ~period_ns:2_000_000_000 ~sample_ns:4_000_000_000 ~power_sensor_period:2_000_000_000
      ?mechanism:(mech "tpc") mk_ferret
  in
  Printf.printf "Figure 8.7: target power %.0f W (90%% of peak %.0f W); achieved %.0f queries/s\n"
    target (Machine.peak_power machine) res.Experiments.throughput_rps;
  print_series "Figure 8.7a: ferret throughput (queries/s) under TPC" "queries/s" thr ~buckets:24;
  print_series "Figure 8.7b: platform power (W) under TPC" "watts" power ~buckets:24

(* ------------------------------------------------------------------ *)
(* Table 6.1 / 8.4: lines of code per mechanism.                       *)
(* ------------------------------------------------------------------ *)

let count_loc path =
  try
    let ic = open_in path in
    let n = ref 0 in
    let in_comment = ref false in
    (try
       while true do
         let line = String.trim (input_line ic) in
         let starts p = String.length line >= String.length p && String.sub line 0 (String.length p) = p in
         if !in_comment then begin
           if String.length line >= 2 && String.sub line (String.length line - 2) 2 = "*)" then
             in_comment := false
         end
         else if line = "" then ()
         else if starts "(*" then begin
           if not (String.length line >= 2 && String.sub line (String.length line - 2) 2 = "*)") then
             in_comment := true
         end
         else incr n
       done
     with End_of_file -> ());
    close_in ic;
    Some !n
  with Sys_error _ -> None

let tab6_1 () =
  let t =
    Table.create ~title:"Table 6.1 / 8.4: mechanism implementation size (non-comment LoC)"
      ~header:[ "mechanism"; "LoC (this repo)"; "LoC (paper)" ]
  in
  let roots = [ "lib/mechanisms"; "../lib/mechanisms"; "../../lib/mechanisms" ] in
  let find file =
    List.fold_left
      (fun acc root -> match acc with Some _ -> acc | None -> count_loc (Filename.concat root file))
      None roots
  in
  List.iter
    (fun (name, file, paper) ->
      let loc = match find file with Some n -> string_of_int n | None -> "n/a" in
      Table.add_row t [ name; loc; string_of_int paper ])
    [
      ("WQT-H", "wqt_h.ml", 28);
      ("WQ-Linear", "wq_linear.ml", 9);
      ("TBF", "tbf.ml", 89);
      ("FDP", "fdp.ml", 94);
      ("SEDA", "seda.ml", 30);
      ("TPC", "tpc.ml", 154);
    ];
  Table.print t
