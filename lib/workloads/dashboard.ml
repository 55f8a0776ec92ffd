(* A live ASCII dashboard over the metrics registry — `parcae_demo top`.

   Rendering is a pure function of a registry snapshot, grouped by
   instrument kind into Parcae_util.Table blocks; a refresher thread on the
   simulated clock re-renders every [interval_ns] of virtual time.  The
   refresher is itself a simulated thread, so it perturbs the engine's
   live-thread count (and hence anything derived from it, like the
   oversubscription factor) — fine for an interactive top, but determinism
   tests must not run one. *)

module Engine = Parcae_platform.Engine
module Obs = Parcae_obs.Metrics
module Timeline = Parcae_obs.Timeline
module Hb = Parcae_obs.Hb
module Span = Parcae_obs.Span
module Pool = Parcae_core.Pool
module Table = Parcae_util.Table

let label_string = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) labels)
      ^ "}"

let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.4g" v

(* The scheduler panel: per-lane utilization shares from the installed
   timeline, one row per lane plus the wall-weighted merge.  Rendered only
   while a timeline is installed, so `top` without one is unchanged. *)
let scheduler_panel ~now_ns tl =
  let bds = Timeline.breakdown tl ~until:now_ns in
  let t =
    Table.create ~title:"scheduler"
      ~header:("lane" :: List.map Timeline.state_name Timeline.all_states)
  in
  let cell f = Printf.sprintf "%.1f%%" (100.0 *. f) in
  Array.iter
    (fun (lb : Timeline.lane_breakdown) ->
      Table.add_row t
        (string_of_int lb.Timeline.lane
        :: List.map
             (fun st -> cell lb.Timeline.shares.(Timeline.state_index st))
             Timeline.all_states))
    bds;
  let merged = Timeline.merged_shares bds in
  Table.add_row t
    ("all" :: List.map (fun st -> cell (List.assoc st merged)) Timeline.all_states);
  Table.render t

(* The sanitizer panel: live happens-before tracker totals, one row per
   statistic.  Rendered only while a tracker is installed (a `sanitize`
   run), so `top` without one is unchanged — the tracker's throughput
   counters additionally flow into the registry and appear in the counter
   table like any other instrument. *)
let sanitizer_panel tr =
  let t = Table.create ~title:"sanitizer" ~header:[ "statistic"; "value" ] in
  let pairs = Hb.pairs tr in
  let raced = List.length (List.filter (fun (p : Hb.pair) -> p.Hb.p_raced > 0) pairs) in
  Table.add_row t [ "accesses checked"; string_of_int (Hb.access_count tr) ];
  Table.add_row t [ "tasks tracked"; string_of_int (Hb.task_count tr) ];
  Table.add_row t [ "collision pairs"; string_of_int (List.length pairs) ];
  Table.add_row t [ "racing pairs"; string_of_int raced ];
  Table.add_row t [ "race occurrences"; string_of_int (Hb.race_count tr) ];
  Table.render t

(* The latency panel: the span collector's tail-latency ladder, one row
   per phase plus the end-to-end total, with span-ring drop accounting.
   Rendered only while a collector has completions (DESIGN.md
   section 15). *)
let latency_panel sc =
  let t =
    Table.create ~title:"latency (request spans)"
      ~header:[ "phase"; "p50"; "p90"; "p99"; "p999"; "mean" ]
  in
  let ns v = Printf.sprintf "%.3fms" (float_of_int v /. 1e6) in
  let nsf v = Printf.sprintf "%.3fms" (v /. 1e6) in
  Table.add_row t
    [
      "total";
      ns (Span.quantile_ns sc 0.5);
      ns (Span.quantile_ns sc 0.9);
      ns (Span.quantile_ns sc 0.99);
      ns (Span.quantile_ns sc 0.999);
      nsf (Span.mean_ns sc);
    ];
  List.iter
    (fun p ->
      Table.add_row t
        [
          Span.phase_name p;
          ns (Span.phase_quantile_ns sc p 0.5);
          ns (Span.phase_quantile_ns sc p 0.9);
          ns (Span.phase_quantile_ns sc p 0.99);
          ns (Span.phase_quantile_ns sc p 0.999);
          nsf (Span.phase_mean_ns sc p);
        ])
    Span.all_phases;
  Table.add_row t
    [ "completed"; string_of_int (Span.completed sc); ""; ""; "";
      Printf.sprintf "drops %d" (Span.drops sc) ];
  Table.render t

(* The pool panel: freelist hit rates, one row per pool, and the minor
   words allocated since the registry was first sampled (DESIGN.md
   section 14).  Rendered only when at least
   one pool exists, so `top` on pool-free programs is unchanged. *)
let pool_panel () =
  match Pool.stats () with
  | [] -> None
  | stats ->
      let t =
        Table.create ~title:"pools / allocation"
          ~header:[ "pool"; "hits"; "misses"; "hit%"; "free" ]
      in
      List.iter
        (fun (s : Pool.stats) ->
          let total = s.Pool.st_hits + s.Pool.st_misses in
          let rate =
            if total = 0 then "-"
            else Printf.sprintf "%.1f%%" (100.0 *. float_of_int s.Pool.st_hits /. float_of_int total)
          in
          Table.add_row t
            [
              s.Pool.st_name;
              string_of_int s.Pool.st_hits;
              string_of_int s.Pool.st_misses;
              rate;
              string_of_int s.Pool.st_free;
            ])
        stats;
      Table.add_row t
        [ "minor words (session)"; string_of_int (Pool.session_minor_words ()); ""; ""; "" ];
      Some (Table.render t)

(* Render one registry snapshot as counter / gauge / summary tables.
   Series order comes from Metrics.snapshot, so the output is deterministic
   and diffable across refreshes. *)
let render ?(title = "parcae top") ~now_s reg =
  let fams = Obs.snapshot reg in
  let counters = Table.create ~title:(Printf.sprintf "%s — counters (t=%.3fs)" title now_s)
      ~header:[ "counter"; "value" ]
  and gauges = Table.create ~title:"gauges" ~header:[ "gauge"; "value" ]
  and summaries =
    Table.create ~title:"summaries"
      ~header:[ "summary"; "count"; "mean"; "p50"; "p90"; "p99"; "p999" ]
  in
  let n_counters = ref 0 and n_gauges = ref 0 and n_summaries = ref 0 in
  List.iter
    (fun (f : Obs.fam_snapshot) ->
      List.iter
        (fun { Obs.labels; value } ->
          let name = f.Obs.name ^ label_string labels in
          match value with
          | Obs.Counter_v n ->
              incr n_counters;
              Table.add_row counters [ name; string_of_int n ]
          | Obs.Gauge_v g ->
              incr n_gauges;
              Table.add_row gauges [ name; fmt_value g ]
          | Obs.Histogram_v _ -> ()
          | Obs.Summary_v { quantiles; sum; count } ->
              incr n_summaries;
              let q p =
                match List.assoc_opt p quantiles with
                | Some v -> fmt_value v
                | None -> "-"
              in
              let mean = if count = 0 then 0.0 else sum /. float_of_int count in
              Table.add_row summaries
                [
                  name;
                  string_of_int count;
                  fmt_value mean;
                  q 0.5;
                  q 0.9;
                  q 0.99;
                  q 0.999;
                ])
        f.Obs.samples)
    fams;
  let parts =
    List.filter_map
      (fun (n, t) -> if !n > 0 then Some (Table.render t) else None)
      [ (n_counters, counters); (n_gauges, gauges); (n_summaries, summaries) ]
  in
  let parts =
    match Timeline.get () with
    | Some tl ->
        parts @ [ scheduler_panel ~now_ns:(int_of_float (now_s *. 1e9)) tl ]
    | None -> parts
  in
  let parts =
    match Hb.get () with Some tr -> parts @ [ sanitizer_panel tr ] | None -> parts
  in
  let parts =
    match Span.get () with
    | Some sc when Span.completed sc > 0 -> parts @ [ latency_panel sc ]
    | _ -> parts
  in
  let parts = match pool_panel () with Some p -> parts @ [ p ] | None -> parts in
  match parts with
  | [] -> Printf.sprintf "%s — no metrics recorded (t=%.3fs)\n" title now_s
  | parts -> String.concat "\n" parts

(* Spawn the refresher thread: every [interval_ns] of virtual time, force
   the engine's energy/busy-time accounting up to date and write a fresh
   render of the installed registry to stdout. *)
let spawn ?title ?(interval_ns = 1_000_000_000) ~stop eng =
  if interval_ns <= 0 then invalid_arg "Dashboard.spawn: interval must be positive";
  Engine.spawn eng ~name:"dashboard" (fun () ->
      while not (stop ()) do
        Engine.sleep interval_ns;
        ignore (Engine.energy_joules eng);
        Pool.sample_allocs ();
        if Obs.enabled () then begin
          print_endline
            (render ?title ~now_s:(Engine.seconds_of_ns (Engine.time eng)) (Obs.current ()))
        end
      done)
