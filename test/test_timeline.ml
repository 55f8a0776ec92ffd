(* The scheduler observatory: timeline partition invariants, attribution
   clamping, critical-path analysis on hand-built traces with known
   answers, the Runtime_events cursor lifecycle, and the doctor's
   self-check — its measured speedup must land on its own critical-path
   bound on the deterministic simulator. *)

module Machine = Parcae_sim.Machine
module Timeline = Parcae_obs.Timeline
module Critpath = Parcae_obs.Critpath
module Runtime_ev = Parcae_obs.Runtime_ev
module Event = Parcae_obs.Event
module Doctor = Parcae_workloads.Doctor
module Diag = Parcae_analysis.Diag

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let sum_by_state (b : Timeline.lane_breakdown) = Array.fold_left ( + ) 0 b.Timeline.by_state
let share_sum (b : Timeline.lane_breakdown) = Array.fold_left ( +. ) 0.0 b.Timeline.shares

(* ---- timeline: live transitions partition wall time exactly ---- *)

let test_partition () =
  let tl = Timeline.create ~lanes:2 ~now:0 () in
  Timeline.enter tl ~lane:0 ~now:100 Timeline.Run;
  Timeline.enter tl ~lane:0 ~now:350 Timeline.Steal_search;
  Timeline.enter tl ~lane:0 ~now:400 Timeline.Run;
  Timeline.enter tl ~lane:1 ~now:50 Timeline.Run;
  let bds = Timeline.breakdown tl ~until:1000 in
  Array.iter
    (fun b ->
      check_int "by_state sums to wall" b.Timeline.wall_ns (sum_by_state b);
      Alcotest.(check (float 0.0001)) "shares sum to 1" 1.0 (share_sum b))
    bds;
  let b0 = bds.(0) in
  check_int "lane 0 run ns" (250 + 600) b0.Timeline.by_state.(Timeline.state_index Timeline.Run);
  check_int "lane 0 park ns" 100 b0.Timeline.by_state.(Timeline.state_index Timeline.Park);
  check_int "lane 0 steal ns" 50
    b0.Timeline.by_state.(Timeline.state_index Timeline.Steal_search)

(* Consecutive spans are contiguous, a transition into the open state
   merges into it, and a clock that races backwards is clamped to the open
   span's start.  Each shows in the per-state totals: had the Run at 40
   closed and reopened the span, the two late readings would clamp to 40
   and leave Run 40, Park 10; had the Park at 25 not been clamped, Run
   would lose 5 ns. *)
let test_spans_contiguous () =
  let tl = Timeline.create ~lanes:1 ~now:0 () in
  Timeline.enter tl ~lane:0 ~now:10 Timeline.Run;
  Timeline.enter tl ~lane:0 ~now:40 Timeline.Run;
  (* merge: no-op *)
  Timeline.enter tl ~lane:0 ~now:20 Timeline.Park;
  Timeline.enter tl ~lane:0 ~now:30 Timeline.Run;
  Timeline.enter tl ~lane:0 ~now:25 Timeline.Park;
  (* racing clock: clamped to 30 *)
  let b = (Timeline.breakdown tl ~until:50).(0) in
  check_int "contiguous: the states partition the wall" 50 (sum_by_state b);
  check_int "run: 10..20 after the merge, 30..30 after the clamp" 10
    b.Timeline.by_state.(Timeline.state_index Timeline.Run);
  check_int "park: 0..10, 20..30 and 30..50" 40
    b.Timeline.by_state.(Timeline.state_index Timeline.Park)

(* The totals stay exact however many transitions a lane records, and a
   transition stores nothing of its own: the timeline is as large after
   100 000 transitions as after 10.  Lane 1 takes no attribution, so its
   totals must equal the durations the test adds up itself. *)
let test_totals_exact_at_scale () =
  let tl = Timeline.create ~lanes:2 ~now:0 () in
  let state i =
    match i mod 3 with 0 -> Timeline.Run | 1 -> Timeline.Park | _ -> Timeline.Steal_search
  in
  let model = Array.make Timeline.n_states 0 in
  let cur = ref Timeline.Park and since = ref 0 in
  let step i =
    let now = i * 7 and st = state (i / 2) in
    Timeline.enter tl ~lane:0 ~now st;
    Timeline.enter tl ~lane:1 ~now st;
    if st <> !cur then begin
      let k = Timeline.state_index !cur in
      model.(k) <- model.(k) + (now - !since);
      cur := st;
      since := now
    end;
    if i mod 5 = 0 then Timeline.attribute tl ~lane:0 Timeline.Chan_wait 3;
    if i mod 11 = 0 then Timeline.attribute tl ~lane:0 Timeline.Gc 5;
    if i mod 13 = 0 then Timeline.attribute tl ~lane:0 Timeline.Reconfig 9
  in
  for i = 1 to 10 do
    step i
  done;
  let words = Obj.reachable_words (Obj.repr tl) in
  for i = 11 to 100_000 do
    step i
  done;
  check_int "reachable words after 100 000 transitions" words (Obj.reachable_words (Obj.repr tl));
  let until = 700_003 in
  let k = Timeline.state_index !cur in
  model.(k) <- model.(k) + (until - !since);
  let bds = Timeline.breakdown tl ~until in
  Array.iter
    (fun b ->
      check_int "by_state sums to wall exactly" until (sum_by_state b);
      Alcotest.(check (float 1e-9)) "shares sum to 1" 1.0 (share_sum b))
    bds;
  check_bool "attribution moved time on lane 0" true
    (bds.(0).Timeline.by_state.(Timeline.state_index Timeline.Chan_wait) > 0);
  Alcotest.(check (array int)) "lane 1's totals are the summed durations" model
    bds.(1).Timeline.by_state

(* ---- attribution: zero-sum, clamped at donor holdings ---- *)

let test_attribute_clamp () =
  let tl = Timeline.create ~lanes:1 ~now:0 () in
  Timeline.enter tl ~lane:0 ~now:600 Timeline.Run;
  (* 600 park, then 400 run *)
  (* Over-report: 10x more chan wait than the lane's idle time.  Waits
     draw from idle states only, so Run's 400ns must survive. *)
  Timeline.attribute tl ~lane:0 Timeline.Chan_wait 6000;
  let b = (Timeline.breakdown tl ~until:1000).(0) in
  check_int "partition survives over-attribution" 1000 (sum_by_state b);
  check_int "chan_wait clamped to idle holdings" 600
    b.Timeline.by_state.(Timeline.state_index Timeline.Chan_wait);
  check_int "run untouched by wait attribution" 400
    b.Timeline.by_state.(Timeline.state_index Timeline.Run)

let test_attribute_gc_takes_run_first () =
  let tl = Timeline.create ~lanes:1 ~now:0 () in
  Timeline.enter tl ~lane:0 ~now:200 Timeline.Run;
  (* 200 park, 800 run *)
  Timeline.attribute tl ~lane:0 Timeline.Gc 300;
  let b = (Timeline.breakdown tl ~until:1000).(0) in
  check_int "gc" 300 b.Timeline.by_state.(Timeline.state_index Timeline.Gc);
  check_int "gc displaced run" 500 b.Timeline.by_state.(Timeline.state_index Timeline.Run);
  check_int "park kept" 200 b.Timeline.by_state.(Timeline.state_index Timeline.Park);
  check_int "partition" 1000 (sum_by_state b)

(* ---- critical path on hand-built traces with known answers ---- *)

let ev t kind = Event.make ~t kind

(* Producer computes 100ns then sends; consumer computes 10ns before the
   receive and 40ns after.  Path: producer's 100 + consumer's post-recv 40. *)
let test_critpath_pipeline () =
  let events =
    [
      ev 0 (Event.Task_spawn { task = 1; parent = -1; name = "p" });
      ev 1 (Event.Task_spawn { task = 2; parent = -1; name = "c" });
      ev 2 (Event.Chan_send_ev { chan = "q"; seq = 0; task = 1; busy_ns = 100 });
      ev 3 (Event.Chan_recv_ev { chan = "q"; seq = 0; task = 2; busy_ns = 10 });
      ev 4 (Event.Task_done { task = 1; busy_ns = 100 });
      ev 5 (Event.Task_done { task = 2; busy_ns = 50 });
    ]
  in
  let r = Critpath.analyze events in
  check_int "total work" 150 r.Critpath.total_work_ns;
  check_int "critical path" 140 r.Critpath.critical_path_ns;
  check_int "tasks" 2 r.Critpath.tasks;
  check_int "edges" 1 r.Critpath.edges;
  check_int "unmatched" 0 r.Critpath.unmatched_recvs;
  Alcotest.(check (option string)) "bottleneck" (Some "p") (Critpath.bottleneck r);
  Alcotest.(check (float 0.001)) "bound" (150.0 /. 140.0) r.Critpath.bound

(* Two independent 100ns children under a 0-work parent: perfectly
   parallel, bound = 2. *)
let test_critpath_fanout () =
  let events =
    [
      ev 0 (Event.Task_spawn { task = 1; parent = -1; name = "main" });
      ev 1 (Event.Task_spawn { task = 2; parent = 1; name = "a" });
      ev 2 (Event.Task_spawn { task = 3; parent = 1; name = "b" });
      ev 3 (Event.Task_done { task = 2; busy_ns = 100 });
      ev 4 (Event.Task_done { task = 3; busy_ns = 100 });
      ev 5 (Event.Task_done { task = 1; busy_ns = 0 });
    ]
  in
  let r = Critpath.analyze events in
  check_int "total work" 200 r.Critpath.total_work_ns;
  check_int "critical path" 100 r.Critpath.critical_path_ns;
  Alcotest.(check (float 0.001)) "bound" 2.0 r.Critpath.bound;
  (* The winning chain is entirely one child's compute (ties keep the
     first chain considered), so it dominates its own path. *)
  Alcotest.(check (option string)) "bottleneck" (Some "a") (Critpath.bottleneck r)

(* A receive whose send fell outside the trace is skipped, not fatal. *)
let test_critpath_unmatched () =
  let events =
    [
      ev 0 (Event.Task_spawn { task = 1; parent = -1; name = "c" });
      ev 1 (Event.Chan_recv_ev { chan = "q"; seq = 7; task = 1; busy_ns = 5 });
      ev 2 (Event.Task_done { task = 1; busy_ns = 30 });
    ]
  in
  let r = Critpath.analyze events in
  check_int "unmatched recv counted" 1 r.Critpath.unmatched_recvs;
  check_int "chain still bounds" 30 r.Critpath.critical_path_ns

(* ---- Runtime_events cursor lifecycle ---- *)

let test_cursor_lifecycle () =
  let n0 = Runtime_ev.live_cursors () in
  let t = Runtime_ev.start () in
  check_int "cursor live" (n0 + 1) (Runtime_ev.live_cursors ());
  ignore (Runtime_ev.poll t);
  Runtime_ev.stop t;
  check_int "cursor freed" n0 (Runtime_ev.live_cursors ());
  Runtime_ev.stop t;
  (* idempotent *)
  check_int "double stop safe" n0 (Runtime_ev.live_cursors ())

(* ---- the doctor ---- *)

(* On the deterministic simulator the doctor's measured speedup must hit
   its own critical-path bound once the DoP saturates the workload (the
   curve flattens at the bound, not below it), and every lane's shares
   must sum to 1 at every DoP. *)
let test_doctor_sim_bound () =
  let r =
    Doctor.run ~items:60 ~work_ns:200_000 ~dops:[ 1; 8 ]
      ~backend:(`Sim Machine.xeon_x7460) ()
  in
  check_int "leak-free" 0 r.Doctor.leaked_cursors;
  List.iter
    (fun (d : Doctor.dop_result) ->
      Array.iter
        (fun b ->
          Alcotest.(check (float 0.01))
            (Printf.sprintf "dop %d lane shares sum to 1" d.Doctor.dop)
            1.0 (share_sum b))
        d.Doctor.lanes)
    r.Doctor.results;
  match List.rev r.Doctor.results with
  | [] -> Alcotest.fail "no results"
  | last :: _ ->
      let bound = last.Doctor.crit.Critpath.bound in
      check_bool
        (Printf.sprintf "saturated: measured %.3f within 10%% of bound %.3f"
           last.Doctor.speedup bound)
        true
        (Float.abs (last.Doctor.speedup -. bound) /. bound < 0.10)

(* With the pool pinned to one domain, the doctor must attribute the flat
   native curve to the spawned-domains shortfall — and leak nothing. *)
let test_doctor_native_shortfall () =
  let r =
    Doctor.run ~items:20 ~work_ns:100_000 ~dops:[ 1; 2 ] ~backend:(`Native (Some 1)) ()
  in
  check_int "leak-free" 0 r.Doctor.leaked_cursors;
  check_bool "D101 diagnosed as an error" true
    (List.exists
       (fun (d : Diag.t) -> d.Diag.code = "D101" && d.Diag.severity = Diag.Error)
       r.Doctor.findings);
  List.iter
    (fun (d : Doctor.dop_result) ->
      Array.iter
        (fun b ->
          Alcotest.(check (float 0.01)) "native lane shares sum to 1" 1.0 (share_sum b))
        d.Doctor.lanes)
    r.Doctor.results

let suite =
  [
    ("timeline: states partition wall time", `Quick, test_partition);
    ("timeline: spans contiguous, merged, clamped", `Quick, test_spans_contiguous);
    ("timeline: totals exact at scale, size constant", `Quick, test_totals_exact_at_scale);
    ("timeline: wait attribution clamps to idle", `Quick, test_attribute_clamp);
    ("timeline: gc attribution displaces run", `Quick, test_attribute_gc_takes_run_first);
    ("critpath: pipeline with known answer", `Quick, test_critpath_pipeline);
    ("critpath: perfect fan-out bound", `Quick, test_critpath_fanout);
    ("critpath: unmatched recv tolerated", `Quick, test_critpath_unmatched);
    ("runtime_ev: cursor lifecycle is leak-free", `Quick, test_cursor_lifecycle);
    ("doctor: sim speedup matches own bound", `Quick, test_doctor_sim_bound);
    ("doctor: native shortfall diagnosed at pool=1", `Quick, test_doctor_native_shortfall);
  ]
