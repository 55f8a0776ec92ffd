(* The scheduler doctor — `parcae_demo doctor`.

   A DoP sweep over a synthetic three-stage pipeline with the whole
   observatory attached, followed by rule-based diagnosis of the scaling
   curve.  The pipeline is produce | transform^DoP | consume with the
   consumer at a quarter of the transform cost, so its speedup bound is
   closed-form: with [n] items, transform cost [w] and consumer cost [c],
   total work is [n*(w+c)] and the critical path is ~[w + n*c] (the first
   item's transform, then the serial consumer chain).  The measured
   critical path from the trace should land on that analytic answer —
   which is how the doctor's own instruments are validated in the test
   suite. *)

module Engine = Parcae_platform.Engine
module Chan = Parcae_platform.Chan
module Machine = Parcae_sim.Machine
module Timeline = Parcae_obs.Timeline
module Critpath = Parcae_obs.Critpath
module Runtime_ev = Parcae_obs.Runtime_ev
module Trace = Parcae_obs.Trace
module Sink = Parcae_obs.Sink
module Json = Parcae_obs.Json
module Table = Parcae_util.Table
module Diag = Parcae_analysis.Diag

type backend = [ `Sim of Machine.t | `Native of int option ]

type dop_result = {
  dop : int;
  wall_ns : int;
  speedup : float;
  crit : Critpath.report;
  lanes : Timeline.lane_breakdown array;
  merged : (Timeline.state * float) list;
  steals : int;
  steal_attempts : int;
  span_drops : int;
  gc : Runtime_ev.stats option;
}

type report = {
  backend_name : string;
  host_domains : int;
  requested_domains : int;
  spawned_domains : int;
  items : int;
  work_ns : int;
  sink_ns : int;
  results : dop_result list;
  findings : Diag.t list;
  leaked_cursors : int;
}

(* One measured run: fresh engine, fresh timeline and trace sink, GC
   consumer on native.  Sentinel [-1] items stop the transforms; the
   consumer counts items, so the engine drains without a control plane. *)
let run_one ~backend ~items ~work_ns ~sink_ns ~pool dop =
  let eng =
    match backend with
    | `Sim m -> Engine.create m
    | `Native _ -> Engine.create_native ~pool ()
  in
  let lanes = max 1 (Engine.machine eng).Machine.cores in
  let tl = Timeline.create ~lanes ~now:(Engine.time eng) () in
  let sink = Sink.create ~capacity:65_536 () in
  Timeline.with_timeline tl @@ fun () ->
  Trace.with_sink sink @@ fun () ->
  let re = if Engine.is_native eng then Some (Runtime_ev.start ()) else None in
  let ch_in = Chan.create ~capacity:(4 * dop) eng "doctor-in" in
  let ch_out = Chan.create ~capacity:(4 * dop) eng "doctor-out" in
  let t0 = Engine.time eng in
  ignore
    (Engine.spawn eng ~name:"produce" (fun () ->
         for i = 1 to items do
           Chan.send ch_in i
         done;
         for _ = 1 to dop do
           Chan.send ch_in (-1)
         done));
  for k = 1 to dop do
    ignore
      (Engine.spawn eng ~name:(Printf.sprintf "transform-%d" k) (fun () ->
           let rec loop () =
             if Chan.recv ch_in >= 0 then begin
               Engine.compute work_ns;
               Chan.send ch_out ();
               loop ()
             end
           in
           loop ()))
  done;
  ignore
    (Engine.spawn eng ~name:"consume" (fun () ->
         for _ = 1 to items do
           Chan.recv ch_out;
           Engine.compute sink_ns
         done));
  ignore (Engine.run eng);
  let wall_ns = max 1 (Engine.time eng - t0) in
  (* [stop] performs the final poll before freeing the cursor. *)
  Option.iter Runtime_ev.stop re;
  let lanes_bd = Timeline.breakdown tl ~until:(Engine.time eng) in
  let crit = Critpath.analyze (Sink.events sink) in
  let steals, steal_attempts =
    match Engine.native_engine eng with
    | Some ne ->
        (Parcae_native.Engine.steal_count ne, Parcae_native.Engine.steal_attempt_count ne)
    | None -> (0, 0)
  in
  Engine.shutdown eng;
  let span_drops = ref 0 in
  Array.iteri (fun i _ -> span_drops := !span_drops + Timeline.span_drops tl ~lane:i) lanes_bd;
  {
    dop;
    wall_ns;
    speedup = float_of_int crit.Critpath.total_work_ns /. float_of_int wall_ns;
    crit;
    lanes = lanes_bd;
    merged = Timeline.merged_shares lanes_bd;
    steals;
    steal_attempts;
    span_drops = !span_drops;
    gc = Option.map Runtime_ev.stats re;
  }

let share merged st = try List.assoc st merged with Not_found -> 0.0
let pct f = 100.0 *. f

(* ------------------------------------------------------------------ *)
(* Diagnosis rules.  Stable codes so tests and CI can assert on them.  *)
(* ------------------------------------------------------------------ *)

let diagnose r =
  let fs = ref [] in
  let add d = fs := d :: !fs in
  let last = List.nth r.results (List.length r.results - 1) in
  let first = List.hd r.results in
  (* D101: the platform cannot host the parallelism the sweep asked for —
     the usual reason a native scaling curve is flat on a small host. *)
  if r.backend_name = "native" && r.spawned_domains < r.requested_domains then
    add
      (Diag.error "D101"
         "spawned_domains shortfall: %d domain(s) for %d requested (host recommends %d) — \
          DoP beyond %d adds no parallelism on this host"
         r.spawned_domains r.requested_domains r.host_domains r.spawned_domains);
  (* D100: the headline symptom, when the sweep has a curve to look at. *)
  if List.length r.results > 1 && last.speedup < 1.2 *. first.speedup then
    add
      (Diag.warning "D100" "flat scaling: %.2fx at DoP %d vs %.2fx at DoP %d" last.speedup
         last.dop first.speedup first.dop);
  (* D102: stealing mostly finds empty deques.  Informational — with a few
     coarse stages per domain that is the expected steady state. *)
  if last.steal_attempts > 100 then begin
    let fail =
      1.0 -. (float_of_int last.steals /. float_of_int last.steal_attempts)
    in
    if fail > 0.9 then
      add
        (Diag.info "D102"
           "steal failure rate %.0f%% (%d hits in %d sweeps): deques are mostly empty — \
            stages are coarse relative to the pool"
           (pct fail) last.steals last.steal_attempts)
  end;
  (* D103: the lanes are mostly idle. *)
  let park = share last.merged Timeline.Park
  and search = share last.merged Timeline.Steal_search in
  if park +. search > 0.5 then
    add
      (Diag.warning "D103"
         "idle-dominated: park %.0f%% + steal-search %.0f%% of wall at DoP %d — not enough \
          runnable work per lane"
         (pct park) (pct search) last.dop);
  (* D104: GC pressure concentrated on a lane. *)
  Array.iter
    (fun (lb : Timeline.lane_breakdown) ->
      let g = lb.Timeline.shares.(Timeline.state_index Timeline.Gc) in
      if g > 0.10 then
        add (Diag.warning "D104" "GC %.0f%% of wall on domain %d" (pct g) lb.Timeline.lane))
    last.lanes;
  (* D105: the DAG itself caps speedup below the requested DoP. *)
  if last.crit.Critpath.bound < 0.7 *. float_of_int last.dop then
    add
      (Diag.info "D105" "critical-path bound %.2fx < DoP %d — the pipeline is depth-limited%s"
         last.crit.Critpath.bound last.dop
         (match Critpath.bottleneck last.crit with
         | Some name -> Printf.sprintf " (dominant path task: %s)" name
         | None -> ""));
  (* D106: measured speedup sits on the bound — the scheduler is fine. *)
  if last.speedup >= 0.9 *. last.crit.Critpath.bound then
    add
      (Diag.info "D106"
         "measured %.2fx is at the critical-path bound %.2fx — the scheduler is not the \
          limiter"
         last.speedup last.crit.Critpath.bound);
  (* D108: time goes to waiting on channels rather than computing. *)
  let cw = share last.merged Timeline.Chan_wait in
  if cw > 0.3 then
    add
      (Diag.warning "D108" "channel-bound: %.0f%% of wall blocked on channels at DoP %d"
         (pct cw) last.dop);
  (* D107: an instrument leaked — the observatory must clean up after itself. *)
  if r.leaked_cursors > 0 then
    add (Diag.error "D107" "%d Runtime_events cursor(s) not freed on shutdown" r.leaked_cursors);
  List.rev !fs

let run ?(items = 240) ?(work_ns = 1_500_000) ?dops ~backend () =
  if items < 1 then invalid_arg "Doctor.run: items must be >= 1";
  if work_ns < 4 then invalid_arg "Doctor.run: work_ns must be >= 4";
  let dops =
    match dops with
    | Some (_ :: _ as l) ->
        if List.exists (fun d -> d < 1) l then invalid_arg "Doctor.run: DoPs must be >= 1";
        List.sort_uniq compare l
    | _ -> [ 1; 2; 4; 8 ]
  in
  let max_dop = List.fold_left max 1 dops in
  let sink_ns = max 1 (work_ns / 4) in
  let host_domains =
    match backend with
    | `Sim m -> m.Machine.cores
    | `Native _ -> Domain.recommended_domain_count ()
  in
  (* produce + consume + the widest transform stage. *)
  let requested_domains = max_dop + 2 in
  let pool =
    match backend with
    | `Native (Some p) -> p
    | _ -> max 1 (min requested_domains host_domains)
  in
  let results = List.map (run_one ~backend ~items ~work_ns ~sink_ns ~pool) dops in
  let r =
    {
      backend_name = (match backend with `Sim _ -> "sim" | `Native _ -> "native");
      host_domains;
      requested_domains;
      spawned_domains =
        (match backend with `Sim m -> m.Machine.cores | `Native _ -> pool);
      items;
      work_ns;
      sink_ns;
      results;
      findings = [];
      leaked_cursors = Runtime_ev.live_cursors ();
    }
  in
  { r with findings = diagnose r }

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)
(* ------------------------------------------------------------------ *)

let render r =
  let buf = Buffer.create 2048 in
  Printf.bprintf buf
    "doctor: %s backend, %d item(s), transform %.2f ms, consume %.2f ms\n"
    r.backend_name r.items
    (float_of_int r.work_ns *. 1e-6)
    (float_of_int r.sink_ns *. 1e-6);
  Printf.bprintf buf "domains: %d spawned / %d requested (host %d)\n\n" r.spawned_domains
    r.requested_domains r.host_domains;
  let sweep =
    Table.create ~title:"DoP sweep"
      ~header:
        [ "dop"; "wall(ms)"; "speedup"; "bound"; "run%"; "idle%"; "chan%"; "gc%"; "steals" ]
  in
  List.iter
    (fun d ->
      let idle =
        share d.merged Timeline.Park +. share d.merged Timeline.Steal_search
      in
      Table.add_row sweep
        [
          string_of_int d.dop;
          Printf.sprintf "%.2f" (float_of_int d.wall_ns *. 1e-6);
          Printf.sprintf "%.2f" d.speedup;
          Printf.sprintf "%.2f" d.crit.Critpath.bound;
          Printf.sprintf "%.1f" (pct (share d.merged Timeline.Run));
          Printf.sprintf "%.1f" (pct idle);
          Printf.sprintf "%.1f" (pct (share d.merged Timeline.Chan_wait));
          Printf.sprintf "%.1f" (pct (share d.merged Timeline.Gc));
          string_of_int d.steals;
        ])
    r.results;
  Buffer.add_string buf (Table.render sweep);
  Buffer.add_char buf '\n';
  (match List.rev r.results with
  | last :: _ ->
      let per_lane =
        Table.create
          ~title:(Printf.sprintf "lane breakdown at DoP %d" last.dop)
          ~header:("lane" :: List.map Timeline.state_name Timeline.all_states)
      in
      Array.iter
        (fun (lb : Timeline.lane_breakdown) ->
          Table.add_row per_lane
            (string_of_int lb.Timeline.lane
            :: List.map
                 (fun st ->
                   Printf.sprintf "%.1f%%"
                     (pct lb.Timeline.shares.(Timeline.state_index st)))
                 Timeline.all_states))
        last.lanes;
      Buffer.add_string buf (Table.render per_lane);
      Buffer.add_char buf '\n'
  | [] -> ());
  Buffer.add_string buf "diagnosis:\n";
  Buffer.add_string buf (Diag.render r.findings);
  Buffer.contents buf

let gc_to_json = function
  | None -> Json.Null
  | Some (s : Runtime_ev.stats) ->
      Json.Obj
        [
          ("minor_pauses", Json.Int s.Runtime_ev.minor_pauses);
          ("major_pauses", Json.Int s.Runtime_ev.major_pauses);
          ("pause_ns", Json.Int s.Runtime_ev.pause_ns);
          ("unattributed_ns", Json.Int s.Runtime_ev.unattributed_ns);
          ("events", Json.Int s.Runtime_ev.events);
        ]

let dop_result_to_json d =
  Json.Obj
    [
      ("dop", Json.Int d.dop);
      ("wall_ns", Json.Int d.wall_ns);
      ("speedup", Json.Float d.speedup);
      ("critpath", Critpath.report_to_json d.crit);
      ("timeline", Timeline.breakdown_to_json d.lanes);
      ("steals", Json.Int d.steals);
      ("steal_attempts", Json.Int d.steal_attempts);
      ("span_drops", Json.Int d.span_drops);
      ("gc", gc_to_json d.gc);
    ]

let report_to_json r =
  Json.Obj
    [
      ("schema_version", Json.Int 1);
      ("backend", Json.Str r.backend_name);
      ("host_domains", Json.Int r.host_domains);
      ("requested_domains", Json.Int r.requested_domains);
      ("spawned_domains", Json.Int r.spawned_domains);
      ("items", Json.Int r.items);
      ("work_ns", Json.Int r.work_ns);
      ("sink_ns", Json.Int r.sink_ns);
      ("results", Json.List (List.map dop_result_to_json r.results));
      ("findings", Json.List (List.map Diag.to_json r.findings));
      ("runtime_events", Json.Obj [ ("leaked_cursors", Json.Int r.leaked_cursors) ]);
    ]
