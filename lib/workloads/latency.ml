(* The tail-latency observatory behind `parcae_demo latency`.

   Pure analysis over an installed span collector (plus, optionally, a
   flight-recorder log): quantile ladder, a per-quantile phase
   breakdown, the K slowest requests as exemplars with their span
   timelines and the nearest reconfiguration or controller decision, and
   Diag findings L100-L107.  The demo binary renders the report and
   exits 2 on an error finding (the L100 SLO breach); everything here is
   deterministic given the collector's contents (DESIGN.md section 15).

   Attribution honesty: the per-quantile breakdown does not average —
   it picks the retained request whose total is nearest the HDR
   quantile estimate and shows *that request's* phases, which sum to its
   total exactly.  Averaged phase shares at p99 routinely mislead
   (queue spikes and GC pauses hit different requests); a concrete
   exemplar cannot. *)

module Span = Parcae_obs.Span
module Flight = Parcae_obs.Flight
module Json = Parcae_obs.Json
module Diag = Parcae_analysis.Diag

type phase_cut = (Span.phase * int) list

type qbreak = {
  qb_q : float;  (* the quantile, e.g. 0.99 *)
  qb_est_ns : int;  (* HDR estimate over every completion *)
  qb_total_ns : int;  (* the exemplar request's exact total *)
  qb_phases : phase_cut;  (* the exemplar's phases; sum = qb_total_ns *)
}

type exemplar = {
  ex_id : int;
  ex_end_ns : int;
  ex_total_ns : int;
  ex_phases : phase_cut;
  ex_stages : (string * int) list;  (* per-stage compute timeline *)
  ex_nearest : string option;  (* nearest reconfig/decision, human-readable *)
}

type report = {
  r_completed : int;
  r_drops : int;
  r_double_finishes : int;
  r_mean_ns : float;
  r_max_ns : int;
  r_quantiles : qbreak list;
  r_exemplars : exemplar list;
  r_findings : Diag.t list;
}

let analysis_quantiles = [ 0.5; 0.9; 0.99; 0.999 ]

let phases_of (rv : Span.rec_view) : phase_cut =
  [
    (Span.Queue, rv.Span.rv_queue);
    (Span.Chan, rv.Span.rv_chan);
    (Span.Compute, rv.Span.rv_compute);
    (Span.Reconfig, rv.Span.rv_reconfig);
    (Span.Gc, rv.Span.rv_gc);
  ]

let phase_sum cut = List.fold_left (fun acc (_, v) -> acc + v) 0 cut

(* The retained request whose total is nearest [target_ns]. *)
let nearest_record records target_ns =
  List.fold_left
    (fun best (rv : Span.rec_view) ->
      match best with
      | None -> Some rv
      | Some b ->
          if abs (rv.Span.rv_total - target_ns) < abs (b.Span.rv_total - target_ns)
          then Some rv
          else Some b)
    None records

(* ---- Nearest reconfiguration/decision correlation. ----

   Candidate moments come from the flight recorder (reconfiguration
   overhead closings and controller decisions); the exemplar is
   annotated with whichever landed closest to its completion stamp. *)

let flight_moments entries =
  List.filter_map
    (function
      | Flight.Overhead o when o.Flight.o_phase = "total" ->
          Some
            ( o.Flight.o_t,
              Printf.sprintf "reconfig of %s (%.3fms total)" o.Flight.o_region
                (float_of_int o.Flight.o_ns /. 1e6) )
      | Flight.Decision d ->
          Some
            ( d.Flight.t,
              Printf.sprintf "decision %s by %s (dop %d -> %d)" d.Flight.reason
                d.Flight.actor d.Flight.candidate d.Flight.chosen )
      | Flight.Overhead _ -> None)
    entries

let nearest_moment moments end_ns =
  List.fold_left
    (fun best (t, what) ->
      match best with
      | Some (bt, _) when abs (bt - end_ns) <= abs (t - end_ns) -> best
      | _ -> Some (t, what))
    None moments
  |> Option.map (fun (t, what) ->
         let d = end_ns - t in
         if d >= 0 then Printf.sprintf "%s %.3fms before completion" what (float_of_int d /. 1e6)
         else Printf.sprintf "%s %.3fms after completion" what (float_of_int (-d) /. 1e6))

(* ---- Findings. ---- *)

let ms ns = Printf.sprintf "%.3fms" (float_of_int ns /. 1e6)

let qlabel q =
  let s = Printf.sprintf "%g" (q *. 100.0) in
  "p" ^ String.concat "" (String.split_on_char '.' s)

let pct part total = if total <= 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int total

let findings ?slo ~collector ~(p99 : qbreak option) records =
  let fs = ref [] in
  let add d = fs := d :: !fs in
  (* The SLO check, offline over the HDR: more than a fraction [budget]
     of requests took longer than [target_ns] exactly when the
     (1 - budget) quantile does.  The estimate can overshoot by one
     bucket (1/128), so a target within that distance of the quantile
     may read as a breach. *)
  (match slo with
  | Some (target_ns, budget) ->
      let q = 1.0 -. budget in
      let est = Span.quantile_ns collector q in
      if est > target_ns then
        add
          (Diag.error "L100"
             "SLO breached: %s is %s, over the %s target, so more than %g%% of %d \
              requests took longer"
             (qlabel q) (ms est) (ms target_ns) (100.0 *. budget) (Span.completed collector))
  | None -> ());
  (match p99 with
  | Some qb ->
      let part p = try List.assoc p qb.qb_phases with Not_found -> 0 in
      let share p = pct (part p) qb.qb_total_ns in
      if share Span.Queue > 50.0 then
        add
          (Diag.warning "L101"
             "p99 is queue-dominated: %.1f%% of the exemplar's %s was admission wait"
             (share Span.Queue) (ms qb.qb_total_ns));
      if share Span.Reconfig > 25.0 then
        add
          (Diag.warning "L102"
             "p99 is reconfiguration-dominated: %.1f%% of the exemplar was pause/resume stall"
             (share Span.Reconfig));
      if share Span.Chan > 50.0 then
        add
          (Diag.warning "L103"
             "p99 is channel-wait-dominated: %.1f%% of the exemplar was inter-stage wait"
             (share Span.Chan));
      if share Span.Gc > 25.0 then
        add
          (Diag.warning "L104"
             "p99 is GC-dominated: %.1f%% of the exemplar overlapped collector pauses"
             (share Span.Gc))
  | None -> ());
  if Span.drops collector > 0 then
    add
      (Diag.warning "L105" "span ring overflowed: %d exemplars dropped (quantiles stay exact)"
         (Span.drops collector));
  let p50 = Span.quantile_ns collector 0.5 and p999 = Span.quantile_ns collector 0.999 in
  if p50 > 0 && p999 > 20 * p50 then
    add
      (Diag.info "L106" "heavy tail: p999 (%s) is %.0fx p50 (%s)" (ms p999)
         (float_of_int p999 /. float_of_int p50)
         (ms p50));
  (* The integer accounting guarantees exact phase sums; this check is
     the analyzer auditing that guarantee over every retained record. *)
  let bad_sum =
    List.exists
      (fun (rv : Span.rec_view) -> phase_sum (phases_of rv) <> rv.Span.rv_total)
      records
  in
  if bad_sum then
    add
      (Diag.error "L107"
         "phase-sum invariant violated in the span ring (accounting bug — please report)");
  List.rev !fs

(* ---- The analysis. ---- *)

let analyze ?(flight = []) ?slo ?(top = 5) collector =
  let records = Span.records collector in
  let moments = flight_moments flight in
  let quantiles =
    List.filter_map
      (fun q ->
        let est = Span.quantile_ns collector q in
        match nearest_record records est with
        | None -> None
        | Some rv ->
            Some
              {
                qb_q = q;
                qb_est_ns = est;
                qb_total_ns = rv.Span.rv_total;
                qb_phases = phases_of rv;
              })
      analysis_quantiles
  in
  let slowest =
    List.sort (fun (a : Span.rec_view) b -> compare b.Span.rv_total a.Span.rv_total) records
  in
  let rec take n = function x :: tl when n > 0 -> x :: take (n - 1) tl | _ -> [] in
  let exemplars =
    List.map
      (fun (rv : Span.rec_view) ->
        {
          ex_id = rv.Span.rv_id;
          ex_end_ns = rv.Span.rv_end_ns;
          ex_total_ns = rv.Span.rv_total;
          ex_phases = phases_of rv;
          ex_stages =
            Array.to_list
              (Array.mapi
                 (fun i ns -> (Printf.sprintf "stage%d" i, ns))
                 rv.Span.rv_stage_ns);
          ex_nearest = nearest_moment moments rv.Span.rv_end_ns;
        })
      (take top slowest)
  in
  let p99 = List.find_opt (fun qb -> qb.qb_q = 0.99) quantiles in
  {
    r_completed = Span.completed collector;
    r_drops = Span.drops collector;
    r_double_finishes = Span.double_finishes collector;
    r_mean_ns = Span.mean_ns collector;
    r_max_ns = Span.max_ns collector;
    r_quantiles = quantiles;
    r_exemplars = exemplars;
    r_findings = findings ?slo ~collector ~p99 records;
  }

(* ---- Rendering. ---- *)

let render r =
  let buf = Buffer.create 2048 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "latency observatory: %d requests (%d spans dropped, %d double finishes)\n"
    r.r_completed r.r_drops r.r_double_finishes;
  pr "  mean %.3fms  max %s\n\n" (r.r_mean_ns /. 1e6) (ms r.r_max_ns);
  pr "%-6s %10s %10s | %10s %10s %10s %10s %10s\n" "q" "estimate" "exemplar"
    "queue" "chan" "compute" "reconfig" "gc";
  List.iter
    (fun qb ->
      let part p = try List.assoc p qb.qb_phases with Not_found -> 0 in
      pr "%-6s %10s %10s | %10s %10s %10s %10s %10s\n" (qlabel qb.qb_q)
        (ms qb.qb_est_ns) (ms qb.qb_total_ns) (ms (part Span.Queue))
        (ms (part Span.Chan)) (ms (part Span.Compute)) (ms (part Span.Reconfig))
        (ms (part Span.Gc)))
    r.r_quantiles;
  if r.r_exemplars <> [] then begin
    pr "\nslowest requests:\n";
    List.iter
      (fun ex ->
        pr "  request %d: %s (finished t=%.3fs)\n" ex.ex_id (ms ex.ex_total_ns)
          (float_of_int ex.ex_end_ns /. 1e9);
        pr "    phases: %s\n"
          (String.concat "  "
             (List.map
                (fun (p, v) -> Printf.sprintf "%s=%s" (Span.phase_name p) (ms v))
                ex.ex_phases));
        if ex.ex_stages <> [] then
          pr "    stages: %s\n"
            (String.concat "  "
               (List.map (fun (n, v) -> Printf.sprintf "%s=%s" n (ms v)) ex.ex_stages));
        match ex.ex_nearest with
        | Some what -> pr "    nearest event: %s\n" what
        | None -> ())
      r.r_exemplars
  end;
  pr "\nfindings:\n%s" (Diag.render r.r_findings);
  Buffer.contents buf

let to_json r =
  let phases cut =
    Json.Obj (List.map (fun (p, v) -> (Span.phase_name p, Json.Int v)) cut)
  in
  Json.Obj
    [
      ("completed", Json.Int r.r_completed);
      ("dropped", Json.Int r.r_drops);
      ("double_finishes", Json.Int r.r_double_finishes);
      ("mean_ns", Json.Float r.r_mean_ns);
      ("max_ns", Json.Int r.r_max_ns);
      ( "quantiles",
        Json.List
          (List.map
             (fun qb ->
               Json.Obj
                 [
                   ("q", Json.Float qb.qb_q);
                   ("estimate_ns", Json.Int qb.qb_est_ns);
                   ("exemplar_total_ns", Json.Int qb.qb_total_ns);
                   ("phases_ns", phases qb.qb_phases);
                 ])
             r.r_quantiles) );
      ( "exemplars",
        Json.List
          (List.map
             (fun ex ->
               Json.Obj
                 ([
                    ("id", Json.Int ex.ex_id);
                    ("end_ns", Json.Int ex.ex_end_ns);
                    ("total_ns", Json.Int ex.ex_total_ns);
                    ("phases_ns", phases ex.ex_phases);
                    ( "stages_ns",
                      Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) ex.ex_stages) );
                  ]
                 @
                 match ex.ex_nearest with
                 | Some what -> [ ("nearest_event", Json.Str what) ]
                 | None -> []))
             r.r_exemplars) );
      ("findings", Json.List (List.map Diag.to_json r.r_findings));
    ]
