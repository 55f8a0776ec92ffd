(* Per-domain scheduler timelines.

   Each lane is a little state machine over two int arrays of per-state
   totals, so recording a transition is three int stores and never
   allocates.  Lane mutation is single-writer by contract — only the
   lane's own domain transitions it — which is what lets the native
   scheduler record transitions without any synchronisation.  The reader
   ([breakdown]) is meant to run after the engine drains (or accept a
   benignly-torn in-flight snapshot; the doctor and the dashboard both
   tolerate that).

   Attribution ([attribute]) is the retroactive channel: measured waits
   (GC pauses, channel blocks, reconfiguration phases) are *explanations*
   of time the live stream already recorded as Run or as idle.  They are
   applied only at breakdown time as zero-sum transfers out of donor
   states, clamped at what the donors hold, so the partition invariant —
   per-lane state time sums to wall time — survives arbitrary
   over-reporting by the explaining instruments. *)

type state = Run | Steal_search | Park | Gc | Chan_wait | Reconfig

let n_states = 6

let state_index = function
  | Run -> 0
  | Steal_search -> 1
  | Park -> 2
  | Gc -> 3
  | Chan_wait -> 4
  | Reconfig -> 5

let all_states = [ Run; Steal_search; Park; Gc; Chan_wait; Reconfig ]

let state_name = function
  | Run -> "run"
  | Steal_search -> "steal_search"
  | Park -> "park"
  | Gc -> "gc"
  | Chan_wait -> "chan_wait"
  | Reconfig -> "reconfig"

let state_of_string = function
  | "run" -> Run
  | "steal_search" -> Steal_search
  | "park" -> Park
  | "gc" -> Gc
  | "chan_wait" -> Chan_wait
  | "reconfig" -> Reconfig
  | s -> invalid_arg ("Timeline.state_of_string: " ^ s)

(* Donor order for attribution.  A GC pause happens inside running code,
   so it displaces Run first.  A channel wait only ever displaces idle
   time: while a fiber waits, its domain either ran other fibers (real
   compute, not the wait's to claim) or idled — so waits draw from
   Park/Steal_search only, and on a saturated lane the clamp correctly
   reports ~zero wait even if many fibers blocked concurrently.
   Reconfiguration is control-plane code that executes on the lane, so it
   may claim Run after the idle states.  States not listed keep what the
   live stream gave them. *)
let donors = function
  | Gc -> [ Run; Park; Steal_search ]
  | Chan_wait -> [ Park; Steal_search ]
  | Reconfig -> [ Park; Steal_search; Run ]
  | Run | Steal_search | Park -> []

type lane = {
  mutable cur : int;  (* state_index of the open span *)
  mutable since : int;  (* open span start *)
  acc : int array;  (* closed-span ns per state *)
  attr : int array;  (* retroactive attribution requests, ns per state *)
}

type t = { t0 : int; lanes_ : lane array }

let create ~lanes ~now () =
  if lanes < 1 then invalid_arg "Timeline.create: lanes must be >= 1";
  let mk () =
    { cur = state_index Park; since = now; acc = Array.make n_states 0;
      attr = Array.make n_states 0 }
  in
  { t0 = now; lanes_ = Array.init lanes (fun _ -> mk ()) }

let enter t ~lane ~now st =
  let l = t.lanes_.(lane) in
  let si = state_index st in
  if si <> l.cur then begin
    (* Clamp a racing clock so spans stay non-negative and contiguous. *)
    let now = if now < l.since then l.since else now in
    l.acc.(l.cur) <- l.acc.(l.cur) + (now - l.since);
    l.cur <- si;
    l.since <- now
  end

let attribute t ~lane st ns =
  if ns > 0 then begin
    let l = t.lanes_.(lane) in
    let i = state_index st in
    l.attr.(i) <- l.attr.(i) + ns
  end

(* ------------------------------------------------------------------ *)
(* Aggregation.                                                        *)
(* ------------------------------------------------------------------ *)

type lane_breakdown = {
  lane : int;
  wall_ns : int;
  by_state : int array;
  shares : float array;
}

let breakdown t ~until =
  Array.mapi
    (fun i l ->
      let ns = Array.copy l.acc in
      (* Close the open span virtually at [until]. *)
      let until = if until < l.since then l.since else until in
      ns.(l.cur) <- ns.(l.cur) + (until - l.since);
      (* Apply attribution transfers: pull each requested amount out of
         the donor states in order, clamped at what they hold. *)
      List.iter
        (fun st ->
          let si = state_index st in
          let want = ref (min l.attr.(si) max_int) in
          List.iter
            (fun donor ->
              let di = state_index donor in
              if !want > 0 && di <> si then begin
                let take = min !want ns.(di) in
                ns.(di) <- ns.(di) - take;
                ns.(si) <- ns.(si) + take;
                want := !want - take
              end)
            (donors st))
        all_states;
      let wall = until - t.t0 in
      let shares =
        if wall <= 0 then Array.make n_states 0.0
        else Array.map (fun v -> float_of_int v /. float_of_int wall) ns
      in
      { lane = i; wall_ns = wall; by_state = ns; shares })
    t.lanes_

let merged_shares bds =
  let total_wall =
    Array.fold_left (fun acc b -> acc +. float_of_int b.wall_ns) 0.0 bds
  in
  List.map
    (fun st ->
      let i = state_index st in
      let ns =
        Array.fold_left (fun acc b -> acc +. float_of_int b.by_state.(i)) 0.0 bds
      in
      (st, if total_wall > 0.0 then ns /. total_wall else 0.0))
    all_states

let shares_obj shares =
  Json.Obj
    (List.map
       (fun st -> (state_name st, Json.Float shares.(state_index st)))
       all_states)

let breakdown_to_json bds =
  Json.Obj
    [
      ( "lanes",
        Json.List
          (Array.to_list
             (Array.map
                (fun b ->
                  Json.Obj
                    [
                      ("lane", Json.Int b.lane);
                      ("wall_ns", Json.Int b.wall_ns);
                      ("shares", shares_obj b.shares);
                    ])
                bds)) );
      ( "merged",
        Json.Obj
          (List.map
             (fun (st, v) -> (state_name st, Json.Float v))
             (merged_shares bds)) );
    ]

(* ------------------------------------------------------------------ *)
(* The installed timeline.                                             *)
(* ------------------------------------------------------------------ *)

(* Trace's scoped cell: an Atomic, because native pool domains read it
   concurrently with installation from the driver thread. *)
let cell : t option Atomic.t = Atomic.make None

let get () = Atomic.get cell
let enabled () = Atomic.get Observed.word land Observed.timeline <> 0
let with_timeline tl f = Observed.install cell Observed.timeline ~live:Option.is_some (Some tl) f

let record_enter ~lane ~now st =
  match Atomic.get cell with
  | Some t when lane >= 0 && lane < Array.length t.lanes_ -> enter t ~lane ~now st
  | _ -> ()

let record_attribute ~lane st ns =
  match Atomic.get cell with
  | Some t when lane >= 0 && lane < Array.length t.lanes_ ->
      attribute t ~lane st ns;
      true
  | _ -> false
