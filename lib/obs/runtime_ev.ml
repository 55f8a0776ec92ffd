(* Runtime_events consumer: fold the OCaml runtime's own GC telemetry
   into the observatory.

   The runtime publishes begin/end span events per domain ring; minor
   collections and major slices nest (a minor can run inside a major
   slice, and both wrap inner phases we do not subscribe to).  We keep a
   per-ring depth counter over the two pause phases only, so exactly the
   outermost EV_MINOR/EV_MAJOR span of any nest is one pause — its
   duration is attributed to the mapped timeline lane as [Gc] and added
   to the pause metrics.

   Cursor hygiene matters: a cursor is a real OS resource (it maps the
   rings), and a consumer that leaks one per run grows without bound in a
   long-lived process.  [live_cursors] is the process-wide open count;
   CI's doctor smoke fails when it is non-zero after shutdown. *)

module RE = Runtime_events

type ring_state = {
  mutable depth : int;  (* nesting depth over the two pause phases *)
  mutable t0 : int64;  (* timestamp at depth 0 -> 1 *)
  mutable top_major : bool;  (* outermost phase of the current nest *)
}

type stats = {
  minor_pauses : int;
  major_pauses : int;
  pause_ns : int;
  unattributed_ns : int;
  events : int;
}

type t = {
  mutable cursor : RE.cursor option;
  mutable callbacks : RE.Callbacks.t option;
  rings : (int, ring_state) Hashtbl.t;
  mutable minor_pauses : int;
  mutable major_pauses : int;
  mutable pause_ns : int;
  mutable unattributed_ns : int;
  mutable events : int;
}

let live = Atomic.make 0
let live_cursors () = Atomic.get live

type handles = {
  h_minor : Metrics.counter;
  h_major : Metrics.counter;
  h_minor_ns : Metrics.counter;
  h_major_ns : Metrics.counter;
}

let gc_metrics =
  Metrics.cached (fun reg ->
      let pauses phase =
        Metrics.counter reg "parcae_gc_pauses_total"
          ~help:"Top-level GC pauses seen by the runtime-events consumer"
          ~labels:[ ("phase", phase) ]
      and ns phase =
        Metrics.counter reg "parcae_gc_pause_ns"
          ~help:"Total nanoseconds spent in top-level GC pauses"
          ~labels:[ ("phase", phase) ]
      in
      {
        h_minor = pauses "minor";
        h_major = pauses "major";
        h_minor_ns = ns "minor";
        h_major_ns = ns "major";
      })

let is_pause = function RE.EV_MINOR | RE.EV_MAJOR -> true | _ -> false

let ring_state t ring =
  match Hashtbl.find_opt t.rings ring with
  | Some rs -> rs
  | None ->
      let rs = { depth = 0; t0 = 0L; top_major = false } in
      Hashtbl.add t.rings ring rs;
      rs

let finish_pause t ring rs ts =
  let dur = max 0 (Int64.to_int (Int64.sub ts rs.t0)) in
  if rs.top_major then t.major_pauses <- t.major_pauses + 1
  else t.minor_pauses <- t.minor_pauses + 1;
  t.pause_ns <- t.pause_ns + dur;
  (* Requests in flight during a GC pause were stalled by it: feed the
     span accumulator so completion carves the overlap into the Gc
     phase. *)
  Span.note_gc dur;
  (* Ring [i + 1] is pool worker [i]'s domain, timeline lane [i]; ring 0
     (the initial domain) and rings past the lane count map to no lane. *)
  if not (Timeline.record_attribute ~lane:(ring - 1) Timeline.Gc dur) then
    t.unattributed_ns <- t.unattributed_ns + dur;
  if Metrics.enabled () then begin
    let m = gc_metrics () in
    Metrics.inc (if rs.top_major then m.h_major else m.h_minor);
    Metrics.inc_by (if rs.top_major then m.h_major_ns else m.h_minor_ns) dur
  end

let start () =
  RE.start ();
  let cursor = RE.create_cursor None in
  Atomic.incr live;
  let t =
    {
      cursor = Some cursor;
      callbacks = None;
      rings = Hashtbl.create 7;
      minor_pauses = 0;
      major_pauses = 0;
      pause_ns = 0;
      unattributed_ns = 0;
      events = 0;
    }
  in
  let runtime_begin ring ts phase =
    t.events <- t.events + 1;
    if is_pause phase then begin
      let rs = ring_state t ring in
      if rs.depth = 0 then begin
        rs.t0 <- RE.Timestamp.to_int64 ts;
        rs.top_major <- phase = RE.EV_MAJOR
      end;
      rs.depth <- rs.depth + 1
    end
  in
  let runtime_end ring ts phase =
    t.events <- t.events + 1;
    if is_pause phase then begin
      let rs = ring_state t ring in
      (* A cursor opened mid-nest can see an end with no begin: ignore. *)
      if rs.depth > 0 then begin
        rs.depth <- rs.depth - 1;
        if rs.depth = 0 then finish_pause t ring rs (RE.Timestamp.to_int64 ts)
      end
    end
  in
  t.callbacks <- Some (RE.Callbacks.create ~runtime_begin ~runtime_end ());
  t

let poll t =
  match (t.cursor, t.callbacks) with
  | Some cursor, Some callbacks -> RE.read_poll cursor callbacks None
  | _ -> 0

let stop t =
  match t.cursor with
  | None -> ()
  | Some cursor ->
      ignore (poll t);
      t.cursor <- None;
      RE.free_cursor cursor;
      Atomic.decr live

let stats t =
  {
    minor_pauses = t.minor_pauses;
    major_pauses = t.major_pauses;
    pause_ns = t.pause_ns;
    unattributed_ns = t.unattributed_ns;
    events = t.events;
  }
