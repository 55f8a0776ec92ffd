(* Request-level span tracing: where did each request's latency go?

   Every pooled request record (lib/workloads/request.ml) carries one
   [span] — a flat mutable record of int-ns stamps that is reset on
   pool alloc and mutated in place as the request crosses stages, so
   stamping allocates nothing and survives PR-9's allocation gate.

   Phase accounting is difference-based and therefore exact by
   construction: every stamp is a monotonic engine timestamp, each gap
   between successive stamps is attributed to exactly one phase
   (admission/queue wait before the first stage, channel wait between
   stages, compute inside a stage body), so

     queue + chan + compute = finish - arrival

   with no residue.  Reconfiguration stalls and GC pauses are *carved
   out* of those three by clamped zero-sum transfers at completion time
   (executor pause/resume windows and Runtime_ev GC lanes bump global
   counters; the span remembers the counter values at admission), so the
   five reported phases still sum to the total exactly — the "clamp
   tolerance" of the latency analyzer is about float rendering, not
   about the integer accounting (DESIGN.md section 15).

   Completed spans land in a preallocated ring (parallel int arrays, no
   boxing) with drop accounting mirroring the trace sink, plus per-phase
   HDR histograms.  A generation token guards the pooled-record race: a
   worker still unwinding [drain_stage] after the request was completed
   and re-allocated on another domain will fail the token check and
   no-op rather than corrupt the fresh span. *)

module Metrics = Metrics

let max_stages = 16

type span = {
  mutable s_id : int;
  mutable s_arrival_ns : int;
  mutable s_last_ns : int;  (* previous observation point *)
  mutable s_seg_start : int;  (* -1 outside a stage body *)
  mutable s_queue_ns : int;
  mutable s_chan_ns : int;
  mutable s_compute_ns : int;
  mutable s_stages : int;
  mutable s_open : bool;
  s_gen : int Atomic.t;
      (* generation seqlock: even when idle, odd while [reset] (or a
         racing [exit]) holds the span; bumped by two on every reset so
         a stale token from the record's previous life can never match *)
  mutable s_stall_mark : int;  (* stall_total at admission *)
  mutable s_gc_mark : int;  (* gc_total at admission *)
  s_stage_ns : int array;  (* per-stage compute, capacity max_stages *)
}

let make_span () =
  {
    s_id = -1;
    s_arrival_ns = 0;
    s_last_ns = 0;
    s_seg_start = -1;
    s_queue_ns = 0;
    s_chan_ns = 0;
    s_compute_ns = 0;
    s_stages = 0;
    s_open = false;
    s_gen = Atomic.make 0;
    s_stall_mark = 0;
    s_gc_mark = 0;
    s_stage_ns = Array.make max_stages 0;
  }

(* Shared placeholder for records built while no collector is installed
   (every hook no-ops on a disabled collector, so it is never mutated).
   Pool misses on an untraced serve path graft it instead of paying
   [make_span]'s ~25 words; the first traced alloc upgrades the record
   to a private span. *)
let null = make_span ()

(* ---- Global stall/GC accumulators. ----

   Executor pause/resume windows and Runtime_ev GC pauses add here; a
   span captures both values at admission and reads the delta at
   completion — "how much stall/GC elapsed during my lifetime".  The
   carve at completion clamps to the span's own wait time, so a stall
   that did not actually delay a request is not charged to it. *)

let stall_acc = Atomic.make 0
let gc_acc = Atomic.make 0

let stall_total () = Atomic.get stall_acc
let gc_total () = Atomic.get gc_acc

(* ---- The completed-span ring + aggregates. ---- *)

type phase = Queue | Chan | Compute | Reconfig | Gc

let all_phases = [ Queue; Chan; Compute; Reconfig; Gc ]

let phase_name = function
  | Queue -> "queue"
  | Chan -> "chan"
  | Compute -> "compute"
  | Reconfig -> "reconfig"
  | Gc -> "gc"

type t = {
  cap : int;
  r_id : int array;
  r_end : int array;
  r_total : int array;
  r_queue : int array;
  r_chan : int array;
  r_compute : int array;
  r_reconfig : int array;
  r_gc : int array;
  r_stages : int array;
  r_stage_ns : int array;  (* cap * max_stages, flattened *)
  mutable r_len : int;
  mutable r_head : int;  (* next write index *)
  mutable drops : int;
  mutable completed : int;
  mutable double_finishes : int;
  hdr_total : Hdr.t;
  hdr_queue : Hdr.t;
  hdr_chan : Hdr.t;
  hdr_compute : Hdr.t;
  hdr_reconfig : Hdr.t;
  hdr_gc : Hdr.t;
  mu : Mutex.t;
      (* guards completion: ring push, HDR observes, and the registry
         summary observes.  Two two_level masters can finish requests
         concurrently on native. *)
}

let create ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Span.create: capacity must be positive";
  let h () = Hdr.create () in
  {
    cap = capacity;
    r_id = Array.make capacity 0;
    r_end = Array.make capacity 0;
    r_total = Array.make capacity 0;
    r_queue = Array.make capacity 0;
    r_chan = Array.make capacity 0;
    r_compute = Array.make capacity 0;
    r_reconfig = Array.make capacity 0;
    r_gc = Array.make capacity 0;
    r_stages = Array.make capacity 0;
    r_stage_ns = Array.make (capacity * max_stages) 0;
    r_len = 0;
    r_head = 0;
    drops = 0;
    completed = 0;
    double_finishes = 0;
    hdr_total = h ();
    hdr_queue = h ();
    hdr_chan = h ();
    hdr_compute = h ();
    hdr_reconfig = h ();
    hdr_gc = h ();
    mu = Mutex.create ();
  }

(* ---- The installed collector (Trace's scoped cell). ---- *)

let cell : t option Atomic.t = Atomic.make None

let get () = Atomic.get cell
let enabled () = Option.is_some (Atomic.get cell)

let with_collector t f =
  let prev = Atomic.exchange cell (Some t) in
  Fun.protect ~finally:(fun () -> Atomic.set cell prev) f

(* ---- Registry handles (null-object cached, like every emitter). ---- *)

type handles = {
  m_latency : Metrics.summary;
  m_queue : Metrics.summary;
  m_chan : Metrics.summary;
  m_compute : Metrics.summary;
  m_reconfig : Metrics.summary;
  m_gc : Metrics.summary;
  m_dropped : Metrics.counter;
}

let handles =
  Metrics.cached (fun reg ->
      let phase p =
        Metrics.summary reg "parcae_request_phase_ns"
          ~help:"Per-phase request latency attribution in virtual nanoseconds"
          ~labels:[ ("phase", phase_name p) ]
      in
      {
        m_latency =
          Metrics.summary reg "parcae_request_latency_ns"
            ~help:"End-to-end request latency in virtual nanoseconds";
        m_queue = phase Queue;
        m_chan = phase Chan;
        m_compute = phase Compute;
        m_reconfig = phase Reconfig;
        m_gc = phase Gc;
        m_dropped =
          Metrics.counter reg "parcae_spans_dropped_total"
            ~help:"Completed spans overwritten in the span ring before export";
      })

(* ---- Stall/GC feeds (executor + Runtime_ev call these). ---- *)

let note_stall ns = if ns > 0 && enabled () then ignore (Atomic.fetch_and_add stall_acc ns)
let note_gc ns = if ns > 0 && enabled () then ignore (Atomic.fetch_and_add gc_acc ns)

(* ---- Span lifecycle. ---- *)

(* Reset on pool alloc: ~a dozen int stores and a few atomic ops, no
   allocation — cheap enough to run unconditionally so a collector
   installed mid-run sees well-formed spans.  The shared [null] span is
   inert here and in every hook below: records minted while tracing was
   disabled stay untouched even after a mid-run [set].

   The generation is held odd (seqlock-style) for the duration of the
   field writes, so a stale [exit] racing in from the record's previous
   life fails its compare-and-set instead of observing a matching token
   next to half-reset fields and corrupting the fresh span.  The only
   possible contender is one such straggler, so the spin is bounded. *)
let reset sp ~id ~arrival_ns =
  if sp != null then begin
    let rec acquire () =
      let g = Atomic.get sp.s_gen in
      if g land 1 = 1 || not (Atomic.compare_and_set sp.s_gen g (g + 1))
      then begin
        Domain.cpu_relax ();
        acquire ()
      end
      else g
    in
    let g = acquire () in
    sp.s_id <- id;
    sp.s_arrival_ns <- arrival_ns;
    sp.s_last_ns <- arrival_ns;
    sp.s_seg_start <- -1;
    sp.s_queue_ns <- 0;
    sp.s_chan_ns <- 0;
    sp.s_compute_ns <- 0;
    sp.s_stages <- 0;
    sp.s_open <- true;
    sp.s_stall_mark <- Atomic.get stall_acc;
    sp.s_gc_mark <- Atomic.get gc_acc;
    Atomic.set sp.s_gen (g + 2)
  end

(* Stage entry: the gap since the last observation point is wait —
   admission queue before the first stage, channel wait after.  Returns
   the generation token the matching [exit] must present; the [null]
   span is never mutated and yields a token no exit will act on. *)
let enter sp ~now =
  if sp == null then 0
  else begin
    let gap = now - sp.s_last_ns in
    let gap = if gap < 0 then 0 else gap in
    if sp.s_stages = 0 then sp.s_queue_ns <- sp.s_queue_ns + gap
    else sp.s_chan_ns <- sp.s_chan_ns + gap;
    sp.s_seg_start <- now;
    Atomic.get sp.s_gen
  end

(* Stage exit: close the open compute segment.  No-ops when the token is
   stale (the pooled record was freed and re-allocated between the body
   and this call), when the span is already finished, or when no segment
   is open — exactly the races pooled reuse makes possible.  The CAS to
   an odd value takes the seqlock, so a concurrent [reset] on another
   domain either makes this exit fail (generation already bumped, or
   held odd mid-reset) or waits until these writes are done — a stale
   exit can never interleave with the fresh generation's fields. *)
let exit sp ~token ~now =
  if
    sp != null && token land 1 = 0
    && Atomic.compare_and_set sp.s_gen token (token + 1)
  then begin
    if sp.s_open && sp.s_seg_start >= 0 then begin
      let d = now - sp.s_seg_start in
      let d = if d < 0 then 0 else d in
      sp.s_compute_ns <- sp.s_compute_ns + d;
      if sp.s_stages < max_stages then sp.s_stage_ns.(sp.s_stages) <- d;
      sp.s_stages <- sp.s_stages + 1;
      sp.s_seg_start <- -1;
      sp.s_last_ns <- now
    end;
    Atomic.set sp.s_gen token
  end

(* Clamped zero-sum transfer: move up to [amount] out of [cell], return
   what was actually moved.  Keeps phase sums exact by construction. *)
let take cell amount =
  let t = if !cell < amount then !cell else amount in
  cell := !cell - t;
  t

let push t ~end_ns sp ~queue ~chan ~compute ~reconfig ~gc ~total =
  Mutex.lock t.mu;
  if t.r_len = t.cap then begin
    (* Overwrite the oldest entry, mirroring the trace sink's drop
       accounting; the HDR aggregates already absorbed it, so
       drops cost exemplar detail, never quantile accuracy. *)
    t.drops <- t.drops + 1;
    if Metrics.enabled () then Metrics.inc (handles ()).m_dropped;
    if t.drops = 1 && Trace.enabled () then
      Trace.emit ~t:end_ns (Event.Span_overflow { dropped = 1 })
  end
  else t.r_len <- t.r_len + 1;
  let i = t.r_head in
  t.r_head <- (t.r_head + 1) mod t.cap;
  t.r_id.(i) <- sp.s_id;
  t.r_end.(i) <- end_ns;
  t.r_total.(i) <- total;
  t.r_queue.(i) <- queue;
  t.r_chan.(i) <- chan;
  t.r_compute.(i) <- compute;
  t.r_reconfig.(i) <- reconfig;
  t.r_gc.(i) <- gc;
  let stages = if sp.s_stages < max_stages then sp.s_stages else max_stages in
  t.r_stages.(i) <- stages;
  Array.blit sp.s_stage_ns 0 t.r_stage_ns (i * max_stages) stages;
  t.completed <- t.completed + 1;
  Hdr.observe t.hdr_total total;
  Hdr.observe t.hdr_queue queue;
  Hdr.observe t.hdr_chan chan;
  Hdr.observe t.hdr_compute compute;
  Hdr.observe t.hdr_reconfig reconfig;
  Hdr.observe t.hdr_gc gc;
  (* The registry observes stay inside the critical section: summary
     observation is an unsynchronized read-modify-write, and two
     two_level masters can finish requests concurrently on native —
     outside the lock, observations would be lost and the exported
     series would drift from the collector's own HDRs.  All calls are
     allocation-free and cheap. *)
  if Metrics.enabled () then begin
    let h = handles () in
    Metrics.observe_summary h.m_latency total;
    Metrics.observe_summary h.m_queue queue;
    Metrics.observe_summary h.m_chan chan;
    Metrics.observe_summary h.m_compute compute;
    Metrics.observe_summary h.m_reconfig reconfig;
    Metrics.observe_summary h.m_gc gc
  end;
  Mutex.unlock t.mu

(* Completion: close any open segment, attribute the trailing gap, carve
   stall/GC overlap out of the waits, and publish.  Exactly-once under
   pooled reuse: the first finish flips [s_open], a second finish on the
   same generation only bumps the double-finish diagnostic. *)
let finish sp ~now =
  match Atomic.get cell with
  | None -> ()
  | Some _ when sp == null -> ()
  | Some t ->
      if not sp.s_open then begin
        Mutex.lock t.mu;
        t.double_finishes <- t.double_finishes + 1;
        Mutex.unlock t.mu
      end
      else begin
        sp.s_open <- false;
        if sp.s_seg_start >= 0 then begin
          (* Finish arrived from inside a stage body (the tail stage
             completes the request before drain_stage's exit runs): close
             the segment here; the later exit no-ops on [s_open]. *)
          let d = now - sp.s_seg_start in
          let d = if d < 0 then 0 else d in
          sp.s_compute_ns <- sp.s_compute_ns + d;
          if sp.s_stages < max_stages then sp.s_stage_ns.(sp.s_stages) <- d;
          sp.s_stages <- sp.s_stages + 1;
          sp.s_seg_start <- -1;
          sp.s_last_ns <- now
        end
        else begin
          let gap = now - sp.s_last_ns in
          let gap = if gap < 0 then 0 else gap in
          if sp.s_stages = 0 then sp.s_queue_ns <- sp.s_queue_ns + gap
          else sp.s_chan_ns <- sp.s_chan_ns + gap;
          sp.s_last_ns <- now
        end;
        let total = now - sp.s_arrival_ns in
        let total = if total < 0 then 0 else total in
        let queue = ref sp.s_queue_ns
        and chan = ref sp.s_chan_ns
        and compute = ref sp.s_compute_ns in
        (* Stall and GC that elapsed during this request's lifetime,
           carved out of the phases they actually inflated: reconfig
           stalls manifest as wait (workers parked at the barrier), GC
           pauses inflate compute first.  Clamping guarantees the five
           phases still sum to [total] exactly. *)
        let stall_raw = Atomic.get stall_acc - sp.s_stall_mark in
        let gc_raw = Atomic.get gc_acc - sp.s_gc_mark in
        let reconfig =
          if stall_raw <= 0 then 0
          else
            let a = take chan stall_raw in
            a + take queue (stall_raw - a)
        in
        let gc =
          if gc_raw <= 0 then 0
          else
            let a = take compute gc_raw in
            let b = take chan (gc_raw - a) in
            a + b + take queue (gc_raw - a - b)
        in
        push t ~end_ns:now sp ~queue:!queue ~chan:!chan ~compute:!compute
          ~reconfig ~gc ~total
      end

(* ---- Reads (latency analyzer, /latency.json, dashboard panel). ---- *)

type rec_view = {
  rv_id : int;
  rv_end_ns : int;
  rv_total : int;
  rv_queue : int;
  rv_chan : int;
  rv_compute : int;
  rv_reconfig : int;
  rv_gc : int;
  rv_stage_ns : int array;
}

let records t =
  Mutex.lock t.mu;
  let n = t.r_len in
  let start = if n = t.cap then t.r_head else 0 in
  let out =
    List.init n (fun k ->
        let i = (start + k) mod t.cap in
        {
          rv_id = t.r_id.(i);
          rv_end_ns = t.r_end.(i);
          rv_total = t.r_total.(i);
          rv_queue = t.r_queue.(i);
          rv_chan = t.r_chan.(i);
          rv_compute = t.r_compute.(i);
          rv_reconfig = t.r_reconfig.(i);
          rv_gc = t.r_gc.(i);
          rv_stage_ns = Array.sub t.r_stage_ns (i * max_stages) t.r_stages.(i);
        })
  in
  Mutex.unlock t.mu;
  out

let completed t = t.completed
let drops t = t.drops
let double_finishes t = t.double_finishes

let quantile_ns t q = Hdr.quantile t.hdr_total q

let phase_hdr t = function
  | Queue -> t.hdr_queue
  | Chan -> t.hdr_chan
  | Compute -> t.hdr_compute
  | Reconfig -> t.hdr_reconfig
  | Gc -> t.hdr_gc

let phase_quantile_ns t p q = Hdr.quantile (phase_hdr t p) q
let phase_mean_ns t p = Hdr.mean (phase_hdr t p)
let mean_ns t = Hdr.mean t.hdr_total
let max_ns t = Hdr.max_value t.hdr_total

(* The /latency.json wire format: quantile ladder per phase, counts and
   drops.  Self-contained and stable (DESIGN.md section 15). *)
let report_json t =
  let qs = [ 0.5; 0.9; 0.99; 0.999 ] in
  let qname q =
    (* 0.5 -> "p50", 0.999 -> "p999" *)
    let s = Printf.sprintf "%g" (q *. 100.0) in
    "p" ^ String.concat "" (String.split_on_char '.' s)
  in
  let ladder h =
    Json.Obj
      (List.map (fun q -> (qname q, Json.Int (Hdr.quantile h q))) qs
      @ [ ("mean", Json.Float (Hdr.mean h)); ("max", Json.Int (Hdr.max_value h)) ])
  in
  Json.Obj
    [
      ("completed", Json.Int t.completed);
      ("dropped", Json.Int t.drops);
      ("double_finishes", Json.Int t.double_finishes);
      ("latency_ns", ladder t.hdr_total);
      ( "phases_ns",
        Json.Obj (List.map (fun p -> (phase_name p, ladder (phase_hdr t p))) all_phases)
      );
    ]
