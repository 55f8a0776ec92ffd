(* Blocking FIFO channels between simulated threads.

   MTCG-style pipelines use these as the point-to-point communication
   channels between tasks; workloads also use them as work queues.  Each
   operation charges the machine's [chan_op] cost to the calling thread,
   which is how communication overhead erodes parallel efficiency in the
   simulation (Section 2.3 of the paper).  Channels are multi-producer
   multi-consumer; used single-producer single-consumer they preserve
   sequential order, which the pause/reconfigure protocol relies on. *)

module Metrics = Parcae_obs.Metrics
module Chan_metrics = Parcae_obs.Chan_metrics
module Trace = Parcae_obs.Trace
module Event = Parcae_obs.Event
module Timeline = Parcae_obs.Timeline
module Hb = Parcae_obs.Hb
module Ring = Parcae_util.Ring

type 'a t = {
  name : string;
  capacity : int;  (* 0 = unbounded *)
  q : 'a Ring.t;  (* slot-reusing FIFO: no cell per message *)
  eng : Engine.t;
  nonempty : Engine.cond;
  nonfull : Engine.cond;
  op_cost : int;  (* resolved against the machine at creation *)
  mutable total_sent : int;
  mutable total_received : int;  (* receive sequence number *)
  mutable mx : Chan_metrics.t;
}

(* The operation cost is resolved once, so a send or receive reads no
   machine. *)
let create ?(capacity = 0) eng name =
  {
    name;
    capacity;
    q = Ring.create ();
    eng;
    nonempty = Engine.cond_create eng;
    nonfull = Engine.cond_create eng;
    op_cost = (Engine.machine eng).Machine.chan_op;
    total_sent = 0;
    total_received = 0;
    mx = Chan_metrics.none;
  }

(* The channel's metric handles for the installed registry, rebound when
   it changes; [Chan_metrics.none] while none is installed. *)
let metrics ch =
  let reg = Metrics.current () in
  if ch.mx.Chan_metrics.reg != reg then ch.mx <- Chan_metrics.bind reg ch.name;
  ch.mx

(* Registry updates after an operation moved [k] items; [waited] blocks
   are measured from [t0] on the virtual clock. *)
let note_send ch k waited t0 =
  let m = metrics ch in
  if m != Chan_metrics.none then begin
    m.sends.count <- m.sends.count + k;
    m.depth.level <- float_of_int (Ring.length ch.q);
    if waited then Metrics.observe_summary (Chan_metrics.send_block m) (Engine.time ch.eng - t0)
  end

let note_recv ch k waited t0 =
  let m = metrics ch in
  if m != Chan_metrics.none then begin
    m.recvs.count <- m.recvs.count + k;
    m.depth.level <- float_of_int (Ring.length ch.q);
    if waited then Metrics.observe_summary (Chan_metrics.recv_block m) (Engine.time ch.eng - t0)
  end

let note_flush ch removed =
  let m = metrics ch in
  if m != Chan_metrics.none then begin
    m.flushed.count <- m.flushed.count + removed;
    m.depth.level <- float_of_int (Ring.length ch.q)
  end

(* The wait instruments want a start time when either sink is live. *)
let observing () = Metrics.enabled () || Timeline.enabled ()

(* Explain a measured block as Chan_wait on the core the thread last
   computed on (non-burst code runs off-core in the sim).  While blocked
   the thread held no core — the wait displaced Park time on that lane,
   which is exactly what the timeline's idle-first attribution transfer
   expresses. *)
let tl_wait ch waited t0 =
  if waited then
    match Timeline.get () with
    | Some tl -> (
        match Engine.core_opt () with
        | Some core when core < Timeline.lanes tl ->
            Timeline.attribute tl ~lane:core Timeline.Chan_wait (Engine.time ch.eng - t0)
        | _ -> ())
    | None -> ()

(* Sanitizer edges use the exact (chan, seq) FIFO pairing.  The send-side
   clock must be published before any other thread can observe the item:
   these run at the seq-assignment point, before the consumer woken by
   [signal] can run. *)
let hb_send ch seq =
  if Hb.enabled () then Hb.on_send ~task:(Engine.self ()).Engine.tid ~chan:ch.name ~seq

let hb_recv ch seq =
  if Hb.enabled () then Hb.on_recv ~task:(Engine.self ()).Engine.tid ~chan:ch.name ~seq

let emit_send ch seq =
  if Trace.enabled () then begin
    let th = Engine.self () in
    Trace.chan_send ~t:(Engine.time ch.eng) ~chan:ch.name ~seq ~task:th.Engine.tid
      ~busy_ns:th.Engine.busy_ns
  end

let emit_recv ch seq =
  if Trace.enabled () then begin
    let th = Engine.self () in
    Trace.chan_recv ~t:(Engine.time ch.eng) ~chan:ch.name ~seq ~task:th.Engine.tid
      ~busy_ns:th.Engine.busy_ns
  end

let emit_flush ch dropped =
  if Trace.enabled () then
    Trace.emit ~t:(Engine.time ch.eng) (Event.Chan_flush { chan = ch.name; dropped })

let length ch = Ring.length ch.q
let total_sent ch = ch.total_sent

(* The blocking operations share a discipline: the op cost is computed
   immediately ([compute_in]) — a channel operation is a synchronization
   edge, so deferring its cost would shorten the simulated critical path
   and let dependent threads observe data before the communication was
   paid for.  Only thread-local bookkeeping debt (hook charges) stays
   deferred, and that debt is flushed before the thread would wait.
   Flushing suspends, so the wait predicate is always re-checked after a
   flush — waiting right after one could miss a signal sent while the
   thread was off the waiter queue.

   Each operation has one path.  Every hook carries its own guard, so with
   all observers off — the serving steady state — an operation allocates
   nothing: the wait helpers are top-level recursive functions that return
   whether they blocked, where a local [let rec loop] would close over the
   operation's locals and be allocated per call. *)
let rec wait_nonfull ch blocked =
  if ch.capacity > 0 && Ring.length ch.q >= ch.capacity then begin
    if not (Engine.flush_charges ch.eng) then Engine.wait_on ch.nonfull;
    wait_nonfull ch true
  end
  else blocked

let rec wait_nonempty ch blocked =
  if Ring.is_empty ch.q then begin
    if not (Engine.flush_charges ch.eng) then Engine.wait_on ch.nonempty;
    wait_nonempty ch true
  end
  else blocked

(* Enqueue [v], blocking while the channel is at capacity. *)
let send ch v =
  Engine.compute_in ch.eng ch.op_cost;
  let t0 = if observing () then Engine.time ch.eng else 0 in
  let waited = wait_nonfull ch false in
  let seq = ch.total_sent in
  Ring.push ch.q v;
  ch.total_sent <- seq + 1;
  hb_send ch seq;
  Engine.signal ch.nonempty;
  note_send ch 1 waited t0;
  tl_wait ch waited t0;
  emit_send ch seq

(* Dequeue, blocking while the channel is empty. *)
let recv ch =
  Engine.charge ch.eng ch.op_cost;
  let t0 = if observing () then Engine.time ch.eng else 0 in
  let waited = wait_nonempty ch false in
  let v = Ring.pop ch.q in
  let seq = ch.total_received in
  ch.total_received <- seq + 1;
  hb_recv ch seq;
  Engine.signal ch.nonfull;
  note_recv ch 1 waited t0;
  tl_wait ch waited t0;
  emit_recv ch seq;
  v

(* Enqueue [v] regardless of capacity.  Control sentinels use this: a lane
   re-enqueueing a sentinel it just consumed must never block, or the
   pause/flush protocol could deadlock on a full channel. *)
let force_send ch v =
  Engine.compute_in ch.eng ch.op_cost;
  let seq = ch.total_sent in
  Ring.push ch.q v;
  ch.total_sent <- seq + 1;
  hb_send ch seq;
  note_send ch 1 false 0;
  emit_send ch seq;
  Engine.signal ch.nonempty

(* Enqueue the items one by one, each after waiting for room; returns
   whether any of them blocked. *)
let rec send_all ch blocked = function
  | [] -> blocked
  | v :: tl ->
      let blocked = wait_nonfull ch blocked in
      let seq = ch.total_sent in
      Ring.push ch.q v;
      ch.total_sent <- seq + 1;
      hb_send ch seq;
      emit_send ch seq;
      Engine.signal ch.nonempty;
      send_all ch blocked tl

(* Enqueue a whole batch for a single [chan_op] charge — the amortized
   communication of Section 2.3.  Blocks (after the charge) whenever the
   next item would overflow a bounded channel. *)
let send_batch ch vs =
  Engine.compute_in ch.eng ch.op_cost;
  let t0 = if observing () then Engine.time ch.eng else 0 in
  let waited = send_all ch false vs in
  note_send ch (List.length vs) waited t0;
  tl_wait ch waited t0

(* Claim up to [n] queued items in FIFO order; the caller has ensured the
   queue is nonempty.  Builds the result front-first so no reversal (and
   no accumulator cells) is needed. *)
let rec take_n ch n =
  if n = 0 || Ring.is_empty ch.q then []
  else begin
    let v = Ring.pop ch.q in
    ch.total_received <- ch.total_received + 1;
    v :: take_n ch (n - 1)
  end

(* Dequeue at least one and at most [max] items (default: everything
   queued) for a single [chan_op] charge. *)
let recv_batch ?max ch =
  Engine.charge ch.eng ch.op_cost;
  let limit =
    match max with
    | Some m ->
        if m < 1 then invalid_arg "Chan.recv_batch: max must be >= 1";
        m
    | None -> -1
  in
  let t0 = if observing () then Engine.time ch.eng else 0 in
  let waited = wait_nonempty ch false in
  let base = ch.total_received in
  let out = take_n ch (if limit = -1 then Ring.length ch.q else limit) in
  let taken = ch.total_received - base in
  if Hb.enabled () then
    for i = 0 to taken - 1 do
      hb_recv ch (base + i)
    done;
  if Trace.enabled () then
    for i = 0 to taken - 1 do
      emit_recv ch (base + i)
    done;
  Engine.broadcast ch.nonfull;
  note_recv ch taken waited t0;
  tl_wait ch waited t0;
  out

(* Keep only the items satisfying [keep], preserving order; returns how many
   were removed.  Used to strip pause sentinels from work queues on
   resumption without dropping pending requests. *)
let filter ch keep =
  (* A flush is a real channel operation: charge one op of virtual time so
     the reconfiguration overhead ledger sees a nonzero flush phase. *)
  Engine.compute_in ch.eng ch.op_cost;
  let removed = Ring.filter_in_place keep ch.q in
  if removed > 0 then Engine.broadcast ch.nonfull;
  emit_flush ch removed;
  note_flush ch removed;
  removed

(* Discard all queued items; used when the runtime resets communication
   channels on resumption after a reconfiguration (Section 4.5). *)
let drain ch =
  Engine.compute_in ch.eng ch.op_cost;
  let n = Ring.length ch.q in
  Ring.clear ch.q;
  Engine.broadcast ch.nonfull;
  emit_flush ch n;
  note_flush ch n;
  n
