(* Blocking FIFO channels between simulated threads.

   MTCG-style pipelines use these as the point-to-point communication
   channels between tasks; workloads also use them as work queues.  Each
   operation charges the machine's [chan_op] cost to the calling thread,
   which is how communication overhead erodes parallel efficiency in the
   simulation (Section 2.3 of the paper).  Channels are multi-producer
   multi-consumer; used single-producer single-consumer they preserve
   sequential order, which the pause/reconfigure protocol relies on. *)

module Observed = Parcae_obs.Observed
module Chan_obs = Parcae_obs.Chan_obs
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
  mutable obs : Chan_obs.t;
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
    obs = Chan_obs.none;
  }

(* Observation.  Every site reads the installed-observer word in place,
   so with nothing installed an operation pays one load per site;
   {!Chan_obs} decides what the installed observers record. *)
let observed () = Atomic.get Observed.word <> 0

(* Report an operation that moved [k] items, numbered from [seq]; [t0] is
   when it blocked (-1: it did not), a wait charged to the core the thread
   last computed on (non-burst code runs off-core in the sim). *)
let report ch dir ~seq ~k ~t0 =
  let now = Engine.time ch.eng and depth = Ring.length ch.q in
  let task, busy_ns, lane =
    match Engine.current ch.eng with
    | Some th -> (th.Engine.tid, th.Engine.busy_ns, if th.core >= 0 then th.core else th.last_core)
    | None -> (-1, 0, -1)
  in
  let m =
    if t0 < 0 then ch.obs
    else Chan_obs.blocked ch.obs dir ~chan:ch.name ~wait_ns:(now - t0) ~lane
  in
  let m = Chan_obs.op m dir ~chan:ch.name ~now ~task ~busy_ns ~seq ~k ~depth in
  if m != ch.obs then ch.obs <- m

let report_flush ch dropped =
  let m =
    Chan_obs.flush ch.obs ~chan:ch.name ~now:(Engine.time ch.eng) ~dropped
      ~depth:(Ring.length ch.q)
  in
  if m != ch.obs then ch.obs <- m

(* Sanitizer edges use the exact (chan, seq) FIFO pairing.  The send-side
   clock must be published before any other thread can observe the item:
   these run at the seq-assignment point, before the consumer woken by
   [signal] can run. *)
let[@inline] hb_send ch seq =
  if Atomic.get Observed.word land Observed.hb <> 0 then
    Hb.on_send ~task:(Engine.self ()).Engine.tid ~chan:ch.name ~seq

let[@inline] hb_recv ch seq =
  if Atomic.get Observed.word land Observed.hb <> 0 then
    Hb.on_recv ~task:(Engine.self ()).Engine.tid ~chan:ch.name ~seq

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

   Each operation has one path.  Its observation reads the installed-
   observer word first, so with all observers off — the serving steady
   state — an operation allocates nothing: the wait helpers are top-level
   recursive functions, where a local [let rec loop] would close over the
   operation's locals and be allocated per call.  They return when the
   operation first blocked, -1 if it did not: nothing suspends before
   their first check, so that is the instant the operation began
   waiting. *)
let rec wait_nonfull ch t0 =
  if ch.capacity > 0 && Ring.length ch.q >= ch.capacity then begin
    let t0 = if t0 < 0 then Engine.time ch.eng else t0 in
    if not (Engine.flush_charges ch.eng) then Engine.wait_on ch.nonfull;
    wait_nonfull ch t0
  end
  else t0

let rec wait_nonempty ch t0 =
  if Ring.is_empty ch.q then begin
    let t0 = if t0 < 0 then Engine.time ch.eng else t0 in
    if not (Engine.flush_charges ch.eng) then Engine.wait_on ch.nonempty;
    wait_nonempty ch t0
  end
  else t0

(* Enqueue [v], blocking while the channel is at capacity. *)
let send ch v =
  Engine.compute_in ch.eng ch.op_cost;
  let t0 = wait_nonfull ch (-1) in
  let seq = ch.total_sent in
  Ring.push ch.q v;
  ch.total_sent <- seq + 1;
  hb_send ch seq;
  Engine.signal ch.nonempty;
  if observed () then report ch Chan_obs.Send ~seq ~k:1 ~t0

(* Dequeue, blocking while the channel is empty. *)
let recv ch =
  Engine.charge ch.eng ch.op_cost;
  let t0 = wait_nonempty ch (-1) in
  let v = Ring.pop ch.q in
  let seq = ch.total_received in
  ch.total_received <- seq + 1;
  hb_recv ch seq;
  Engine.signal ch.nonfull;
  if observed () then report ch Chan_obs.Recv ~seq ~k:1 ~t0;
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
  if observed () then report ch Chan_obs.Send ~seq ~k:1 ~t0:(-1);
  Engine.signal ch.nonempty

(* Enqueue the items one by one, each after waiting for room; returns
   when the first of them blocked, -1 if none did.  Each item is traced as
   it is enqueued: a bounded channel can block partway through the
   batch. *)
let rec send_all ch t0 = function
  | [] -> t0
  | v :: tl ->
      let t0 = wait_nonfull ch t0 in
      let seq = ch.total_sent in
      Ring.push ch.q v;
      ch.total_sent <- seq + 1;
      hb_send ch seq;
      (if observed () then
         let now = Engine.time ch.eng in
         let m =
           match Engine.current ch.eng with
           | Some th ->
               Chan_obs.trace ch.obs Chan_obs.Send ~chan:ch.name ~now ~task:th.Engine.tid
                 ~busy_ns:th.Engine.busy_ns ~seq 1
           | None ->
               Chan_obs.trace ch.obs Chan_obs.Send ~chan:ch.name ~now ~task:(-1) ~busy_ns:0 ~seq 1
         in
         if m != ch.obs then ch.obs <- m);
      Engine.signal ch.nonempty;
      send_all ch t0 tl

(* Enqueue a whole batch for a single [chan_op] charge — the amortized
   communication of Section 2.3.  Blocks (after the charge) whenever the
   next item would overflow a bounded channel. *)
let send_batch ch vs =
  Engine.compute_in ch.eng ch.op_cost;
  let t0 = send_all ch (-1) vs in
  if observed () && vs <> [] then report ch Chan_obs.Send ~seq:(-1) ~k:(List.length vs) ~t0

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
  let t0 = wait_nonempty ch (-1) in
  let base = ch.total_received in
  let out = take_n ch (if limit = -1 then Ring.length ch.q else limit) in
  let taken = ch.total_received - base in
  for i = 0 to taken - 1 do
    hb_recv ch (base + i)
  done;
  Engine.broadcast ch.nonfull;
  if observed () then report ch Chan_obs.Recv ~seq:base ~k:taken ~t0;
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
  if observed () then report_flush ch removed;
  removed

(* Discard all queued items; used when the runtime resets communication
   channels on resumption after a reconfiguration (Section 4.5). *)
let drain ch =
  Engine.compute_in ch.eng ch.op_cost;
  let n = Ring.length ch.q in
  Ring.clear ch.q;
  Engine.broadcast ch.nonfull;
  if observed () then report_flush ch n;
  n
