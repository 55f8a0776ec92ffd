(* Blocking FIFO channels between native tasks, contention-free on the
   hot path.

   The queue itself is a lock-free Michael–Scott linked queue (GC makes
   the classic ABA hazard vanish: nodes are never reused).  Single sends
   and receives are one CAS each; [send_batch] links the whole batch into
   a private chain and appends it with a single CAS on [tail.next], and
   [recv_batch] walks up to [max] nodes and claims them all with a single
   CAS on [head] — the "batched CAS reservation" that makes batch cost
   O(1) synchronisation instead of one lock round-trip per item.

   Blocking is layered on top: each channel owns a small {!Engine.Monitor}
   used only when a caller must wait.  A waiter registers itself in an
   atomic waiter count *inside* the monitor before re-checking the queue;
   a producer enqueues first and reads the waiter count second.  Under
   sequentially consistent atomics one of the two must observe the other,
   so a wake-up can never be lost, and the uncontended path never touches
   the monitor at all.

   Capacity is a soft bound: senders check [qlen] before enqueueing, so
   with k concurrent producers occupancy can transiently overshoot the
   capacity by at most k-1 items.  The pause/flush protocol's guarantees
   are unaffected (its bound is the flush, not the capacity).

   [filter] and [drain] are only linearizable against concurrent senders
   in the weak sense that late arrivals may survive the flush; the
   runtime only calls them inside a pause window, where producers are
   parked. *)

module Metrics = Parcae_obs.Metrics
module Chan_metrics = Parcae_obs.Chan_metrics
module Trace = Parcae_obs.Trace
module Event = Parcae_obs.Event
module Timeline = Parcae_obs.Timeline
module Monitor = Engine.Monitor
module Hb = Parcae_obs.Hb

type 'a node = { value : 'a option Atomic.t; next : 'a node option Atomic.t }

let node v = { value = Atomic.make v; next = Atomic.make None }

type 'a t = {
  name : string;
  capacity : int;  (* 0 = unbounded *)
  eng : Engine.t;
  head : 'a node Atomic.t;  (* dummy; items start at head.next *)
  tail : 'a node Atomic.t;
  qlen : int Atomic.t;
  sent : int Atomic.t;
  received : int Atomic.t;
  recv_waiters : int Atomic.t;
  send_waiters : int Atomic.t;
  mon : Monitor.m;
  nonempty : Monitor.c;
  nonfull : Monitor.c;
  mutable mx : Chan_metrics.t;  (* benign racy cache *)
}

let create ?(capacity = 0) eng name =
  let dummy = node None in
  let mon = Monitor.create () in
  {
    name;
    capacity;
    eng;
    head = Atomic.make dummy;
    tail = Atomic.make dummy;
    qlen = Atomic.make 0;
    sent = Atomic.make 0;
    received = Atomic.make 0;
    recv_waiters = Atomic.make 0;
    send_waiters = Atomic.make 0;
    mon;
    nonempty = Monitor.cond mon;
    nonfull = Monitor.cond mon;
    mx = Chan_metrics.none;
  }

let length ch = Int.max 0 (Atomic.get ch.qlen)
let total_sent ch = Atomic.get ch.sent

(* ------------------------------------------------------------------ *)
(* The lock-free core.                                                 *)
(* ------------------------------------------------------------------ *)

(* Append the pre-linked chain [first..last] with one CAS on the live
   tail's [next]; then swing [tail] (cooperatively — a stalled swing is
   helped by the next enqueuer). *)
let rec enqueue_chain ch first last =
  let t = Atomic.get ch.tail in
  match Atomic.get t.next with
  | Some nxt ->
      (* Help a lagging enqueuer finish its tail swing. *)
      ignore (Atomic.compare_and_set ch.tail t nxt : bool);
      enqueue_chain ch first last
  | None ->
      if Atomic.compare_and_set t.next None (Some first) then
        ignore (Atomic.compare_and_set ch.tail t last : bool)
      else enqueue_chain ch first last

(* Returns the item's send sequence number (0-based FIFO position), the
   half of the (chan, seq) causal edge the trace exposes. *)
let enqueue ch v =
  let n = node (Some v) in
  enqueue_chain ch n n;
  Atomic.incr ch.qlen;
  Atomic.fetch_and_add ch.sent 1

(* One CAS on [head] claims the first node; the claimed node becomes the
   new dummy and its value slot is cleared for the GC.  Returns the value
   with its receive sequence number. *)
let rec try_dequeue ch =
  let h = Atomic.get ch.head in
  match Atomic.get h.next with
  | None -> None
  | Some n ->
      if Atomic.compare_and_set ch.head h n then begin
        let v = Atomic.get n.value in
        Atomic.set n.value None;
        Atomic.decr ch.qlen;
        let seq = Atomic.fetch_and_add ch.received 1 in
        match v with
        | Some v -> Some (v, seq)
        | None ->
            (* Unreachable: a node's value is written before it is linked,
               and cleared only by the unique claimant of that node. *)
            assert false
      end
      else try_dequeue ch

exception Race

(* Claim up to [limit] nodes with a single CAS on [head].  The walk reads
   values before the claim; if a competing dequeuer got there first we
   either see its cleared slot (abort, retry) or our CAS fails.  Returns
   the claimed values in FIFO order plus the receive sequence number of
   the first — two list reversals' worth of cells and nothing per item,
   so the result list can be forwarded downstream as-is (the zero-copy
   hand-off [Pipeline.drain_stage] relies on). *)
let rec try_dequeue_batch ch limit =
  if limit <= 0 then ([], 0)
  else begin
    let h = Atomic.get ch.head in
    let rec walk last acc k =
      if k = limit then (last, acc, k)
      else
        match Atomic.get last.next with
        | None -> (last, acc, k)
        | Some nx -> (
            match Atomic.get nx.value with
            | None -> raise_notrace Race
            | Some v -> walk nx (v :: acc) (k + 1))
    in
    match walk h [] 0 with
    | exception Race -> try_dequeue_batch ch limit
    | _, _, 0 -> ([], 0)
    | last, acc, k ->
        if Atomic.compare_and_set ch.head h last then begin
          Atomic.set last.value None;
          ignore (Atomic.fetch_and_add ch.qlen (-k) : int);
          let base = Atomic.fetch_and_add ch.received k in
          (List.rev acc, base)
        end
        else try_dequeue_batch ch limit
  end

(* ------------------------------------------------------------------ *)
(* Wake-ups (cross the monitor only when someone is actually parked).   *)
(* ------------------------------------------------------------------ *)

let wake_recv ch ~all =
  if Atomic.get ch.recv_waiters > 0 then
    if all then Monitor.broadcast ch.nonempty else Monitor.signal ch.nonempty

let wake_send ch ~all =
  if ch.capacity > 0 && Atomic.get ch.send_waiters > 0 then
    if all then Monitor.broadcast ch.nonfull else Monitor.signal ch.nonfull

(* ------------------------------------------------------------------ *)
(* Metrics (Chan_metrics: the same families and labels as sim).        *)
(* ------------------------------------------------------------------ *)

(* The channel's metric handles for the installed registry, rebound when
   it changes; [Chan_metrics.none] while none is installed. *)
let metrics ch =
  let reg = Metrics.current () in
  if ch.mx.Chan_metrics.reg != reg then ch.mx <- Chan_metrics.bind reg ch.name;
  ch.mx

(* Registry updates after an operation moved [k] items; [waited] blocks
   are measured from [t0] on the engine's real clock. *)
let note_send ch k waited t0 =
  let m = metrics ch in
  if m != Chan_metrics.none then begin
    m.sends.count <- m.sends.count + k;
    m.depth.level <- float_of_int (length ch);
    if waited then Metrics.observe_summary (Chan_metrics.send_block m) (Engine.now ch.eng - t0)
  end

let note_recv ch k waited t0 =
  let m = metrics ch in
  if m != Chan_metrics.none then begin
    m.recvs.count <- m.recvs.count + k;
    m.depth.level <- float_of_int (length ch);
    if waited then Metrics.observe_summary (Chan_metrics.recv_block m) (Engine.now ch.eng - t0)
  end

(* The wait instruments want a start time when either sink is live. *)
let observing () = Metrics.enabled () || Timeline.enabled ()

(* A measured block explains this worker lane's time as Chan_wait.  On the
   native engine the blocked *fiber* suspends and the domain may run other
   work meanwhile, so this can over-report; the timeline's clamped
   attribution transfer absorbs that (idle donor states first). *)
let tl_wait ch waited t0 =
  if waited then
    match Timeline.get () with
    | Some tl -> (
        match Engine.worker_id_opt () with
        | Some lane when lane < Timeline.lanes tl ->
            Timeline.attribute tl ~lane Timeline.Chan_wait (Engine.now ch.eng - t0)
        | _ -> ())
    | None -> ()

(* Sanitizer edges.  Native channels cannot use exact (chan, seq) pairing:
   the item becomes visible to consumers at the enqueue CAS, before its
   sequence number is assigned.  Instead the sender publishes into the
   channel's *cumulative* clock before enqueueing and the receiver
   acquires it after dequeueing — an over-approximation (a receive joins
   every earlier send on the channel) that can only add happens-before
   edges, never miss a real one, so it cannot produce false races. *)
let hb_send ch =
  if Hb.enabled () then
    match Engine.self_opt () with
    | Some t -> Hb.on_send ~task:(Engine.task_id t) ~chan:ch.name ~seq:(-1)
    | None -> ()

let hb_recv ch =
  if Hb.enabled () then
    match Engine.self_opt () with
    | Some t -> Hb.on_recv ~task:(Engine.task_id t) ~chan:ch.name ~seq:(-1)
    | None -> ()

(* [emit] is [Trace.chan_send] or [Trace.chan_recv]; a caller outside any
   task records task -1 with no compute. *)
let emit_op emit ch seq =
  if Trace.enabled () then
    match Engine.self_opt () with
    | Some task ->
        emit ~t:(Engine.now ch.eng) ~chan:ch.name ~seq ~task:(Engine.task_id task)
          ~busy_ns:(Engine.task_busy_ns task)
    | None -> emit ~t:(Engine.now ch.eng) ~chan:ch.name ~seq ~task:(-1) ~busy_ns:0

let emit_send ch seq = emit_op Trace.chan_send ch seq
let emit_recv ch seq = emit_op Trace.chan_recv ch seq

let emit_send_range ch base k =
  if Trace.enabled () then
    for i = 0 to k - 1 do
      emit_send ch (base + i)
    done

(* ------------------------------------------------------------------ *)
(* Blocking protocol.                                                  *)
(* ------------------------------------------------------------------ *)

let has_room ch = ch.capacity = 0 || Atomic.get ch.qlen < ch.capacity

(* Park on [cond] until [ready ()].  The waiter count is raised inside
   the monitor and before the re-check: a producer that reads the old
   count must, by SC, have completed its enqueue before our re-check. *)
let await_inside ch waiters cond ready =
  Monitor.locked ch.mon (fun () ->
      Atomic.incr waiters;
      Fun.protect
        ~finally:(fun () -> Atomic.decr waiters)
        (fun () ->
          while not (ready ()) do
            Monitor.wait cond
          done))

let send ch v =
  let waited = (not (has_room ch)) && ch.capacity > 0 in
  let t0 = if waited && observing () then Engine.now ch.eng else 0 in
  if waited then await_inside ch ch.send_waiters ch.nonfull (fun () -> has_room ch);
  hb_send ch;
  let seq = enqueue ch v in
  wake_recv ch ~all:false;
  note_send ch 1 waited t0;
  tl_wait ch waited t0;
  emit_send ch seq

let force_send ch v =
  (* Sentinel re-enqueue must never block: ignore capacity. *)
  hb_send ch;
  let seq = enqueue ch v in
  wake_recv ch ~all:false;
  note_send ch 1 false 0;
  emit_send ch seq

let recv ch =
  match try_dequeue ch with
  | Some (v, seq) ->
      hb_recv ch;
      wake_send ch ~all:false;
      note_recv ch 1 false 0;
      emit_recv ch seq;
      v
  | None ->
      let t0 = if observing () then Engine.now ch.eng else 0 in
      let out = ref None in
      await_inside ch ch.recv_waiters ch.nonempty (fun () ->
          match try_dequeue ch with
          | Some vs ->
              out := Some vs;
              true
          | None -> false);
      let v, seq = Option.get !out in
      hb_recv ch;
      wake_send ch ~all:false;
      note_recv ch 1 true t0;
      tl_wait ch true t0;
      emit_recv ch seq;
      v

let send_batch ch vs =
  if vs <> [] then begin
    let total = List.length vs in
    let t0 = if observing () then Engine.now ch.eng else 0 in
    let waited = ref false in
    (* Bounded channels take the batch in capacity-sized chunks, waiting
       for room between chunks, so a batch larger than the capacity wraps
       through the queue instead of overshooting it wholesale.  Each chunk
       is pre-linked privately and appended with ONE CAS. *)
    hb_send ch;
    let rec go vs =
      match vs with
      | [] -> ()
      | v :: _ ->
          if not (has_room ch) then begin
            waited := true;
            await_inside ch ch.send_waiters ch.nonfull (fun () -> has_room ch)
          end;
          let room =
            if ch.capacity = 0 then max_int
            else Int.max 1 (ch.capacity - Atomic.get ch.qlen)
          in
          let first = node (Some v) in
          let rec link last k = function
            | vs when k >= room -> (last, k, vs)
            | [] -> (last, k, [])
            | v :: tl ->
                let n = node (Some v) in
                Atomic.set last.next (Some n);
                link n (k + 1) tl
          in
          let last, k, rest = link first 1 (List.tl vs) in
          enqueue_chain ch first last;
          ignore (Atomic.fetch_and_add ch.qlen k : int);
          let base = Atomic.fetch_and_add ch.sent k in
          wake_recv ch ~all:(k > 1);
          emit_send_range ch base k;
          go rest
    in
    go vs;
    note_send ch total !waited t0;
    tl_wait ch !waited t0
  end

let recv_batch ?max ch =
  let limit =
    match max with
    | Some m ->
        if m < 1 then invalid_arg "Chan.recv_batch: max must be >= 1";
        m
    | None -> max_int
  in
  (* Blocks only while the channel is empty; returns 1..limit items. *)
  let take () =
    let limit = if limit = max_int then Int.max 1 (length ch) else limit in
    try_dequeue_batch ch limit
  in
  (* The claimed list is returned verbatim: the fast path re-sends these
     very cells downstream, so no copy is made here. *)
  let deliver items base waited t0 =
    hb_recv ch;
    wake_send ch ~all:true;
    note_recv ch (List.length items) waited t0;
    tl_wait ch waited t0;
    if Trace.enabled () then
      for i = 0 to List.length items - 1 do
        emit_recv ch (base + i)
      done;
    items
  in
  match take () with
  | (_ :: _ as items), base -> deliver items base false 0
  | [], _ ->
      let t0 = if observing () then Engine.now ch.eng else 0 in
      let out = ref ([], 0) in
      await_inside ch ch.recv_waiters ch.nonempty (fun () ->
          match take () with
          | [], _ -> false
          | items ->
              out := items;
              true);
      let items, base = !out in
      deliver items base true t0

(* ------------------------------------------------------------------ *)
(* Flush operations (pause-window protocol).                           *)
(* ------------------------------------------------------------------ *)

let flush_note ch removed =
  if removed > 0 then wake_send ch ~all:true;
  if Parcae_obs.Trace.enabled () then
    Parcae_obs.Trace.emit ~t:(Engine.now ch.eng)
      (Parcae_obs.Event.Chan_flush { chan = ch.name; dropped = removed });
  let m = metrics ch in
  if m != Chan_metrics.none then begin
    m.flushed.count <- m.flushed.count + removed;
    m.depth.level <- float_of_int (length ch)
  end

let take_all ch =
  let rec go acc =
    match try_dequeue_batch ch 1024 with
    | [], _ -> List.concat (List.rev acc)
    | items, _ -> go (items :: acc)
  in
  go []

let filter ch keep =
  Monitor.locked ch.mon (fun () ->
      let items = take_all ch in
      let kept = List.filter keep items in
      let removed = List.length items - List.length kept in
      (* Re-enqueue survivors in order; counters net out to zero so the
         totals only reflect real traffic, not the flush round-trip
         (flushed items stay "sent but never received", like the sim). *)
      List.iter (fun v -> ignore (enqueue ch v : int)) kept;
      ignore (Atomic.fetch_and_add ch.sent (-List.length kept) : int);
      ignore (Atomic.fetch_and_add ch.received (-List.length items) : int);
      if kept <> [] then wake_recv ch ~all:true;
      flush_note ch removed;
      removed)

let drain ch =
  Monitor.locked ch.mon (fun () ->
      let n = List.length (take_all ch) in
      ignore (Atomic.fetch_and_add ch.received (-n) : int);
      flush_note ch n;
      n)
