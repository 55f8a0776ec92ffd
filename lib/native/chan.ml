(* Blocking FIFO channels between native tasks: the simulator's channel
   (lib/sim/chan.ml) under the channel's monitor instead of cooperative
   scheduling.  The ring, conditions, waiter counts and totals are all
   guarded by it.  An operation enters it once (with [lock]/[unlock],
   which allocate no closure, or [locked] around [filter]'s caller code)
   and there waits, moves, numbers, records the [Hb] edges and signals a
   counted waiter in the sim's order; it observes through {!Chan_obs}
   after leaving. *)

module Observed = Parcae_obs.Observed
module Chan_obs = Parcae_obs.Chan_obs
module Hb = Parcae_obs.Hb
module Monitor = Engine.Monitor
module Ring = Parcae_util.Ring

(* A condition and its waiters, counted under the monitor: a waiter counts
   itself before it waits, so a zero count read there means nobody to
   wake. *)
type counted = { cond : Monitor.c; mutable waiters : int }

type 'a t = {
  name : string;
  capacity : int;  (* 0 = unbounded *)
  eng : Engine.t;
  q : 'a Ring.t;
  mon : Monitor.m;
  nonempty : counted;
  nonfull : counted;
  mutable total_sent : int;  (* send sequence number *)
  mutable total_received : int;  (* receive sequence number *)
  mutable obs : Chan_obs.t;  (* written outside the monitor: a benign racy cache *)
}

let create ?(capacity = 0) eng name =
  let mon = Monitor.create () in
  {
    name;
    capacity;
    eng;
    q = Ring.create ();
    mon;
    nonempty = { cond = Monitor.cond mon; waiters = 0 };
    nonfull = { cond = Monitor.cond mon; waiters = 0 };
    total_sent = 0;
    total_received = 0;
    obs = Chan_obs.none;
  }

(* Read without the monitor: an int field is never torn. *)
let length ch = Ring.length ch.q
let total_sent ch = ch.total_sent

(* Every site reads the installed-observer word in place, so with nothing
   installed an operation pays one load per site. *)
let observed () = Atomic.get Observed.word <> 0

(* The calling task's id and compute ns: -1 and 0 outside any task. *)
let task_of = function Some t -> Engine.task_id t | None -> -1
let busy_of = function Some t -> Engine.task_busy_ns t | None -> 0

(* Report an operation that moved [k] items, numbered from [seq]; [t0] is
   when it blocked (-1: it did not), a wait charged to this worker's lane. *)
let report ch dir ~seq ~k ~t0 =
  let now = Engine.now ch.eng and self = Engine.self_opt () in
  let m =
    if t0 < 0 then ch.obs
    else
      Chan_obs.blocked ch.obs dir ~chan:ch.name ~wait_ns:(now - t0)
        ~lane:(Option.value (Engine.worker_id_opt ()) ~default:(-1))
  in
  let m =
    Chan_obs.op m dir ~chan:ch.name ~now ~task:(task_of self) ~busy_ns:(busy_of self) ~seq ~k
      ~depth:(length ch)
  in
  if m != ch.obs then ch.obs <- m

(* Report a flush that dropped [n] items; returns [n]. *)
let flushed ch n =
  (if observed () then
     let m =
       Chan_obs.flush ch.obs ~chan:ch.name ~now:(Engine.now ch.eng) ~dropped:n ~depth:(length ch)
     in
     if m != ch.obs then ch.obs <- m);
  n

(* Sanitizer edges pair (chan, seq) exactly, as on the sim: an item is
   numbered and its sender's clock published under the monitor, before a
   receiver can take it.  Outside any task there is no clock. *)
let[@inline] hb edge ch seq =
  if Atomic.get Observed.word land Observed.hb <> 0 then
    match Engine.self_opt () with
    | Some t -> edge ~task:(Engine.task_id t) ~chan:ch.name ~seq
    | None -> ()

let full ch = ch.capacity > 0 && Ring.length ch.q >= ch.capacity
let empty ch = Ring.is_empty ch.q

(* Under the monitor, wait on [k] while [blocked ch]; returns when the
   operation first blocked, -1 if it did not. *)
let rec wait ch blocked k t0 =
  if blocked ch then begin
    let t0 = if t0 < 0 then Engine.now ch.eng else t0 in
    k.waiters <- k.waiters + 1;
    Monitor.wait k.cond;
    k.waiters <- k.waiters - 1;
    wait ch blocked k t0
  end
  else t0

let signal k = if k.waiters > 0 then Monitor.signal k.cond
let broadcast k = if k.waiters > 0 then Monitor.broadcast k.cond

(* Under the monitor: append [v], number it, publish its edge and wake one
   counted receiver; returns its sequence number. *)
let enqueue ch v =
  let seq = ch.total_sent in
  Ring.push ch.q v;
  ch.total_sent <- seq + 1;
  hb Hb.on_send ch seq;
  signal ch.nonempty;
  seq

let send ch v =
  Monitor.lock ch.mon;
  let t0 = wait ch full ch.nonfull (-1) in
  let seq = enqueue ch v in
  Monitor.unlock ch.mon;
  if observed () then report ch Chan_obs.Send ~seq ~k:1 ~t0

(* Sentinel re-enqueue must never block: capacity is ignored. *)
let force_send ch v =
  Monitor.lock ch.mon;
  let seq = enqueue ch v in
  Monitor.unlock ch.mon;
  if observed () then report ch Chan_obs.Send ~seq ~k:1 ~t0:(-1)

let recv ch =
  Monitor.lock ch.mon;
  let t0 = wait ch empty ch.nonempty (-1) in
  let v = Ring.pop ch.q in
  let seq = ch.total_received in
  ch.total_received <- seq + 1;
  hb Hb.on_recv ch seq;
  signal ch.nonfull;
  Monitor.unlock ch.mon;
  if observed () then report ch Chan_obs.Recv ~seq ~k:1 ~t0;
  v

(* Enqueue the items one by one, each after waiting for room; returns
   when the first of them blocked, -1 if none did.  Each item is traced as
   it is enqueued: a bounded channel can block partway through. *)
let rec send_all ch t0 = function
  | [] -> t0
  | v :: tl ->
      let t0 = wait ch full ch.nonfull t0 in
      let seq = enqueue ch v in
      (if observed () then
         let self = Engine.self_opt () in
         let m =
           Chan_obs.trace ch.obs Chan_obs.Send ~chan:ch.name ~now:(Engine.now ch.eng)
             ~task:(task_of self) ~busy_ns:(busy_of self) ~seq 1
         in
         if m != ch.obs then ch.obs <- m);
      send_all ch t0 tl

let send_batch ch vs =
  if vs <> [] then begin
    Monitor.lock ch.mon;
    let t0 = send_all ch (-1) vs in
    Monitor.unlock ch.mon;
    if observed () then report ch Chan_obs.Send ~seq:(-1) ~k:(List.length vs) ~t0
  end

(* Claim up to [n] queued items in FIFO order, front-first: the list is
   built with no reversal and forwarded downstream as-is (the zero-copy
   hand-off [Pipeline.drain_stage] relies on). *)
let rec take_n ch n =
  if n = 0 || Ring.is_empty ch.q then []
  else begin
    let v = Ring.pop ch.q in
    ch.total_received <- ch.total_received + 1;
    v :: take_n ch (n - 1)
  end

let recv_batch ?max ch =
  let limit =
    match max with
    | Some m ->
        if m < 1 then invalid_arg "Chan.recv_batch: max must be >= 1";
        m
    | None -> -1
  in
  Monitor.lock ch.mon;
  let t0 = wait ch empty ch.nonempty (-1) in
  let base = ch.total_received in
  let out = take_n ch (if limit = -1 then Ring.length ch.q else limit) in
  let taken = ch.total_received - base in
  for i = 0 to taken - 1 do
    hb Hb.on_recv ch (base + i)
  done;
  broadcast ch.nonfull;
  Monitor.unlock ch.mon;
  if observed () then report ch Chan_obs.Recv ~seq:base ~k:taken ~t0;
  out

(* The flush operations leave the totals alone, as on the sim: flushed
   items stay sent and never received. *)
let filter ch keep =
  let removed =
    Monitor.locked ch.mon (fun () ->
        let removed = Ring.filter_in_place keep ch.q in
        if removed > 0 then broadcast ch.nonfull;
        removed)
  in
  flushed ch removed

let drain ch =
  Monitor.lock ch.mon;
  let n = Ring.length ch.q in
  Ring.clear ch.q;
  broadcast ch.nonfull;
  Monitor.unlock ch.mon;
  flushed ch n
