(* How a channel operation is observed, for both channel backends (see
   the .mli).

   A channel's binding is benignly racy on native: two workers may bind
   concurrently, but the registry interns every (family, labels) pair
   under its mutex and the sink every name under its own, so both
   bindings resolve to the same series and the same name id.  A binding
   is replaced whole, never updated in place, so a worker that reads a
   binding reads its fields as they were made.  The direct stores are
   plain writes, lossy under contention like every native counter. *)

type t = {
  reg : Metrics.t;
  sink : Sink.t;  (* the sink [chan_id] belongs to *)
  chan_id : int;  (* the channel's name, interned in [sink] *)
  name : string;
  sends : Metrics.counter;
  recvs : Metrics.counter;
  depth : Metrics.gauge;
  flushed : Metrics.counter;
  mutable send_block : Metrics.summary option;  (* created on the first block *)
  mutable recv_block : Metrics.summary option;
  mutable epoch : int;  (* [Observed.epoch] when [reg] and [sink] were last checked *)
}

type dir = Send | Recv

let make reg sink name =
  let labels = [ ("chan", name) ] in
  let counter family help = Metrics.counter reg family ~labels ~help in
  {
    reg;
    sink;
    chan_id = Sink.intern sink name;
    name;
    sends = counter "parcae_chan_sends_total" "Items enqueued, per channel.";
    recvs = counter "parcae_chan_recvs_total" "Items dequeued, per channel.";
    depth =
      Metrics.gauge reg "parcae_chan_depth" ~labels ~help:"Current queue occupancy, per channel.";
    flushed =
      counter "parcae_chan_flushed_total" "Items dropped by filter/drain on reconfiguration.";
    send_block = None;
    recv_block = None;
    epoch = -1;
  }

(* Bound to [Metrics.null] and [Sink.null], whose instruments are inert
   dummies; nothing is stored while a channel holds it. *)
let none = make Metrics.null Sink.null ""

let rebound m chan =
  let e = Atomic.get Observed.epoch in
  let reg = Metrics.current () and sink = Atomic.get Trace.current in
  let m =
    if m.reg == reg && m.sink == sink then m
    else if Metrics.is_null reg && Sink.is_null sink then none
    else make reg sink chan
  in
  if m != none then m.epoch <- e;
  m

(* [m] itself unless another registry or sink was installed since it was
   bound: while no scope opened or closed since it was checked, one load
   says so. *)
let[@inline] bound w m chan =
  if w land (Observed.metrics lor Observed.trace) = 0 then none
  else if m.epoch = Atomic.get Observed.epoch then m
  else rebound m chan

(* Whether [m] holds a live registry's series: a channel bound for the
   sink alone holds dummies. *)
let[@inline] counted m = not (Metrics.is_null m.reg)

let block_summary m dir =
  match (dir, m.send_block, m.recv_block) with
  | Send, Some s, _ | Recv, _, Some s -> s
  | _ ->
      let family, help =
        match dir with
        | Send ->
            ( "parcae_chan_send_block_ns",
              "Time senders spent blocked on a full channel, ns on the engine's clock." )
        | Recv ->
            ( "parcae_chan_recv_block_ns",
              "Time receivers spent blocked on an empty channel, ns on the engine's clock." )
      in
      let s = Metrics.summary m.reg family ~labels:[ ("chan", m.name) ] ~help in
      (match dir with Send -> m.send_block <- Some s | Recv -> m.recv_block <- Some s);
      s

let[@inline] trace_in w m dir ~now ~task ~busy_ns ~seq k =
  if w land Observed.trace <> 0 then
    Sink.chan_items m.sink ~recv:(dir = Recv) ~t:now ~chan:m.chan_id ~seq ~k ~task ~busy_ns

let trace m dir ~chan ~now ~task ~busy_ns ~seq k =
  let w = Atomic.get Observed.word in
  let m = bound w m chan in
  trace_in w m dir ~now ~task ~busy_ns ~seq k;
  m

let op m dir ~chan ~now ~task ~busy_ns ~seq ~k ~depth =
  let w = Atomic.get Observed.word in
  let m = bound w m chan in
  if counted m then begin
    (match dir with
    | Send -> m.sends.count <- m.sends.count + k
    | Recv -> m.recvs.count <- m.recvs.count + k);
    m.depth.level <- float_of_int depth
  end;
  if seq >= 0 then trace_in w m dir ~now ~task ~busy_ns ~seq k;
  m

(* A block explains its lane's time as Chan_wait.  On the sim the lane is
   the core the thread last computed on: the blocked thread held no core,
   so its wait displaced Park time there.  On native the blocked fiber
   suspends and the domain may run other work meanwhile, so this can
   over-report.  The timeline's attribution takes idle donor states first
   and is clamped, which covers both. *)
let blocked m dir ~chan ~wait_ns ~lane =
  let w = Atomic.get Observed.word in
  let m = bound w m chan in
  if counted m then Hdr.observe (block_summary m dir) wait_ns;
  if w land Observed.timeline <> 0 then
    ignore (Timeline.record_attribute ~lane Timeline.Chan_wait wait_ns);
  m

let flush m ~chan ~now ~dropped ~depth =
  let w = Atomic.get Observed.word in
  if w land Observed.trace <> 0 then Trace.emit ~t:now (Event.Chan_flush { chan; dropped });
  let m = bound w m chan in
  if counted m then begin
    m.flushed.count <- m.flushed.count + dropped;
    m.depth.level <- float_of_int depth
  end;
  m
