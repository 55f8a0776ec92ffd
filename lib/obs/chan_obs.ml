(* How a channel operation is observed, for both channel backends (see
   the .mli).

   A channel's binding is benignly racy on native: two workers may bind
   concurrently, but the registry interns every (family, labels) pair
   under its mutex, so both bindings resolve to the same series.  The
   direct stores are plain writes, lossy under contention like every
   native counter. *)

type t = {
  reg : Metrics.t;
  name : string;
  sends : Metrics.counter;
  recvs : Metrics.counter;
  depth : Metrics.gauge;
  flushed : Metrics.counter;
  mutable send_block : Metrics.summary option;  (* created on the first block *)
  mutable recv_block : Metrics.summary option;
}

type dir = Send | Recv

let make reg name =
  let labels = [ ("chan", name) ] in
  let counter family help = Metrics.counter reg family ~labels ~help in
  {
    reg;
    name;
    sends = counter "parcae_chan_sends_total" "Items enqueued, per channel.";
    recvs = counter "parcae_chan_recvs_total" "Items dequeued, per channel.";
    depth =
      Metrics.gauge reg "parcae_chan_depth" ~labels ~help:"Current queue occupancy, per channel.";
    flushed =
      counter "parcae_chan_flushed_total" "Items dropped by filter/drain on reconfiguration.";
    send_block = None;
    recv_block = None;
  }

(* Bound to [Metrics.null], whose instruments are inert dummies; nothing
   is stored while a channel holds it. *)
let none = make Metrics.null ""

(* [m] itself unless another registry was installed since it was bound. *)
let[@inline] bound w m chan =
  if w land Observed.metrics = 0 then none
  else
    let reg = Metrics.current () in
    if m.reg == reg then m else if Metrics.is_null reg then none else make reg chan

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

let trace dir ~chan ~now ~task ~busy_ns ~seq k =
  if Atomic.get Observed.word land Observed.trace <> 0 then
    for seq = seq to seq + k - 1 do
      match dir with
      | Send -> Trace.chan_send ~t:now ~chan ~seq ~task ~busy_ns
      | Recv -> Trace.chan_recv ~t:now ~chan ~seq ~task ~busy_ns
    done

(* A block explains its lane's time as Chan_wait.  On the sim the lane is
   the core the thread last computed on: the blocked thread held no core,
   so its wait displaced Park time there.  On native the blocked fiber
   suspends and the domain may run other work meanwhile, so this can
   over-report.  The timeline's attribution takes idle donor states first
   and is clamped, which covers both. *)
let op m dir ~chan ~now ~task ~busy_ns ~seq ~k ~depth ~wait_ns ~lane =
  let w = Atomic.get Observed.word in
  let m = bound w m chan in
  if m != none then begin
    (match dir with
    | Send -> m.sends.count <- m.sends.count + k
    | Recv -> m.recvs.count <- m.recvs.count + k);
    m.depth.level <- float_of_int depth;
    if wait_ns >= 0 then Metrics.observe_summary (block_summary m dir) wait_ns
  end;
  (if wait_ns >= 0 && w land Observed.timeline <> 0 then
     match Timeline.get () with
     | Some tl when lane >= 0 && lane < Timeline.lanes tl ->
         Timeline.attribute tl ~lane Timeline.Chan_wait wait_ns
     | _ -> ());
  if seq >= 0 then trace dir ~chan ~now ~task ~busy_ns ~seq k;
  m

let flush m ~chan ~now ~dropped ~depth =
  let w = Atomic.get Observed.word in
  if w land Observed.trace <> 0 then Trace.emit ~t:now (Event.Chan_flush { chan; dropped });
  let m = bound w m chan in
  if m != none then begin
    m.flushed.count <- m.flushed.count + dropped;
    m.depth.level <- float_of_int depth
  end;
  m
