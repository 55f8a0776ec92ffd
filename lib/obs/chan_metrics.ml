(* Channel metrics shared by both channel backends (see the .mli).

   A channel's binding is benignly racy on native: two workers may bind
   concurrently, but the registry interns every (family, labels) pair
   under its mutex, so both bindings resolve to the same series. *)

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

let labels name = [ ("chan", name) ]

let make reg name =
  let labels = labels name in
  {
    reg;
    name;
    sends =
      Metrics.counter reg "parcae_chan_sends_total" ~labels ~help:"Items enqueued, per channel.";
    recvs =
      Metrics.counter reg "parcae_chan_recvs_total" ~labels ~help:"Items dequeued, per channel.";
    depth =
      Metrics.gauge reg "parcae_chan_depth" ~labels ~help:"Current queue occupancy, per channel.";
    flushed =
      Metrics.counter reg "parcae_chan_flushed_total" ~labels
        ~help:"Items dropped by filter/drain on reconfiguration.";
    send_block = None;
    recv_block = None;
  }

(* Bound to [Metrics.null], whose instruments are inert dummies.  Callers
   only bind while a real registry is installed, so the first [bind] of a
   channel always builds its handles. *)
let none = make Metrics.null ""

let bind m name =
  let reg = Metrics.current () in
  if m.reg == reg then m else make reg name

let send_block m =
  match m.send_block with
  | Some s -> s
  | None ->
      let s =
        Metrics.summary m.reg "parcae_chan_send_block_ns" ~labels:(labels m.name)
          ~help:"Time senders spent blocked on a full channel, ns on the engine's clock."
      in
      m.send_block <- Some s;
      s

let recv_block m =
  match m.recv_block with
  | Some s -> s
  | None ->
      let s =
        Metrics.summary m.reg "parcae_chan_recv_block_ns" ~labels:(labels m.name)
          ~help:"Time receivers spent blocked on an empty channel, ns on the engine's clock."
      in
      m.recv_block <- Some s;
      s

let note_send m k ~depth ~block_ns =
  Metrics.inc_by m.sends k;
  Metrics.set_gauge_int m.depth depth;
  if block_ns >= 0 then Metrics.observe_summary (send_block m) block_ns

let note_recv m k ~depth ~block_ns =
  Metrics.inc_by m.recvs k;
  Metrics.set_gauge_int m.depth depth;
  if block_ns >= 0 then Metrics.observe_summary (recv_block m) block_ns

let note_flush m removed ~depth =
  Metrics.inc_by m.flushed removed;
  Metrics.set_gauge_int m.depth depth
