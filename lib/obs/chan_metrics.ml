(* Channel metrics shared by both channel backends (see the .mli).

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

(* Bound to [Metrics.null], whose instruments are inert dummies; callers
   store nothing while they hold it. *)
let none = make Metrics.null ""

let bind reg name = if Metrics.is_null reg then none else make reg name

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
