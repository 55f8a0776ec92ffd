(** Channel metrics shared by the sim and native channel backends: the six
    [parcae_chan_*] families, labeled by channel name.

    A channel keeps one [t], starting from {!none}, bound to the registry
    its handles belong to.  Before each update it compares [reg] with
    {!Metrics.current}, rebinds with {!bind} when they differ, and then
    stores into the counters and the depth gauge directly: an observed
    operation pays one physical comparison, not a hashtable lookup or a
    call per instrument, and creating a channel allocates nothing for its
    metrics.  While no registry is installed the channel holds {!none} and
    records nothing.  The block-time summaries
    ([parcae_chan_send_block_ns], [parcae_chan_recv_block_ns]) are created
    on the channel's first block, not with the other handles: a wide
    PS-DSWP plan has thousands of channels, few of which ever block, and
    each summary is a ~57 KB {!Hdr}. *)

type t = private {
  reg : Metrics.t;  (** The registry the handles belong to. *)
  name : string;  (** The channel's label. *)
  sends : Metrics.counter;  (** Items enqueued. *)
  recvs : Metrics.counter;  (** Items dequeued. *)
  depth : Metrics.gauge;  (** Queue occupancy after the last operation. *)
  flushed : Metrics.counter;  (** Items dropped by a filter or drain. *)
  mutable send_block : Metrics.summary option;  (** See {!send_block}. *)
  mutable recv_block : Metrics.summary option;  (** See {!recv_block}. *)
}

val none : t
(** Bound to {!Metrics.null}: what a channel starts with. *)

val bind : Metrics.t -> string -> t
(** [bind reg name] is the handles of the channel labeled [name] in [reg],
    or {!none} when [reg] is {!Metrics.null}. *)

val send_block : t -> Metrics.summary
(** Time senders spent blocked on a full channel, in ns on the engine's
    clock; created on first use. *)

val recv_block : t -> Metrics.summary
(** As {!send_block}, for receivers blocked on an empty channel. *)
