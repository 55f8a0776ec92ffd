(** How a channel operation is observed, for the sim and native channel
    backends alike: the six [parcae_chan_*] families (items sent,
    received and flushed, queue depth, and the send and receive
    block-time summaries), a block's [Chan_wait] share of its
    {!Timeline} lane, one trace event per item moved and one per flush.

    A backend keeps its queue, its blocking protocol and its {!Hb} edges.
    Only while {!Observed.word} is nonzero, it reads its clock, the
    calling task and that task's busy ns once per operation and calls
    this module once.  The channel keeps the {!t} each call returns,
    starting from {!none}: its handles for the installed registry,
    rebound when another is installed, so an observed operation stores
    into the instruments directly and creating a channel allocates
    nothing for its metrics.  A block-time summary (a ~57 KB {!Hdr}) is
    created on the channel's first block: a wide PS-DSWP plan has
    thousands of channels, few of which ever block. *)

type t

val none : t
(** Bound to {!Metrics.null}: what a channel starts with. *)

type dir = Send | Recv

val op :
  t -> dir -> chan:string -> now:int -> task:int -> busy_ns:int -> seq:int -> k:int ->
  depth:int -> wait_ns:int -> lane:int -> t
(** [task] (-1 outside any task, with [busy_ns] 0) moved [k] items through
    [chan] at [now], leaving [depth] queued.  [wait_ns] is how long it
    blocked, -1 if it did not; [lane] is the timeline lane a block is
    charged to (-1: none).  The items are traced from [seq]; a batch that
    traced them with {!trace} as it moved them passes -1. *)

val trace : dir -> chan:string -> now:int -> task:int -> busy_ns:int -> seq:int -> int -> unit
(** [trace dir ~chan ~now ~task ~busy_ns ~seq k]: one event each for the
    [k] items numbered from [seq]. *)

val flush : t -> chan:string -> now:int -> dropped:int -> depth:int -> t
(** A filter or drain dropped [dropped] items and left [depth]. *)
