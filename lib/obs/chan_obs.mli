(** How a channel operation is observed, for the sim and native channel
    backends alike: the six [parcae_chan_*] families (items sent,
    received and flushed, queue depth, and the send and receive
    block-time summaries), a block's [Chan_wait] share of its
    {!Timeline} lane, one trace event per item moved and one per flush.

    A backend keeps its queue, its blocking protocol and its {!Hb} edges.
    Only while {!Observed.word} is nonzero, it reads its clock, the
    calling task and that task's busy ns once per operation and calls
    {!op} once, after {!blocked} if it blocked; each call reads the word
    once and writes the items' events straight into the installed sink.
    The channel keeps the {!t} each call returns, starting from {!none}:
    its handles for the installed registry and its name's id in the
    installed sink ({!Sink.intern}), rebound when another is installed,
    so an observed operation stores into the instruments directly, its
    events store ints only, and creating a channel allocates nothing for
    its observation.  A block-time summary (a ~57 KB {!Hdr}) is
    created on the channel's first block: a wide PS-DSWP plan has
    thousands of channels, few of which ever block. *)

type t

val none : t
(** Bound to {!Metrics.null} and {!Sink.null}: what a channel starts
    with. *)

type dir = Send | Recv

val op :
  t -> dir -> chan:string -> now:int -> task:int -> busy_ns:int -> seq:int -> k:int -> depth:int -> t
(** [task] (-1 outside any task, with [busy_ns] 0) moved [k] items through
    [chan] at [now], leaving [depth] queued.  The items are traced from
    [seq]; a batch that traced them with {!trace} as it moved them passes
    -1. *)

val blocked : t -> dir -> chan:string -> wait_ns:int -> lane:int -> t
(** Before {!op}, for an operation that blocked for [wait_ns]: a wait
    charged to timeline lane [lane] (-1: none). *)

val trace : t -> dir -> chan:string -> now:int -> task:int -> busy_ns:int -> seq:int -> int -> t
(** [trace m dir ~chan ~now ~task ~busy_ns ~seq k]: one event each for the
    [k] items numbered from [seq]. *)

val flush : t -> chan:string -> now:int -> dropped:int -> depth:int -> t
(** A filter or drain dropped [dropped] items and left [depth]. *)
