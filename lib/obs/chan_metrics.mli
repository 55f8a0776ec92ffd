(** Channel metrics shared by the sim and native channel backends: the six
    [parcae_chan_*] families, labeled by channel name.

    A channel keeps one [t], starting from {!none}, and replaces it with
    {!bind}'s result before each note: the handles are rebuilt only when a
    different registry is installed, so a hot path pays one physical
    comparison, not a hashtable lookup per operation, and creating a
    channel allocates nothing for its metrics.  The block-time summaries
    ([parcae_chan_send_block_ns], [parcae_chan_recv_block_ns]) are created
    on the channel's first block, not with the other handles: a wide
    PS-DSWP plan has thousands of channels, few of which ever block, and
    each summary is a ~57 KB {!Hdr}.

    Every [note_*] function records into the registry its handles are
    bound to; callers guard with {!Metrics.enabled} so that with metrics
    off they neither call in nor read the channel's depth. *)

type t

val none : t
(** Bound to no registry: what a channel starts with. *)

val bind : t -> string -> t
(** [bind m name] is [m] when [m] is bound to the installed registry, and
    otherwise fresh handles for the channel labeled [name], bound to it. *)

val note_send : t -> int -> depth:int -> block_ns:int -> unit
(** [note_send m k ~depth ~block_ns] counts [k] items enqueued and sets
    the depth gauge to [depth].  [block_ns >= 0] is the time the operation
    spent blocked on a full channel, in ns on the engine's clock; a
    negative value means it never blocked. *)

val note_recv : t -> int -> depth:int -> block_ns:int -> unit
(** As {!note_send}, for [k] items dequeued and a block on an empty
    channel. *)

val note_flush : t -> int -> depth:int -> unit
(** Counts items dropped by a filter or drain and sets the depth gauge. *)
