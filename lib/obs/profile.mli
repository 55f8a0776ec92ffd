(** Folded-stack profiles derived from the metrics registry.

    Decima attributes per-task compute time into the
    [parcae_task_compute_ns_total] counter family with [region], [scheme],
    and [task] labels; {!folded} collapses those series into the
    "frame;frame;frame value" lines flamegraph.pl and speedscope consume:

    {v ferret;ferret-pipe;rank 123456789 v}

    Feed the output to [flamegraph.pl profile.folded > flame.svg] or drop
    it into https://speedscope.app. *)

val default_family : string
(** ["parcae_task_compute_ns_total"]. *)

val folded : Metrics.t -> string
(** Render the {!default_family} series whose labels cover [region],
    [scheme] and [task] as sorted folded-stack lines, one frame per label
    in that order (newline-terminated; [""] when the family is absent or
    all-zero).  Byte-deterministic whenever the underlying counters
    are. *)

val parse : string -> (string list * int) list
(** Inverse of {!folded}: [(frames, value)] per line.
    @raise Invalid_argument on a malformed line. *)
