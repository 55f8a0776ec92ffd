(** The Decima metrics registry: counters, gauges and HDR summaries with
    labeled series, Prometheus and JSON exposition.

    The registry is the aggregated counterpart of the event trace: always-on
    telemetry a controller (or a dashboard) can read while a run is in
    flight.  It is dependency-free and deterministic — families and series
    are exposed in sorted order with fixed float formatting, so same-seed
    runs produce byte-identical snapshots.

    A registry is installed only through {!with_registry}, into an
    [Atomic] cell.  Disabled mode mirrors {!Trace}: a physical [null]
    registry leaves {!enabled}, one bit of {!Observed.word}, false, and every
    emitter in the runtime guards with

    {[ if Metrics.enabled () then Metrics.inc (handles ()).something ]}

    so that with metrics off the hot path allocates nothing.  The hottest
    sites (the simulator's scheduler, the channels and the trace sink's
    drop count) instead keep a handle record bound to the registry it was
    built for, rebind it when {!current} changes, and store into the
    instruments' fields directly:

    {[ c.count <- c.count + 1 ]} *)

(** {1 Instruments} *)

type counter = { mutable count : int }
(** A monotonically increasing integer (e.g. total sends, total busy ns).
    A bound hot path adds to [count] directly; elsewhere use {!inc}. *)

type gauge = { mutable level : float }
(** A float that can go up and down (e.g. queue depth, busy cores).  Its
    one float field is stored flat, so a direct store
    [g.level <- float_of_int n] allocates nothing. *)

val inc : counter -> unit
val inc_by : counter -> int -> unit
val counter_value : counter -> int

val set_gauge : gauge -> float -> unit

val set_gauge_int : gauge -> int -> unit
(** [set_gauge g (float_of_int n)] without a boxed float at the call: the
    conversion happens here, where the store is unboxed. *)

val add_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

type summary = Hdr.t
(** A fixed-precision HDR-backed distribution over integer nanoseconds
    with a bounded-relative-error quantile API ({!Hdr}) — the registry's
    only distribution type.  A reservoir percentile depends on the
    sampling seed; an HDR quantile is a deterministic function of the
    observations. *)

val observe_summary : summary -> int -> unit
(** Record one integer observation (nanoseconds).  Allocation-free. *)

val summary_count : summary -> int
val summary_sum : summary -> int

val summary_export_quantiles : float list
(** Quantiles emitted for every summary series in snapshots and
    Prometheus exposition: 0.5, 0.9, 0.99, 0.999. *)

(** {1 Registries} *)

type t

val create : unit -> t

val null : t
(** The disabled registry: instruments created against it are inert
    dummies, and {!enabled} is [false] while it is installed. *)

val is_null : t -> bool

(** {1 The installed registry}

    One global current-registry cell, an [Atomic] written only by
    {!with_registry}.  Instrument updates are plain writes: exact on the
    simulator, whose threads never run in parallel, and lossy under
    contention on the native backend. *)

val current : unit -> t
val enabled : unit -> bool

val with_registry : t -> (unit -> 'a) -> 'a
(** Run [f] with [r] installed, restoring the previous registry on exit
    (also on exception), so scopes nest. *)

val cached : (t -> 'a) -> unit -> 'a
(** [cached build] memoizes [build reg] against the installed registry:
    the thunk rebuilds only when a different registry is installed.
    Instrumented modules use this to create their handle records once per
    run instead of once per event. *)

(** {1 Families}

    An instrument is identified by a family name plus label key/value
    pairs; requesting the same (name, labels) again returns the same
    instrument.  A family's kind and label arity are fixed at first
    creation ([Invalid_argument] on mismatch). *)

val counter : ?help:string -> ?labels:(string * string) list -> t -> string -> counter
val gauge : ?help:string -> ?labels:(string * string) list -> t -> string -> gauge

val summary : ?help:string -> ?labels:(string * string) list -> t -> string -> summary
(** Each series is one {!Hdr} (relative error <= 1/128, ~57 KB). *)

(** {1 Snapshots} *)

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of { sum : float; count : int }
      (** Nothing produces it: every distribution is a summary.  It stays
          for consumers that still match it; exposition skips it. *)
  | Summary_v of { quantiles : (float * float) list; sum : float; count : int }
      (** [(q, value)] pairs for {!summary_export_quantiles}. *)

type sample = { labels : (string * string) list; value : value }

type kind = Counter_kind | Gauge_kind | Summary_kind

type fam_snapshot = { name : string; help : string; skind : kind; samples : sample list }

val kind_name : kind -> string

val snapshot : t -> fam_snapshot list
(** Deep copy of the registry, families sorted by name and series by label
    values — deterministic given deterministic recording. *)

(** {1 Exposition} *)

val to_prometheus : t -> string
(** Prometheus text format 0.0.4: HELP/TYPE lines per family; a summary
    series is one line per {!summary_export_quantiles} entry followed by
    [_sum] and [_count]. *)

val to_json : t -> Json.t
val to_json_string : t -> string
(** Self-contained JSON snapshot (parses back with {!Json.parse}). *)
