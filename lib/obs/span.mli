(** Request-level span tracing and the tail-latency collector.

    Every pooled request record carries a {!span}: a flat mutable record
    of int-nanosecond stamps, reset on pool alloc and mutated in place —
    allocation-free on the serve path.  The phase accounting is
    difference-based, so queue + chan + compute equals end minus arrival
    exactly; reconfiguration stall and GC overlap are carved out of
    those phases by clamped zero-sum transfers at completion, keeping
    the five-phase sum exact (DESIGN.md section 15).

    Completed spans land in an installed {!t} collector: a preallocated
    ring with drop accounting (mirroring the trace sink), per-phase HDR
    histograms, and an SLO burn tracker.  A collector is installed only
    through {!with_collector}, into an [Atomic] cell; with none installed,
    {!enabled} is one atomic load and every hook no-ops. *)

val max_stages : int
(** Per-stage compute segments recorded per span (extra stages still
    count toward the compute total). *)

type span = {
  mutable s_id : int;
  mutable s_arrival_ns : int;
  mutable s_last_ns : int;
  mutable s_seg_start : int;
  mutable s_queue_ns : int;
  mutable s_chan_ns : int;
  mutable s_compute_ns : int;
  mutable s_stages : int;
  mutable s_open : bool;
  s_gen : int Atomic.t;
  mutable s_stall_mark : int;
  mutable s_gc_mark : int;
  s_stage_ns : int array;
}

val make_span : unit -> span
(** A fresh, closed span — created once per pooled request record. *)

val null : span
(** Shared placeholder for records built while tracing is disabled —
    never mutated ({!reset}, {!enter}, {!exit} and {!finish} are all
    physically inert on it, even after a collector is installed
    mid-run), so an untraced pool miss does not pay {!make_span}'s
    allocation.  Compare physically ([==]) and upgrade to a private
    span on the first traced alloc. *)

val reset : span -> id:int -> arrival_ns:int -> unit
(** Re-arm the span for a new request: bumps the generation by two
    (invalidating any in-flight {!enter} token from the record's
    previous life), zeroes the phases, and marks the global stall/GC
    accumulators.  The generation is held odd for the duration of the
    field writes, so a stale {!exit} racing in from another domain can
    never interleave with the fresh fields.  A dozen int stores and a
    few atomic ops; never allocates. *)

val enter : span -> now:int -> int
(** Stage entry: attribute the gap since the last observation point to
    queue wait (before the first stage) or channel wait (after), open a
    compute segment, and return a generation token for {!exit}. *)

val exit : span -> token:int -> now:int -> unit
(** Stage exit: close the open compute segment.  No-ops on a stale token
    (pooled record re-allocated in between — detected by a generation
    compare-and-set that also excludes a concurrent {!reset}), a
    finished span, or no open segment — the races pooled reuse makes
    possible. *)

val finish : span -> now:int -> unit
(** Request completion: close any open segment, carve stall/GC overlap
    out of the waits, and publish to the installed collector.  No-op
    without a collector; a second finish on the same generation only
    bumps the collector's double-finish diagnostic (exactly-once). *)

(** {1 Stall / GC feeds} *)

val note_stall : int -> unit
(** Add a reconfiguration stall window (executor pause/resume) to the
    global accumulator in-flight spans mark against.  No-op when no
    collector is installed or [ns <= 0]. *)

val note_gc : int -> unit
(** Add a GC pause (Runtime_ev lanes) to the global accumulator. *)

val stall_total : unit -> int
val gc_total : unit -> int

(** {1 The collector} *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 4096) bounds the completed-span ring — overflow
    overwrites the oldest entry and counts a drop. *)

val get : unit -> t option
val enabled : unit -> bool

val with_collector : t -> (unit -> 'a) -> 'a
(** Install [t] in the collector's [Atomic] cell — the only way to install
    one — run [f], then restore the previously installed collector (also
    on exception), so scopes nest. *)

val configure_slo : t -> target_ns:int -> budget:float -> unit
(** Arm the SLO tracker: requests slower than [target_ns] consume error
    budget; [budget] is the tolerated over-target fraction.  A
    [target_ns <= 0] disables the tracker. *)

val stage_name : t -> int -> string

(** {1 Phases} *)

type phase = Queue | Chan | Compute | Reconfig | Gc

val all_phases : phase list
val phase_name : phase -> string

(** {1 Reads} *)

type rec_view = {
  rv_id : int;
  rv_end_ns : int;
  rv_total : int;
  rv_queue : int;
  rv_chan : int;
  rv_compute : int;
  rv_reconfig : int;
  rv_gc : int;
  rv_stage_ns : int array;
}

val records : t -> rec_view list
(** Retained completed spans, oldest first.  Each record's five phases
    sum to [rv_total] exactly. *)

val completed : t -> int
val drops : t -> int
val double_finishes : t -> int

val quantile_ns : t -> float -> int
val mean_ns : t -> float
val max_ns : t -> int
val phase_quantile_ns : t -> phase -> float -> int
val phase_mean_ns : t -> phase -> float

val slo_target_ns : t -> int
val slo_budget : t -> float
val slo_requests : t -> int
val slo_over : t -> int

val slo_burn_rate : t -> float
(** Over-target fraction relative to budget: 1.0 consumes the budget
    exactly, above 1.0 the SLO is burning down. *)

val slo_breached : t -> bool

val report_json : t -> Json.t
(** The [/latency.json] wire format: quantile ladders for total and each
    phase, counts, drops, and SLO state. *)
