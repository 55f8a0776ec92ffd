(** Per-domain scheduler timelines: where does each execution lane's wall
    time go?

    A timeline holds one lane per scheduler execution unit — a pool domain
    on the native backend, a core on the simulator.  Each lane is a state
    machine over {!state}: the backend records a transition whenever the
    lane changes what it is doing (picked up a task, started a steal sweep,
    parked, ...), and the timeline accumulates time-weighted totals per
    state.

    Two recording channels feed a lane:

    - {!enter} — the live transition stream.  Only the lane's own domain
      calls it, so lane mutation needs no synchronisation.  Consecutive
      transitions partition the lane's wall time exactly: closing span [n]
      opens span [n+1] at the same instant.
    - {!attribute} — retroactive {e explanation} of time already recorded:
      a GC pause measured by {!Runtime_ev}, a channel wait, a
      reconfiguration phase.  Attribution is a zero-sum transfer in
      {!breakdown} — the explained nanoseconds move out of donor states
      into the explaining state, clamped at what the donors actually hold
      — so per-lane shares always sum to 1 regardless of how much was
      attributed.  GC displaces [Run] first (pauses happen inside running
      code); channel waits displace idle states only (a blocked fiber's
      domain either ran other work or idled — the wait never consumed
      compute), so on a saturated lane over-reported waits clamp to ~zero
      instead of eating [Run].

    Like {!Trace} and {!Metrics} there is one globally installed timeline,
    an [Atomic] cell written only by {!with_timeline} and read through
    {!get}; emitters guard with {!enabled} so a disabled timeline costs one
    load and one comparison. *)

type state =
  | Run  (** executing task / fiber code *)
  | Steal_search  (** idle: sweeping victim deques / spinning for work *)
  | Park  (** idle: sleeping (exponential backoff), or a core with no thread *)
  | Gc  (** attributed: minor/major GC pause (from {!Runtime_ev}) *)
  | Chan_wait  (** attributed: blocked on an empty/full channel *)
  | Reconfig  (** attributed: executing the pause/reconfigure/resume protocol *)

val n_states : int
val state_index : state -> int
val state_name : state -> string
val state_of_string : string -> state
val all_states : state list

type t

val create : lanes:int -> now:int -> unit -> t
(** Every lane is in [Park] at [now], which is also the origin every
    breakdown starts from.  Recording never allocates.
    @raise Invalid_argument if [lanes < 1]. *)

val enter : t -> lane:int -> now:int -> state -> unit
(** Transition [lane] to a new state at [now], closing the current span.
    A transition into the current state is a no-op (spans merge).  Clock
    readings that race backwards are clamped to the span start.  Must only
    be called from the lane's own domain. *)

val attribute : t -> lane:int -> state -> int -> unit
(** [attribute t ~lane st ns] explains [ns] nanoseconds of [lane]'s
    already-recorded time as [st].  Applied at {!breakdown} as a zero-sum
    transfer from donor states; negative [ns] is ignored. *)

(** {1 Aggregation} *)

type lane_breakdown = {
  lane : int;
  wall_ns : int;  (** [until - now], [now] as given to {!create} *)
  by_state : int array;  (** ns per state, indexed by {!state_index} *)
  shares : float array;  (** [by_state / wall_ns]; all zero when wall is 0 *)
}

val breakdown : t -> until:int -> lane_breakdown array
(** Per-lane totals from creation to [until], attribution transfers applied.
    Each lane's [by_state] sums to [wall_ns] exactly (shares sum to 1). *)

val merged_shares : lane_breakdown array -> (state * float) list
(** Wall-weighted average share per state across lanes, every state
    listed (including zeros), in declaration order. *)

val breakdown_to_json : lane_breakdown array -> Json.t
(** [{"lanes": [{"lane": i, "wall_ns": w, "shares": {"run": 0.42, ...}},
    ...], "merged": {"run": ..., ...}}] *)

(** {1 The installed timeline} *)

val get : unit -> t option
val enabled : unit -> bool

val with_timeline : t -> (unit -> 'a) -> 'a
(** Install [tl] for the duration of the callback, restoring the previous
    installation afterwards (exception-safe), so scopes nest. *)

val record_enter : lane:int -> now:int -> state -> unit
(** {!enter} on the installed timeline, if there is one and it has
    [lane]: one call, after the caller's bit test of {!Observed.word}. *)

val record_attribute : lane:int -> state -> int -> bool
(** {!attribute} on the installed timeline, if it has [lane]: whether it did. *)
