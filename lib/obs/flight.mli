(** The controller flight recorder: a decision log with offline replay.

    Where {!Trace} records what the runtime *did* (pauses, resumes, DoP
    changes), the flight recorder records why: one {!decision} per
    controller epoch carrying the FSM state, the per-task rates Decima
    measured, the calibration table of (DoP, fitness) probes, the gradient
    estimate, the candidate and chosen DoP, and a stable human-readable
    [reason] tag (["gradient_positive"], ["calibration_point"],
    ["slack_reclaimed"], ...).  The daemon and the Morta mechanisms log
    through the same recorder, so a single JSONL file explains every move
    of a run.

    Reconfiguration costs ride along as {!overhead} entries: {!Ledger}
    forwards each phase measurement (signal, barrier, flush, restart,
    total) here when a recorder is installed, which is what
    [parcae_demo explain] renders as the per-region overhead table.

    Because the controller's transition rules are pure given the recorded
    measurements, {!replay} can re-run them over a log and check that they
    reproduce the same moves — every recorded run doubles as a regression
    test for controller changes (see {!Ascent}).

    Times are virtual/wall nanoseconds, like everywhere else in the tree;
    exporters convert at the edge ({!Export.us_of_ns}). *)

(** {1 Records} *)

type task_obs = {
  task : string;  (** task label from Decima *)
  iters : int;  (** iterations completed so far *)
  ips : float;  (** measured iterations per second *)
  exec_ns : float;  (** mean (EWMA) per-iteration execution time, ns *)
}
(** Per-task measurement snapshot taken from Decima when a decision is
    recorded. *)

type decision = {
  epoch : int;  (** monotonic id, assigned by the recorder *)
  t : int;  (** virtual time of the decision, ns *)
  actor : string;  (** ["controller"], ["daemon"], or ["morta"] *)
  region : string;  (** region name, or ["platform"] for the daemon *)
  state : Event.ctrl_state option;  (** FSM state for controller decisions *)
  reason : string;  (** stable snake_case tag, never empty *)
  tasks : task_obs list;  (** Decima snapshot at decision time *)
  probes : (int * float) list;
      (** calibration table: (DoP, fitness) pairs in measurement order for
          gradient decisions, (scheme, throughput) for ["adopt_best"] *)
  gradient : float option;  (** finite-difference estimate at [candidate] *)
  inputs : (string * float) list;  (** named scalars the rule depended on *)
  candidate : int;  (** starting point (DoP or thread count) *)
  chosen : int;  (** what the decision settled on *)
  threads : int;  (** region thread total after the decision *)
  budget : int;  (** thread budget in force *)
  slack : (string * int) list;  (** per-program grants, daemon decisions *)
}

type overhead = {
  o_t : int;  (** virtual time the phase measurement closed, ns *)
  o_region : string;
  o_phase : string;  (** ["signal"], ["barrier"], ["flush"], ["restart"], ["total"] *)
  o_ns : int;
}

type entry = Decision of decision | Overhead of overhead

(** {1 The recorder}

    Same discipline as {!Trace}: an [Atomic] cell written only by
    {!with_recorder} holds the recorder or a private null sentinel, so
    {!enabled} is one bit of {!Observed.word} and with no recorder
    installed the runtime pays nothing. *)

type t

val create : unit -> t
val enabled : unit -> bool

val with_recorder : t -> (unit -> 'a) -> 'a
(** Run [f] with the recorder installed, restoring the previous one on
    exit (also on exception), so scopes nest. *)

val entries : t -> entry list
(** All recorded entries, oldest first. *)

val count : t -> int

val decision :
  t:int ->
  actor:string ->
  region:string ->
  ?state:Event.ctrl_state ->
  reason:string ->
  ?tasks:task_obs list ->
  ?probes:(int * float) list ->
  ?gradient:float ->
  ?inputs:(string * float) list ->
  ?slack:(string * int) list ->
  candidate:int ->
  chosen:int ->
  threads:int ->
  budget:int ->
  unit ->
  unit
(** Record a decision on the installed recorder (no-op when disabled).
    The epoch id is stamped by the recorder, monotonically per recorder. *)

val overhead : t:int -> region:string -> phase:string -> ns:int -> unit
(** Record an overhead ledger entry (no-op when disabled).  Called by
    {!Ledger.note}; instrumented code should go through the ledger. *)

(** {1 JSONL encoding}

    One object per line; decisions are tagged [{"rec":"decision",...}] and
    overheads [{"rec":"overhead",...}].  [parse_jsonl] is the exact
    inverse of [to_jsonl]. *)

val entry_to_json : entry -> Json.t
val entry_of_json : Json.t -> entry
(** @raise Json.Parse_error on unknown shapes. *)

val to_jsonl : entry list -> string
val parse_jsonl : string -> entry list

(** {1 The pure gradient-ascent rule}

    The controller's DoP search (the paper's Algorithm 4) factored out
    over an abstract measurement function, so that the live controller and
    the offline replayer run literally the same code: live, [measure]
    reconfigures the region and samples Decima; offline, it looks the
    answer up in the recorded calibration table. *)

module Ascent : sig
  type outcome = {
    probes : (int * float) list;  (** every (DoP, fitness) measured, in order *)
    chosen : int;
    fitness : float;  (** fitness at [chosen] *)
    reason : string;
        (** ["gradient_positive"] climbed up, ["gradient_negative"] climbed
            down, ["gradient_flat"] stayed at the candidate *)
  }

  val climb : measure:(int -> float option) -> d0:int -> cap:int -> outcome option
  (** Hill-climb from [d0] within [1..cap].  Probes [d0], then [d0+1] and
      [d0-1] (when in range) to pick a direction, then walks while fitness
      improves (strictly when climbing up, weakly when climbing down —
      preferring fewer threads at equal throughput).  [None] as soon as
      [measure] returns [None] (the region finished mid-search). *)

  val gradient : d0:int -> (int * float) list -> float option
  (** Finite-difference estimate at [d0] from a probe table:
      [f(d0+1) - f(d0)] when the up-probe exists, else [f(d0) - f(d0-1)]. *)
end

(** {1 Offline replay} *)

type replay_result = {
  decisions : int;  (** decision entries examined *)
  mismatches : (int * string) list;  (** (epoch, what went wrong) *)
  moves : (string * int list) list;
      (** per region, the thread totals of replayed configuration moves,
          in log order *)
}

val replay : entry list -> replay_result
(** Re-run the pure decision rules over a recorded log.  Gradient
    decisions re-execute {!Ascent.climb} against the recorded calibration
    table; ["adopt_best"] re-picks the best scheme from the recorded
    probes; monitor exits are checked against their recorded inputs;
    daemon grants are checked for feasibility.  A clean replay has
    [mismatches = []] and [moves] equal to {!recorded_moves} of the same
    log. *)

val recorded_moves : entry list -> (string * int list) list
(** The thread totals the log says were applied, per region, in order —
    the reference {!replay} must reproduce. *)
