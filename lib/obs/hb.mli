(** Happens-before race sanitizer core (FastTrack-style).

    A tracker maintains one vector clock per engine task and shadow state
    per IR array cell (last-write epoch plus a read set).  Backends report
    the causal events the critical-path analysis already consumes — task
    spawn/completion, channel send→recv pairs, lock acquire/release,
    region park/resume — and the Flex interpreter
    reports every [load]/[store] with its IR node id.  Two accesses to the
    same cell, at least one a write, with no happens-before path between
    them constitute a race.

    Every recorded edge is a real synchronization, and channels pair
    exactly on both backends: a receive joins only the snapshot of the
    send with its [(chan, seq)], never a per-channel summary of every
    earlier send.  So a reported race is a true unordered pair under the
    recorded causal model; synchronization the model does not record (a
    send from outside any task) can add races to the report. *)

type t

val create : unit -> t

(** {1 Installation} — same scoped cell as {!Trace}: an [Atomic] written
    only by {!with_tracker}. *)

val get : unit -> t option
val enabled : unit -> bool

val with_tracker : t -> (unit -> 'a) -> 'a
(** Install [t] for the duration of the callback, then restore the
    previously installed tracker (also on exception), so scopes nest. *)

(** {1 Causal-event hooks} — no-ops unless a tracker is installed.
    [task] is the engine task id of the acting thread. *)

val on_spawn : parent:int -> child:int -> unit
(** The child task starts with (a copy of) the parent's vector clock. *)

val on_task_done : task:int -> unit
(** Release into the task's completion key; {!on_join} acquires it. *)

val on_join : task:int -> joined:int -> unit
(** [task] returned from joining task [joined]. *)

val on_release : task:int -> key:string -> unit
(** Generic release: lock release, region-worker park. *)

val on_acquire : task:int -> key:string -> unit
(** Generic acquire: lock acquisition, region pause/await. *)

val on_send : task:int -> chan:string -> seq:int -> unit
(** Channel send of the item numbered [seq]: snapshot the sender's clock
    under [(chan, seq)].  Both backends number an item before any
    receiver can take it. *)

val on_recv : task:int -> chan:string -> seq:int -> unit
(** Channel receive of the item numbered [seq]: join the [(chan, seq)]
    snapshot and drop it.  With no snapshot (the send came from outside
    any task) the receive joins nothing. *)

val on_access : task:int -> arr:string -> idx:int -> node:int -> write:bool -> unit
(** A dynamic [load] ([write = false]) or [store] ([write = true]) of
    [arr.(idx)] executed by IR node [node].  Updates the
    [parcae_sanitizer_accesses_total] / [parcae_sanitizer_races_total]
    counters when a metrics registry is installed. *)

(** {1 Results} *)

type pair = {
  p_arr : string;
  p_src : int;  (** IR node id of the earlier access *)
  p_dst : int;  (** IR node id of the later access *)
  p_src_write : bool;
  p_dst_write : bool;
  p_count : int;  (** dynamic occurrences of this (src, dst) collision *)
  p_raced : int;  (** occurrences with no happens-before path *)
  p_idx : int;  (** an example cell index *)
  p_task_src : int;  (** example task pair (from a raced occurrence when any) *)
  p_task_dst : int;
}
(** A same-cell collision between two IR nodes with at least one write,
    aggregated over the run.  [p_raced = 0] means every occurrence was
    ordered — an observed (materialized) dependence, not a race. *)

val pairs : t -> pair list
(** All recorded collisions, sorted by array then node ids. *)

val races : t -> pair list
(** The subset of {!pairs} with [p_raced > 0]. *)

val access_count : t -> int
val race_count : t -> int

val task_count : t -> int
(** Number of distinct tasks that performed at least one tracked event. *)
