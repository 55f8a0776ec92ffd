(** Flexible code generation and execution (the paper's Sections 4.5-4.6):
    lowers a compiled loop onto the Parcae runtime as SEQ / DOANY /
    DOACROSS / PS-DSWP task versions over shared run state, each one
    {!scheme} value.

    Key machinery: per-iteration yields to the worker loop; sequential
    tasks' cross-iteration registers saved to/restored from a heap table
    around pauses (per-iteration when the Section 7.1 optimization is
    off); privatized reductions merged at the pause (Section 7.4, or
    per-iteration critical sections when off); PS-DSWP stages on
    point-to-point channel matrices with deterministic round-robin
    iteration arbitration per epoch (Section 7.2's protocol); pause/exit
    tokens travelling in the same channels as data (Section 4.6). *)

open Parcae_ir
open Parcae_pdg

type flags = {
  hoist_state : bool;  (** Section 7.1: hoist phi save/restore out of the loop *)
  privatize_reductions : bool;  (** Section 7.4: privatize-and-merge *)
}

val default_flags : flags
(** All Chapter 7 optimizations on.  Under any flags a heap save or
    restore costs 40 ns. *)

val identity : Instr.binop -> int
(** Identity element of a reduction operator.
    @raise Invalid_argument for non-reduction operators. *)

(** Message exchanged between pipeline stages.  [Reconf id] is the
    in-band epoch announcement of the barrier-less resize protocol
    (the paper's Section 7.2.2). *)
type msg = Go of int array | Stop_pause | Stop_exit | Reconf of int

type code
(** The region's nodes pre-decoded by {!create} into an op table: arrays,
    reduction combines and their operands resolved, phis and their
    carries indexed by register.  An iteration executes ops from it and
    performs no table lookup. *)

(** Shared run state of one launched region.  Read-only outside Flex:
    callers read progress and results from it, and only the generated
    tasks and {!new_epoch} write it. *)
type t = private {
  loop : Loop.t;
  pdg : Pdg.t;
  eng : Parcae_platform.Engine.t;
  flags : flags;
  nodes : Loop.node array;
  code : code;
  arrays : (string * int array) list;
      (** the working arrays ({!Parcae_ir.Loop.working_arrays}): a private
          copy of each array the body stores to, and the loop's own array
          for each read-only input, shared rather than copied — so a write
          through a read-only entry also writes [loop.arrays] *)
  ext : Externals.t;
  ext_lock : Parcae_platform.Lock.t;  (** the global commutative-call critical section *)
  red_lock : Parcae_platform.Lock.t;
  phi_heap : int array;
      (** Section 4.5.2's heap state, indexed by phi register (the live-out
          values once the region finishes) *)
  trip_n : int option;
  iter_mon : Parcae_platform.Engine.monitor;
      (** guards the updates parallel lanes make to [next_iter] (DOANY's
          claim, DOACROSS's advance) and the heap publications a parking
          lane derives from it (free on the sim, a mutex on the native
          backend's parallel lanes) *)
  mutable next_iter : int;  (** contiguous prefix of executed iterations *)
  mutable exited : bool;  (** a Break_if fired *)
  mutable epoch : int;  (** full-pause epochs started *)
  mutable epoch_base : int;  (** iteration number at current epoch start *)
  max_reg : int;
}

val create : ?flags:flags -> Parcae_platform.Engine.t -> Pdg.t -> t
(** The run state of one launch of [pdg.loop]: its op table, and its
    working arrays, where only the arrays the body stores to are copied. *)

val new_epoch : t -> unit
(** Start a full-pause epoch: lanes started afterwards re-initialize their
    state from the heap, and number their iterations from the executed
    prefix.  Run at every full pause, before the chosen scheme's
    [enter]. *)

(** One version of the region: what the runtime needs to run it and to
    switch to and from it.  The state only this version uses (DOANY's
    retirement DoP, PS-DSWP's epoch table) lives in its hooks. *)
type scheme = {
  pd : Parcae_core.Task.par_descriptor;  (** named SEQ, DOANY, DOACROSS or PS-DSWP *)
  enter : int array -> unit;
      (** [enter dops] runs before workers start under a configuration
          that picks this scheme with per-task DoPs [dops] *)
  reset : unit -> unit;
      (** runs at every full pause, whichever scheme was chosen: clears
          what the scheme's last run left behind (control tokens in its
          channels, a resize not yet stamped) *)
  resize : (int array -> (int * int) list) option;
      (** the barrier-less DoP change of Section 7.2: takes the new
          per-task DoPs and returns the (task index, lane) workers to
          spawn; [None] where the scheme changes DoP only through the full
          pause *)
}

val seq : t -> scheme
(** The sequential version of the region. *)

val doany : t -> max_lanes:int -> scheme
(** The DOANY version: a single parallel task claiming iterations from a
    shared counter.  Resizes without a barrier: lanes at or above the new
    DoP retire, and lanes below it without a live worker are spawned. *)

val psdswp : t -> Mtcg.pipeline -> max_lanes:int -> scheme
(** The PS-DSWP version: one task per stage, on point-to-point channel
    matrices.  Resizes without a barrier when the pipeline alternates
    sequential and parallel stages (the paper's Section 7.2): the master
    stamps a new epoch and the sequential stages announce it in-band. *)

val doacross : t -> Doacross.plan -> max_lanes:int -> scheme
(** The DOACROSS version (an additional parallelizer, Section 3.2 of the
    paper): a single parallel task over a ring of point-to-point channels
    forwarding the hard recurrence values from each iteration to the next;
    the independent part of the body overlaps across lanes.  DoP changes
    go through the full pause. *)
