(** Flexible code generation and execution (the paper's Sections 4.5-4.6):
    lowers a compiled loop onto the Parcae runtime as SEQ / DOANY /
    PS-DSWP task versions over shared run state.

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

(** Shared run state of one launched region.  Exposed so the compiler
    driver can manage epochs and experiments can read progress; fields are
    owned by the generated tasks. *)
type t = {
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
      (** guards the updates parallel lanes make to [next_iter]: DOANY's
          claim and DOACROSS's advance (free on the sim, a mutex on the
          native backend's parallel lanes) *)
  mutable next_iter : int;  (** contiguous prefix of executed iterations *)
  mutable exited : bool;  (** a Break_if fired *)
  mutable epoch : int;
  mutable epoch_base : int;  (** iteration number at current epoch start *)
  mutable dops : int array;  (** current per-stage DoPs (PS-DSWP scheme) *)
  mutable epochs : (int * int array * int) list;
      (** (start iteration, per-stage DoPs, id), newest first: the epoch
          table of the barrier-less resize protocol (Section 7.2) *)
  mutable psdswp_pending : int array option;
      (** DoP vector of a requested light resize, stamped by the master *)
  mutable doany_dop : int;  (** current DOANY DoP; excess lanes retire *)
  max_reg : int;
}

val create : ?flags:flags -> Parcae_platform.Engine.t -> Pdg.t -> t
(** The run state of one launch of [pdg.loop]: its op table, and its
    working arrays, where only the arrays the body stores to are copied. *)

val make_seq_task : t -> Parcae_core.Task.t
(** The sequential version of the region. *)

val make_doany_task :
  t -> max_lanes:int -> Parcae_core.Task.t * (int array -> (int * int) list) * (int -> unit)
(** The DOANY version: a single parallel task claiming iterations from a
    shared counter.  Returns [(task, resize_hook, sync_present)]:
    [resize_hook dops] adjusts the retirement threshold for a barrier-less
    resize and reports the lanes needing fresh workers; [sync_present dop]
    re-synchronizes lane bookkeeping around a full pause (0 deactivates). *)

val make_psdswp_tasks :
  t ->
  Mtcg.pipeline ->
  max_lanes:int ->
  Parcae_core.Task.t list
  * (unit -> unit)
  * bool
  * (int array -> (int * int) list)
  * (int array option -> unit)
(** The PS-DSWP version: the stage tasks, the channel-reset function to
    run between full-pause epochs, whether the pipeline supports
    barrier-less DoP resizes (alternating sequential/parallel networks,
    the paper's Section 7.2), the resize-request hook (stamps the epoch
    request and returns the lanes needing fresh workers), and the
    presence synchronizer for full pauses ([None] deactivates). *)

val make_doacross_task :
  t -> Doacross.plan -> max_lanes:int -> Parcae_core.Task.t * (unit -> unit)
(** The DOACROSS version (an additional parallelizer, Section 3.2 of the
    paper): a single parallel task over a ring of point-to-point channels
    forwarding the hard recurrence values from each iteration to the next;
    the independent part of the body overlaps across lanes.  Returns the
    task and the ring-reset function to run between epochs. *)
