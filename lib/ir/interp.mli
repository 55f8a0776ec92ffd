(** Reference sequential interpreter: the ground-truth semantics of a
    loop, and the sequential execution time every speedup is measured
    against.  Parallel executions produced by Nona are checked for
    semantics preservation against this. *)

type result = {
  arrays : (string * int array) list;
      (** final array contents, from {!Loop.working_arrays}: the arrays
          the body stores to are private copies, and each read-only input
          is the loop's own array, shared rather than copied *)
  live_out : (Instr.reg * int) list;  (** final live-out phi values *)
  externals : Externals.observation;
  iterations : int;  (** completed iterations *)
  work_ns : int;  (** total instruction cost, sequential *)
}

val run : ?profile:float array -> ?max_iters:int -> Loop.t -> result
(** Run the loop against fresh externals; it leaves [loop.arrays]
    unchanged.  [max_iters] bounds While loops.  When [profile] is given
    (sized to [Loop.nodes]), per-node execution cost is accumulated into
    it — the execution-profile weights Nona's partitioner uses (the
    paper's Section 4.3.2). *)

val equal_observable : result -> result -> bool
(** Structural equality of observable results ([work_ns] included; set it
    equal on both sides to compare executions with different costs). *)
