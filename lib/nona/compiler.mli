(** The Nona compiler driver (the paper's Section 3.2, Figure 3.2):
    dependence analysis, profiling, DAG_SCC, DOANY and PS-DSWP
    parallelization, and instantiation of the flexible code on a simulated
    platform as a Morta-reconfigurable region. *)

open Parcae_ir
open Parcae_pdg

type compiled = {
  loop : Loop.t;
  pdg : Pdg.t;
  scc : Scc.t;
  profile : float array;  (** profiled per-node weights *)
  doany : Doany.plan option;
  pipeline : Mtcg.pipeline option;
  doacross : Doacross.plan option;
      (** emitted only when DOANY does not apply (it dominates DOACROSS) *)
}

val compile : ?verify:bool -> Loop.t -> compiled
(** Compile the loop and statically verify every emitted scheme (disable
    with [~verify:false]).
    @raise Verify.Illegal_plan when a produced plan fails the legality
    check — a compiler bug, not a property of the input program. *)

val schemes : compiled -> Verify.scheme list
(** The emitted schemes in choice order, always starting with
    [Verify.Seq]. *)

val scheme_names : compiled -> string list
(** Names in scheme-choice order: always ["SEQ"], plus ["DOANY"],
    ["DOACROSS"] and/or ["PS-DSWP"] when applicable. *)

type handle = {
  compiled : compiled;
  rs : Flex.t;
  region : Parcae_runtime.Region.t;
  names : string list;
}

val choice_of : handle -> string -> int
(** Scheme-choice index of a named scheme.
    @raise Invalid_argument if absent. *)

val config_for : handle -> ?dop:int -> string -> Parcae_core.Config.t
(** A configuration for the named scheme with the given DoP on every
    parallel task (default 1). *)

val launch :
  ?flags:Flex.flags -> ?budget:int -> ?name:string -> Parcae_platform.Engine.t -> compiled -> handle
(** Instantiate the compiled loop as a reconfigurable region that starts
    sequential.  [budget] bounds the maximum DoP (channel matrices are
    sized to it).  The schemes are re-verified at this trust boundary.
    @raise Verify.Illegal_plan when a scheme fails the legality check. *)

val result : handle -> Interp.result
(** Observable outcome of a finished run (its [work_ns] is 0). *)

val preserves_semantics : handle -> bool
(** Compare against the sequential reference interpreter, ignoring cost. *)
