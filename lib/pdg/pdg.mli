(** Program Dependence Graph construction (the paper's Section 4.1).

    Nodes are the loop's phis and body instructions (phis first, matching
    [Loop.nodes]); edges are exact register def-use dependencies, memory
    dependencies from the index analysis, control dependencies from
    [Break_if], and call-ordering dependencies (relaxed when annotated
    commutative).  Induction and reduction phi cycles are recognized and
    their carried edges marked relaxable. *)

open Parcae_ir
open Parcae_analysis

type reduction = {
  red_phi : Instr.reg;  (** the accumulator phi *)
  red_node : int;  (** node id of the phi *)
  red_combine : int;  (** node id of the combining binop *)
  red_op : Instr.binop;
  red_init : int;  (** initial accumulator value *)
}

type t = {
  loop : Loop.t;
  nodes : Loop.node array;
  nphis : int;
  deps : Dep.t list;
  inductions : Alias.induction_info list;
  reductions : reduction list;
  facts : Dataflow.summary;  (** register value facts used by the alias queries *)
}

val associative_commutative : Instr.binop -> bool

val detect_reductions : Loop.t -> Alias.induction_info list -> reduction list
(** Reduction phis: [acc = phi \[c, acc `op` x\]] with an
    associative-commutative [op] whose accumulator has no other reader. *)

val build : Loop.t -> t

val carried : t -> Dep.t list
(** All loop-carried dependencies. *)

val doany_inhibitors : t -> Dep.t list
(** Carried and not relaxable: the dependencies Nona reports to the
    programmer as parallelization inhibitors (Figure 3.2). *)

val node_count : t -> int
val pp : Format.formatter -> t -> unit
