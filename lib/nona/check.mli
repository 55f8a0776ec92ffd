(** The [check] diagnostics pass: everything Nona can tell a programmer
    about one loop without running it — legality verification of every
    emitted scheme, [N4xx] explanations (in source terms) of why DOANY
    does not apply, and the [W6xx] lints. *)

open Parcae_ir
open Parcae_analysis
open Parcae_pdg

type report = {
  loop : Loop.t;
  compiled : Compiler.compiled;
  schemes : string list;  (** scheme names in choice order *)
  diags : Diag.t list;  (** sorted: errors, then warnings, then infos *)
}

val explain_dep : Pdg.t -> Dep.t -> Diag.t
(** A source-level explanation of one DOANY-inhibiting dependence
    ([N401] memory, [N402] call order, [N403] control, [N404] register
    recurrence), with reuse distances recomputed by the index analysis. *)

val run : Loop.t -> report

val render : report -> string
(** Human-readable: scheme line, one diagnostic per line, totals. *)

val to_json : report -> Parcae_obs.Json.t
(** [{"loop", "schemes", "diagnostics"}]. *)
