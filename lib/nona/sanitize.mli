(** The race sanitizer's static↔dynamic differential auditor.

    Runs a compiled loop under every emitted scheme with the
    happens-before tracker ({!Parcae_obs.Hb}) installed, then
    cross-checks three claims against each other:

    - {b S701} (error): a dynamic race — two accesses to the same array
      cell, at least one a write, with no happens-before path — observed
      under a plan the legality verifier passed.  The static analysis the
      verifier trusted is unsound for this loop.
    - {b S702} (error): a dynamic same-cell collision between two IR
      nodes for which the PDG records {e no} memory dependence.  The
      alias analysis claimed independence the execution refutes, whether
      or not the accesses raced.
    - {b G711} (info): a PDG memory dependence derived from a
      [May_conflict] alias verdict that never materialized as a same-cell
      collision in any sanitized run — a precision gap, and the
      measurable input for future legal-if-monitored speculative plans.

    Exit-code contract matches [check]: errors mean a soundness
    violation, warnings and infos are advice. *)

open Parcae_ir
open Parcae_analysis

type backend = Sim_backend | Native_backend of int option

type scheme_run = {
  sr_scheme : string;
  sr_dop : int;
  sr_accesses : int;  (** loads/stores checked *)
  sr_tasks : int;  (** tasks the tracker saw *)
  sr_races : Parcae_obs.Hb.pair list;  (** unordered conflicting pairs *)
  sr_collisions : Parcae_obs.Hb.pair list;  (** all same-cell pairs *)
  sr_iterations : int;  (** iterations the run executed *)
  sr_semantics_ok : bool;
}

type report = {
  loop : Loop.t;
  compiled : Compiler.compiled;
  backend : string;
  schemes : string list;
  runs : scheme_run list;
  diags : Diag.t list;
}

val inject_unsound : Compiler.compiled -> Compiler.compiled
(** Simulate an unsound alias analysis: strip every loop-carried memory
    dependence from the PDG and rebuild the scheme plans from the doctored
    graph.  A loop whose DOANY was (rightly) rejected for carried memory
    dependences becomes a verifier-passed DOANY plan that races — the
    fault-injection input the sanitizer must catch with S701. *)

val run_compiled : ?backend:backend -> ?dop:int -> Compiler.compiled -> report
(** Sanitize every emitted scheme of an already-compiled loop.  [dop]
    defaults to 3 — coprime to power-of-two access strides, so aligned
    collision patterns cross lanes under the deterministic simulator. *)

val run : ?backend:backend -> ?dop:int -> ?inject:bool -> Loop.t -> report
(** Compile and sanitize.  [inject] (default false) applies
    {!inject_unsound} first. *)

val render : report -> string

val to_json : report -> Parcae_obs.Json.t
(** [{"loop", "backend", "schemes", "runs", "errors", "diagnostics"}];
    each run carries its counts and [semantics_ok]. *)
