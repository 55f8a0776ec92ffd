(* The Nona compiler driver (Section 3.2, Figure 3.2).

   compile: build the PDG of the region, profile it, form the DAG_SCC,
   apply each parallelizer (DOANY, DOACROSS, PS-DSWP), and package the
   applicable versions — always including the sequential one — as the
   region's schemes.

   launch: instantiate the flexible code on a simulated platform as a
   Parcae region whose configuration (scheme choice and DoP vector) the
   Morta runtime can change during execution; each scheme is one
   [Flex.scheme] value whose hooks the full pause and the barrier-less
   resize run.

   result: extract the observable outcome of a finished run in the same
   shape the reference interpreter produces, so semantics preservation can
   be checked. *)

open Parcae_ir
open Parcae_pdg
module Engine = Parcae_platform.Engine
module Config = Parcae_core.Config
module Task = Parcae_core.Task
module Region = Parcae_runtime.Region
module Executor = Parcae_runtime.Executor

type compiled = {
  loop : Loop.t;
  pdg : Pdg.t;
  scc : Scc.t;
  profile : float array;
  doany : Doany.plan option;
  pipeline : Mtcg.pipeline option;
  doacross : Doacross.plan option;
}

(* The schemes of a compiled loop, as the verifier sees them. *)
let schemes c =
  [ Verify.Seq ]
  @ (match c.doany with Some p -> [ Verify.Doany p ] | None -> [])
  @ (match c.doacross with Some p -> [ Verify.Doacross p ] | None -> [])
  @ match c.pipeline with Some p -> [ Verify.Psdswp p ] | None -> []

(* Iterations of the truncated profiling run whose per-node costs weight
   the partitioner. *)
let profile_iters = 40

(* Compile a loop: dependence analysis, profiling, and all applicable
   parallelizations. *)
let compile ?(verify = true) (loop : Loop.t) =
  Loop.validate loop;
  let pdg = Pdg.build loop in
  (* Profile a truncated run to estimate per-node weights (Section 4.3.2's
     "latency and execution profile weight"). *)
  let profile = Array.make (Array.length (Loop.nodes loop)) 1.0 in
  let truncated =
    match loop.Loop.trip with
    | Loop.Count n -> { loop with Loop.trip = Loop.Count (min n profile_iters) }
    | Loop.While -> loop
  in
  (try ignore (Interp.run ~profile ~max_iters:profile_iters truncated)
   with _ -> () (* profiling must never block compilation *));
  let scc = Scc.build ~weights:profile pdg in
  let doany = Doany.make_plan pdg in
  let pipeline =
    match Psdswp.partition scc with
    | None -> None
    | Some stages ->
        (* The execution protocol requires a sequential master stage; loops
           whose first stage would be parallel are fully DOANY-able and are
           served by that scheme instead. *)
        if (List.hd stages).Psdswp.par then None else Some (Mtcg.build pdg stages)
  in
  (* DOACROSS is the fallback for loops with hard recurrences; when DOANY
     applies it strictly dominates DOACROSS, so Nona does not emit both. *)
  let doacross =
    if doany = None && Doacross.applicable pdg then Some (Doacross.make_plan pdg) else None
  in
  let c = { loop; pdg; scc; profile; doany; pipeline; doacross } in
  (* Every emitted scheme must pass the independent legality check before
     Nona offers it to the runtime; a failure here is a compiler bug, not
     a property of the input program. *)
  if verify then List.iter (Verify.check_or_raise pdg) (schemes c);
  c

(* Names, in scheme-choice order. *)
let scheme_names c = List.map Verify.scheme_name (schemes c)

type handle = {
  compiled : compiled;
  rs : Flex.t;
  region : Region.t;
  names : string list;
}

(* Index of a named scheme in the region's scheme list. *)
let choice_of handle name =
  let rec find i = function
    | [] -> invalid_arg ("Compiler.choice_of: no scheme " ^ name)
    | n :: rest -> if n = name then i else find (i + 1) rest
  in
  find 0 handle.names

(* Build a configuration for a named scheme with the given DoP for parallel
   tasks. *)
let config_for handle ?(dop = 1) name =
  let choice = choice_of handle name in
  let pd = List.nth handle.region.Region.schemes choice in
  let tasks =
    List.map
      (fun (t : Task.t) -> if t.Task.ttype = Task.Par then Config.task dop else Config.seq_task)
      pd.Task.tasks
  in
  { (Config.make tasks) with Config.choice }

(* Instantiate the compiled loop on [eng] as a reconfigurable region.
   [budget] bounds the maximum DoP (channel matrices are sized to it).  The
   region starts sequential; at every full pause the chosen scheme enters
   a new epoch and every scheme resets, in choice order. *)
let launch ?flags ?(budget = 24) ?name eng (c : compiled) =
  (* Re-verify at the trust boundary: [c] may have been assembled or
     edited by hand, and an illegal plan must not reach the executor. *)
  let verified = schemes c in
  List.iter (Verify.check_or_raise c.pdg) verified;
  let rs = Flex.create ?flags eng c.pdg in
  let schemes =
    List.map
      (function
        | Verify.Seq -> Flex.seq rs
        | Verify.Doany _ -> Flex.doany rs ~max_lanes:budget
        | Verify.Doacross plan -> Flex.doacross rs plan ~max_lanes:budget
        | Verify.Psdswp pipe -> Flex.psdswp rs pipe ~max_lanes:budget)
      verified
  in
  let region = ref None in
  let on_reset () =
    let r = Option.get !region in
    let cfg = Region.config r in
    let chosen = List.nth schemes cfg.Config.choice in
    Flex.new_epoch rs;
    chosen.Flex.enter (Config.dops cfg);
    List.iter (fun (s : Flex.scheme) -> s.Flex.reset ()) schemes;
    r.Region.on_resize <- Option.map (fun resize cfg -> resize (Config.dops cfg)) chosen.Flex.resize
  in
  let pds = List.map (fun (s : Flex.scheme) -> s.Flex.pd) schemes in
  let r =
    Executor.launch ~budget
      ~name:(Option.value name ~default:c.loop.Loop.name)
      eng pds
      (Task.default_config (List.hd pds))
      ~on_reset
  in
  region := Some r;
  { compiled = c; rs; region = r; names = List.map Verify.scheme_name verified }

(* Observable outcome of a finished run, comparable with [Interp.run]. *)
let result handle =
  let rs = handle.rs in
  {
    Interp.arrays = rs.Flex.arrays;
    live_out = List.map (fun r -> (r, rs.Flex.phi_heap.(r))) handle.compiled.loop.Loop.live_out;
    externals = Externals.observe rs.Flex.ext;
    iterations = rs.Flex.next_iter;
    work_ns = 0;
  }

(* Compare against the sequential reference, ignoring the cost field. *)
let preserves_semantics handle =
  let reference = Interp.run handle.compiled.loop in
  let actual = { (result handle) with Interp.work_ns = reference.Interp.work_ns } in
  Interp.equal_observable reference actual
