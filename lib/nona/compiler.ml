(* The Nona compiler driver (Section 3.2, Figure 3.2).

   compile: build the PDG of the region, profile it, form the DAG_SCC,
   apply each parallelizer (DOANY, PS-DSWP), and package the applicable
   versions — always including the sequential one — as the region's
   schemes.

   launch: instantiate the flexible code on a simulated platform as a
   Parcae region whose configuration (scheme choice and DoP vector) the
   Morta runtime can change during execution; the on_reset callback
   implements the epoch switch of the channel-arbitration protocol.

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
   [budget] bounds the maximum DoP (channel matrices are sized to it). *)
let launch ?flags ?(budget = 24) ?(verify = true) ?config ?name eng (c : compiled) =
  (* Re-verify at the trust boundary: [c] may have been assembled or
     edited by hand, and an illegal plan must not reach the executor. *)
  if verify then List.iter (Verify.check_or_raise c.pdg) (schemes c);
  let rs = Flex.create ?flags eng c.pdg in
  let seq_pd = Task.descriptor ~name:"SEQ" [ Flex.make_seq_task rs ] in
  let schemes = ref [ seq_pd ] in
  let names = ref [ "SEQ" ] in
  let doany_hooks = ref None in
  if c.doany <> None then begin
    let task, resize_hook, sync_present = Flex.make_doany_task rs ~max_lanes:budget in
    doany_hooks := Some (resize_hook, sync_present);
    schemes := !schemes @ [ Task.descriptor ~name:"DOANY" [ task ] ];
    names := !names @ [ "DOANY" ]
  end;
  let reset_channels = ref (fun () -> ()) in
  (match c.doacross with
  | None -> ()
  | Some plan ->
      let task, reset_ring = Flex.make_doacross_task rs plan ~max_lanes:budget in
      let prev = !reset_channels in
      reset_channels := (fun () -> prev (); reset_ring ());
      schemes := !schemes @ [ Task.descriptor ~name:"DOACROSS" [ task ] ];
      names := !names @ [ "DOACROSS" ]);
  let psdswp_light = ref false in
  let psdswp_resize = ref (fun (_ : int array) -> ([] : (int * int) list)) in
  let psdswp_sync = ref (fun (_ : int array option) -> ()) in
  (match c.pipeline with
  | None -> ()
  | Some pipe ->
      let tasks, reset, alternating, resize_hook, sync_present =
        Flex.make_psdswp_tasks rs pipe ~max_lanes:budget
      in
      psdswp_light := alternating;
      psdswp_resize := resize_hook;
      psdswp_sync := sync_present;
      let prev = !reset_channels in
      reset_channels := (fun () -> prev (); reset ());
      schemes := !schemes @ [ Task.descriptor ~name:"PS-DSWP" tasks ];
      names := !names @ [ "PS-DSWP" ]);
  let names = !names in
  let region_ref = ref None in
  let choice_named n =
    let rec find i = function [] -> -1 | x :: rest -> if x = n then i else find (i + 1) rest in
    find 0 names
  in
  let psdswp_choice = choice_named "PS-DSWP" in
  let doany_choice = choice_named "DOANY" in
  (* Per-scheme barrier-less resize support (Section 7.2): DOANY lanes
     claim iterations from a shared counter, so resizing is a matter of
     spawning/retiring lanes; alternating PS-DSWP pipelines use the epoch
     protocol; SEQ and DOACROSS fall back to the full pause. *)
  let sync_light_resize r =
    let choice = (Region.config r).Config.choice in
    (* Lane-presence bookkeeping follows the workers the executor is about
       to start for the chosen scheme; the other schemes deactivate. *)
    (match !doany_hooks with
    | Some (_, sync) -> sync (if choice = doany_choice then (Config.dops (Region.config r)).(0) else 0)
    | None -> ());
    !psdswp_sync
      (if choice = psdswp_choice && psdswp_choice >= 0 then Some (Config.dops (Region.config r))
       else None);
    if choice = doany_choice && doany_choice >= 0 then begin
      r.Region.light_resizable <- true;
      r.Region.on_resize <-
        Some
          (fun cfg ->
            match !doany_hooks with Some (resize, _) -> resize (Config.dops cfg) | None -> [])
    end
    else if choice = psdswp_choice && psdswp_choice >= 0 && !psdswp_light then begin
      r.Region.light_resizable <- true;
      r.Region.on_resize <- Some (fun cfg -> !psdswp_resize (Config.dops cfg))
    end
    else begin
      r.Region.light_resizable <- false;
      r.Region.on_resize <- None
    end
  in
  let on_reset () =
    (* Full-pause epoch switch: stamp the iteration at which the new
       configuration takes effect, refresh the DoP vector the channel
       arbitration reads, and clear leftover control tokens. *)
    rs.Flex.epoch <- rs.Flex.epoch + 1;
    rs.Flex.epoch_base <- rs.Flex.next_iter;
    rs.Flex.psdswp_pending <- None;
    (match !region_ref with
    | Some r ->
        (if psdswp_choice >= 0 && (Region.config r).Config.choice = psdswp_choice then begin
           let d = Config.dops (Region.config r) in
           rs.Flex.dops <- d;
           let _, _, id = List.hd rs.Flex.epochs in
           rs.Flex.epochs <- [ (rs.Flex.next_iter, d, id + 1) ]
         end);
        sync_light_resize r
    | None -> ());
    !reset_channels ()
  in
  let initial =
    match config with
    | Some cfg -> cfg
    | None -> Task.default_config seq_pd
  in
  (* Seed the DoP vector for an initial PS-DSWP configuration. *)
  (match c.pipeline with
  | Some _ when psdswp_choice >= 0 && initial.Config.choice = psdswp_choice ->
      let d = Config.dops initial in
      rs.Flex.dops <- d;
      rs.Flex.epochs <- [ (0, d, 0) ]
  | _ -> ());
  let region =
    Executor.launch ~budget
      ~name:(match name with Some n -> n | None -> c.loop.Loop.name)
      eng !schemes initial ~on_reset
  in
  region_ref := Some region;
  sync_light_resize region;
  { compiled = c; rs; region; names }

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
