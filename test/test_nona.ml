(* Tests for the Nona compiler stack: IR semantics, dependence analysis,
   SCC formation, DOANY/PS-DSWP applicability, and — most importantly —
   semantics preservation of the parallelized, dynamically reconfigured
   executions against the sequential interpreter. *)

open Parcae_ir
open Parcae_pdg
open Parcae_sim

(* Engine/value types come from the platform dispatch layer (the runtime's
   own types); [Machine]/[Power]/etc. remain from [Parcae_sim] above. *)
module Engine = Parcae_platform.Engine
module Chan = Parcae_platform.Chan
module Lock = Parcae_platform.Lock
module Config = Parcae_core.Config
module Task = Parcae_core.Task
module Task_status = Parcae_core.Task_status
module Obs = Parcae_obs
open Parcae_nona
module R = Parcae_runtime

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let machine = Machine.xeon_x7460

(* ------------------------- interpreter ------------------------- *)

let test_interp_counted () =
  (* sum of i for i in 0..9 plus array writes *)
  let b = Builder.create "t" in
  Builder.array b "out" (Array.make 10 0);
  let i = Builder.induction b ~from:0 ~step:1 in
  let s = Builder.reduce b Instr.Add ~init:(Instr.Const 0) (Instr.Reg i) in
  Builder.store b "out" (Instr.Reg i) (Instr.Reg i);
  Builder.live_out b s;
  let loop = Builder.finish ~trip:(Loop.Count 10) b in
  let r = Interp.run loop in
  check_int "iterations" 10 r.Interp.iterations;
  check_int "sum" 45 (List.assoc s r.Interp.live_out);
  Alcotest.(check (array int)) "array" (Array.init 10 (fun i -> i)) (List.assoc "out" r.Interp.arrays)

let test_interp_while () =
  let loop = Kernels.stringsearch ~n:50 () in
  let r = Interp.run loop in
  check_int "stops at terminator" 50 r.Interp.iterations;
  check_int "emitted one per record" 50 (List.length r.Interp.externals.Externals.obs_emitted)

let test_interp_profile () =
  let loop = Kernels.blackscholes ~n:100 () in
  let profile = Array.make (Array.length (Loop.nodes loop)) 0.0 in
  ignore (Interp.run ~profile loop);
  let total = Array.fold_left ( +. ) 0.0 profile in
  check_bool "work dominates profile" true (total > 100.0 *. 80_000.0)

(* ------------------------- PDG ------------------------- *)

let test_pdg_induction_detected () =
  let loop = Kernels.blackscholes ~n:10 () in
  let pdg = Pdg.build loop in
  check_int "one induction" 1 (List.length pdg.Pdg.inductions);
  check_int "no reductions" 0 (List.length pdg.Pdg.reductions);
  check_bool "DOANY applicable" true (Doany.applicable pdg)

let test_pdg_reductions_detected () =
  let loop = Kernels.kmeans ~n:10 () in
  let pdg = Pdg.build loop in
  check_int "two reductions" 2 (List.length pdg.Pdg.reductions);
  check_bool "DOANY applicable" true (Doany.applicable pdg)

let test_pdg_recurrence_inhibits () =
  let loop = Kernels.recurrence ~n:10 () in
  let pdg = Pdg.build loop in
  check_bool "DOANY rejected" false (Doany.applicable pdg);
  check_bool "has inhibitors to report" true (Doany.inhibitors pdg <> [])

let test_pdg_memory_conflict () =
  (* store a[i] ; load a[i] in the same iteration: intra dep only. *)
  let b = Builder.create "mem" in
  Builder.array b "a" (Array.make 16 0);
  let i = Builder.induction b ~from:0 ~step:1 in
  Builder.store b "a" (Instr.Reg i) (Instr.Reg i);
  let x = Builder.load b "a" (Instr.Reg i) in
  Builder.store b "a" (Instr.Reg i) (Instr.Reg x);
  let loop = Builder.finish ~trip:(Loop.Count 16) b in
  let pdg = Pdg.build loop in
  check_bool "still DOANY applicable (same-iteration conflicts)" true (Doany.applicable pdg)

let test_pdg_cross_iteration_memory () =
  (* store a[i+1]; load a[i]: a carried dependence with distance 1. *)
  let b = Builder.create "mem2" in
  Builder.array b "a" (Array.make 34 0);
  let i = Builder.induction b ~from:0 ~step:1 in
  let i1 = Builder.add b (Instr.Reg i) (Instr.Const 1) in
  Builder.store b "a" (Instr.Reg i1) (Instr.Reg i);
  let x = Builder.load b "a" (Instr.Reg i) in
  Builder.store b "a" (Instr.Reg i) (Instr.Reg x) |> ignore;
  let loop = Builder.finish ~trip:(Loop.Count 32) b in
  let pdg = Pdg.build loop in
  check_bool "DOANY rejected" false (Doany.applicable pdg);
  check_bool "carried mem dep present" true
    (List.exists (fun d -> d.Dep.kind = Dep.Mem_data && d.Dep.carried) pdg.Pdg.deps)

(* ------------------------- SCC / partition ------------------------- *)

let test_scc_crc32 () =
  let loop = Kernels.crc32 ~n:10 () in
  let pdg = Pdg.build loop in
  let scc = Scc.build pdg in
  (* induction scc (seq), crc recurrence (seq), plus parallel singletons *)
  let seqs = Array.to_list scc.Scc.comps |> List.filter (fun c -> not c.Scc.parallel) in
  check_bool "at least two sequential SCCs" true (List.length seqs >= 2)

let test_partition_invariant () =
  List.iter
    (fun k ->
      let loop = k.Kernels.make () in
      let pdg = Pdg.build loop in
      let scc = Scc.build pdg in
      match Psdswp.partition scc with
      | None -> ()
      | Some stages ->
          check_bool
            (k.Kernels.k_name ^ ": invariant 4.3.1 holds")
            true
            (Psdswp.check_invariant pdg stages))
    Kernels.suite

let test_kernel_expectations () =
  List.iter
    (fun k ->
      let c = Compiler.compile (k.Kernels.make ()) in
      check_bool
        (Printf.sprintf "%s: doany %b" k.Kernels.k_name k.Kernels.exp_doany)
        k.Kernels.exp_doany (c.Compiler.doany <> None);
      check_bool
        (Printf.sprintf "%s: psdswp %b" k.Kernels.k_name k.Kernels.exp_psdswp)
        k.Kernels.exp_psdswp
        (c.Compiler.pipeline <> None))
    Kernels.suite

(* ------------------------- execution ------------------------- *)

(* Run a compiled loop under a fixed scheme/DoP and check semantics. *)
let run_compiled (c : Compiler.compiled) scheme_name dop =
  let loop = c.Compiler.loop in
  let eng = Engine.create machine in
  let h = Compiler.launch ~budget:24 eng c in
  let cfg = Compiler.config_for h ~dop scheme_name in
  let _ =
    Engine.spawn eng ~name:"driver" (fun () ->
        R.Executor.reconfigure h.Compiler.region cfg;
        R.Executor.await h.Compiler.region)
  in
  ignore (Engine.run eng);
  check_bool
    (Printf.sprintf "%s under %s dop %d is done" loop.Loop.name scheme_name dop)
    true
    (R.Region.is_done h.Compiler.region);
  check_bool
    (Printf.sprintf "%s under %s dop %d preserves semantics" loop.Loop.name scheme_name dop)
    true
    (Compiler.preserves_semantics h);
  (h, Engine.time eng)

let run_scheme kernel scheme_name dop = run_compiled (Compiler.compile (kernel ())) scheme_name dop

(* A kernel of the suite shrunk to 120 iterations. *)
let small_kernel (k : Kernels.expectation) =
  match k.Kernels.k_name with
  | "blackscholes" -> Kernels.blackscholes ~n:120 ()
  | "crc32" -> Kernels.crc32 ~n:120 ()
  | "url" -> Kernels.url ~n:120 ()
  | "kmeans" -> Kernels.kmeans ~n:120 ()
  | "histogram" -> Kernels.histogram ~n:120 ()
  | "montecarlo" -> Kernels.montecarlo ~n:120 ()
  | "stringsearch" -> Kernels.stringsearch ~n:120 ()
  | _ -> Kernels.recurrence ~n:120 ()

let test_seq_execution_all_kernels () =
  List.iter (fun k -> ignore (run_scheme (fun () -> small_kernel k) "SEQ" 1)) Kernels.suite

let test_doany_execution () =
  ignore (run_scheme (fun () -> Kernels.blackscholes ~n:400 ()) "DOANY" 8);
  ignore (run_scheme (fun () -> Kernels.kmeans ~n:400 ()) "DOANY" 8);
  ignore (run_scheme (fun () -> Kernels.url ~n:400 ()) "DOANY" 6);
  ignore (run_scheme (fun () -> Kernels.montecarlo ~n:400 ()) "DOANY" 8)

let test_psdswp_execution () =
  ignore (run_scheme (fun () -> Kernels.crc32 ~n:400 ()) "PS-DSWP" 8);
  ignore (run_scheme (fun () -> Kernels.histogram ~n:400 ()) "PS-DSWP" 8);
  ignore (run_scheme (fun () -> Kernels.stringsearch ~n:400 ()) "PS-DSWP" 8);
  ignore (run_scheme (fun () -> Kernels.blackscholes ~n:400 ()) "PS-DSWP" 6)

let test_doany_speedup () =
  let _, t_seq = run_scheme (fun () -> Kernels.blackscholes ~n:400 ()) "SEQ" 1 in
  let _, t_par = run_scheme (fun () -> Kernels.blackscholes ~n:400 ()) "DOANY" 8 in
  let speedup = float_of_int t_seq /. float_of_int t_par in
  check_bool (Printf.sprintf "DOANY speedup %.2f > 6" speedup) true (speedup > 6.0)

let test_psdswp_speedup () =
  let _, t_seq = run_scheme (fun () -> Kernels.crc32 ~n:400 ()) "SEQ" 1 in
  let _, t_par = run_scheme (fun () -> Kernels.crc32 ~n:400 ()) "PS-DSWP" 8 in
  let speedup = float_of_int t_seq /. float_of_int t_par in
  check_bool (Printf.sprintf "PS-DSWP speedup %.2f > 4" speedup) true (speedup > 4.0)

let test_reconfiguration_mid_run () =
  (* Switch schemes and DoPs repeatedly while the loop runs; semantics must
     be preserved and every iteration executed exactly once. *)
  let loop = Kernels.blackscholes ~n:1200 () in
  let c = Compiler.compile loop in
  let eng = Engine.create machine in
  let h = Compiler.launch ~budget:24 eng c in
  let _ =
    Engine.spawn eng ~name:"driver" (fun () ->
        let region = h.Compiler.region in
        R.Executor.reconfigure region (Compiler.config_for h ~dop:4 "DOANY");
        Engine.sleep 3_000_000;
        R.Executor.reconfigure region (Compiler.config_for h ~dop:6 "PS-DSWP");
        Engine.sleep 3_000_000;
        R.Executor.reconfigure region (Compiler.config_for h "SEQ");
        Engine.sleep 2_000_000;
        R.Executor.reconfigure region (Compiler.config_for h ~dop:10 "PS-DSWP");
        Engine.sleep 3_000_000;
        R.Executor.reconfigure region (Compiler.config_for h ~dop:12 "DOANY");
        R.Executor.await region)
  in
  ignore (Engine.run eng);
  check_bool "done" true (R.Region.is_done h.Compiler.region);
  check_int "every iteration exactly once" 1200 h.Compiler.rs.Flex.next_iter;
  check_bool "semantics preserved across reconfigurations" true (Compiler.preserves_semantics h)

let test_psdswp_dop_changes () =
  (* Repeated DoP-only changes on a pipeline with a sequential consumer:
     the epoch-based channel arbitration must never reorder iterations
     (the Section 7.2.2 hazard) — stringsearch's ordered emit catches any
     reordering. *)
  let loop = Kernels.stringsearch ~n:800 () in
  let c = Compiler.compile loop in
  let eng = Engine.create machine in
  let h = Compiler.launch ~budget:24 eng c in
  let _ =
    Engine.spawn eng ~name:"driver" (fun () ->
        let region = h.Compiler.region in
        R.Executor.reconfigure region (Compiler.config_for h ~dop:3 "PS-DSWP");
        let dops = [ 5; 2; 8; 4; 6 ] in
        List.iter
          (fun d ->
            Engine.sleep 2_000_000;
            if not (R.Region.is_done region) then
              R.Executor.reconfigure region (Compiler.config_for h ~dop:d "PS-DSWP"))
          dops;
        R.Executor.await region)
  in
  ignore (Engine.run eng);
  check_bool "done" true (R.Region.is_done h.Compiler.region);
  check_bool "ordered output preserved under DoP changes" true (Compiler.preserves_semantics h)

let test_flags_unoptimized_still_correct () =
  (* Chapter 7 optimizations off: slower but still correct. *)
  let flags = { Flex.hoist_state = false; privatize_reductions = false } in
  let loop = Kernels.kmeans ~n:300 () in
  let c = Compiler.compile loop in
  let eng = Engine.create machine in
  let h = Compiler.launch ~flags ~budget:24 eng c in
  let _ =
    Engine.spawn eng ~name:"driver" (fun () ->
        R.Executor.reconfigure h.Compiler.region (Compiler.config_for h ~dop:8 "DOANY");
        R.Executor.await h.Compiler.region)
  in
  ignore (Engine.run eng);
  check_bool "semantics preserved without optimizations" true (Compiler.preserves_semantics h)

(* ------------------------- run set-up ------------------------- *)

(* The names of the arrays [loop]'s body stores to. *)
let written_arrays (loop : Loop.t) =
  List.filter_map
    (fun (name, _) ->
      if List.exists (function Instr.Store { arr; _ } -> arr = name | _ -> false) loop.Loop.body
      then Some name
      else None)
    loop.Loop.arrays

(* Each of [arrays] is the loop's own array when the body only loads it,
   and a private copy when the body stores to it. *)
let check_working_arrays what (loop : Loop.t) arrays =
  let written = written_arrays loop in
  List.iter
    (fun (name, a) ->
      let copied = List.mem name written in
      check_bool
        (Printf.sprintf "%s %s: %s is %s" loop.Loop.name what name
           (if copied then "a private copy" else "the loop's array"))
        (not copied)
        (List.assoc name arrays == a))
    loop.Loop.arrays

(* The interpreter and every scheme the compiler emits share each
   read-only input with the loop, copy each array they write, and leave
   the loop's arrays as they were. *)
let test_working_arrays () =
  List.iter
    (fun k ->
      let loop = small_kernel k in
      let initial = List.map (fun (name, a) -> (name, Array.copy a)) loop.Loop.arrays in
      check_working_arrays "Interp.run" loop (Interp.run loop).Interp.arrays;
      let c = Compiler.compile loop in
      List.iter
        (fun scheme ->
          let h, _ = run_compiled c scheme 4 in
          check_working_arrays scheme loop h.Compiler.rs.Flex.arrays;
          List.iter
            (fun (name, a) ->
              Alcotest.(check (array int))
                (Printf.sprintf "%s under %s leaves %s unchanged" loop.Loop.name scheme name)
                (List.assoc name initial) a)
            loop.Loop.arrays)
        (Compiler.scheme_names c))
    Kernels.suite

(* Run [f] under a trace sink; return its result and the sets of channel
   names it flushed and thread names it spawned. *)
let traced_names f =
  let sink = Obs.Sink.create ~capacity:200_000 () in
  let r = Obs.Trace.with_sink sink f in
  check_int "no trace event dropped" 0 (Obs.Sink.dropped sink);
  let flushed = Hashtbl.create 16_384 and spawned = Hashtbl.create 256 in
  Obs.Sink.iter sink (fun e ->
      match e.Obs.Event.kind with
      | Obs.Event.Chan_flush { chan; _ } -> Hashtbl.replace flushed chan ()
      | Obs.Event.Task_spawn { name; _ } -> Hashtbl.replace spawned name ()
      | _ -> ());
  (r, flushed, spawned)

(* The names in [seen] that start with [prefix] are exactly [expected]. *)
let check_names what ~prefix expected seen =
  let seen =
    Hashtbl.fold
      (fun name () acc -> if String.starts_with ~prefix name then name :: acc else acc)
      seen []
  in
  Alcotest.(check (list string)) what (List.sort_uniq compare expected) (List.sort compare seen)

(* Channel and thread names are built from a prefix and a table of lane
   digits; each must equal its [Printf] form, lanes past the table (64)
   included.  crc32 at budget 70 builds both channel matrices, 70 x 70
   lanes each, and every full pause drains, and so traces, each of their
   channels; it runs PS-DSWP and then DOACROSS at DoP 70.  A nested
   descriptor then runs 70 sub-region threads. *)
let test_lane_names () =
  let lanes = 70 in
  let c = Compiler.compile (Kernels.crc32 ~n:2000 ()) in
  let configs = ref [] in
  let h, flushed, spawned =
    traced_names (fun () ->
        let eng = Engine.create machine in
        let h = Compiler.launch ~budget:lanes eng c in
        let region = h.Compiler.region in
        configs := [ R.Region.config region ];
        let _ =
          Engine.spawn eng ~name:"driver" (fun () ->
              List.iter
                (fun scheme ->
                  check_bool (scheme ^ ": region still running") false (R.Region.is_done region);
                  let cfg = Compiler.config_for h ~dop:lanes scheme in
                  configs := cfg :: !configs;
                  R.Executor.reconfigure region cfg;
                  Engine.sleep 50_000)
                [ "PS-DSWP"; "DOACROSS" ];
              R.Executor.await region)
        in
        ignore (Engine.run eng);
        h)
  in
  check_bool "semantics" true (Compiler.preserves_semantics h);
  let edges = Array.length (Option.get c.Compiler.pipeline).Mtcg.edges in
  let pairs f = List.concat (List.init lanes (fun a -> List.init lanes (fun b -> f a b))) in
  check_names "PS-DSWP channels" ~prefix:"e"
    (List.concat (List.init edges (fun ei -> pairs (Printf.sprintf "e%d.%d.%d" ei))))
    flushed;
  check_names "DOACROSS channels" ~prefix:"ring" (pairs (Printf.sprintf "ring%d.%d")) flushed;
  check_int "no other channel" ((edges + 1) * lanes * lanes) (Hashtbl.length flushed);
  let region = h.Compiler.region in
  let workers (cfg : Config.t) =
    let pd = List.nth region.R.Region.schemes cfg.Config.choice in
    List.concat
      (List.mapi
         (fun i (task : Task.t) ->
           List.init cfg.Config.tasks.(i).Config.dop
             (Printf.sprintf "%s/%s.%d" region.R.Region.name task.Task.name))
         pd.Task.tasks)
  in
  check_names "region workers" ~prefix:"crc32/" (List.concat_map workers !configs) spawned;
  let inner () =
    Task.descriptor ~name:"inner" [ Task.parallel ~name:"w" (fun _ -> Task_status.Complete) ]
  in
  let outer =
    Task.parallel ~name:"outer"
      ~nested:[ Task.nested_choice ~name:"inner" ~seq:[ false ] inner ]
      (fun ctx ->
        Option.iter ctx.Task.run_nested ctx.Task.nested_cfg;
        Task_status.Complete)
  in
  let cfg = Config.make [ Config.task ~nested:(Config.make [ Config.task lanes ]) 1 ] in
  let (), _, spawned =
    traced_names (fun () ->
        let eng = Engine.create machine in
        let pd = Task.descriptor ~name:"outer" [ outer ] in
        ignore (R.Executor.launch ~budget:lanes ~name:"nest" eng [ pd ] cfg);
        ignore (Engine.run eng))
  in
  check_names "outer worker" ~prefix:"nest/" [ "nest/outer.0" ] spawned;
  check_names "sub-region threads" ~prefix:"inner/"
    (List.init lanes (Printf.sprintf "inner/w.%d"))
    spawned

let suite =
  [
    Alcotest.test_case "interp: counted loop" `Quick test_interp_counted;
    Alcotest.test_case "interp: while loop" `Quick test_interp_while;
    Alcotest.test_case "interp: profiling" `Quick test_interp_profile;
    Alcotest.test_case "pdg: induction" `Quick test_pdg_induction_detected;
    Alcotest.test_case "pdg: reductions" `Quick test_pdg_reductions_detected;
    Alcotest.test_case "pdg: recurrence inhibits" `Quick test_pdg_recurrence_inhibits;
    Alcotest.test_case "pdg: same-iteration memory" `Quick test_pdg_memory_conflict;
    Alcotest.test_case "pdg: cross-iteration memory" `Quick test_pdg_cross_iteration_memory;
    Alcotest.test_case "scc: crc32 shape" `Quick test_scc_crc32;
    Alcotest.test_case "psdswp: invariant 4.3.1" `Quick test_partition_invariant;
    Alcotest.test_case "compiler: kernel expectations" `Quick test_kernel_expectations;
    Alcotest.test_case "exec: SEQ all kernels" `Quick test_seq_execution_all_kernels;
    Alcotest.test_case "exec: DOANY kernels" `Quick test_doany_execution;
    Alcotest.test_case "exec: PS-DSWP kernels" `Quick test_psdswp_execution;
    Alcotest.test_case "exec: DOANY speedup" `Quick test_doany_speedup;
    Alcotest.test_case "exec: PS-DSWP speedup" `Quick test_psdswp_speedup;
    Alcotest.test_case "exec: reconfigure mid-run" `Quick test_reconfiguration_mid_run;
    Alcotest.test_case "exec: PS-DSWP DoP changes preserve order" `Quick test_psdswp_dop_changes;
    Alcotest.test_case "exec: unoptimized flags correct" `Quick test_flags_unoptimized_still_correct;
    Alcotest.test_case "run: inputs untouched, read-only inputs shared" `Quick test_working_arrays;
    Alcotest.test_case "run: lane names match Printf" `Quick test_lane_names;
  ]
