(* Tests for the DOACROSS parallelizer: applicability, the pre/chain body
   split, semantics preservation (including pauses and scheme switches
   through the recurrence ring), and the expected performance behaviour. *)

open Parcae_ir
open Parcae_pdg
open Parcae_sim

(* Engine/value types come from the platform dispatch layer (the runtime's
   own types); [Machine]/[Power]/etc. remain from [Parcae_sim] above. *)
module Engine = Parcae_platform.Engine
module Chan = Parcae_platform.Chan
module Lock = Parcae_platform.Lock
open Parcae_nona
module R = Parcae_runtime

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let machine = Machine.xeon_x7460

let test_applicability () =
  let check name loop expected =
    let pdg = Pdg.build loop in
    check_bool (name ^ Printf.sprintf ": doacross %b" expected) expected (Doacross.applicable pdg)
  in
  check "crc32" (Kernels.crc32 ~n:20 ()) true;
  check "recurrence" (Kernels.recurrence ~n:20 ()) true;
  check "statecarry" (Kernels.statecarry ~n:20 ()) true;
  (* carried memory dependence *)
  check "histogram" (Kernels.histogram ~n:20 ()) false;
  (* data-dependent exit *)
  check "stringsearch" (Kernels.stringsearch ~n:20 ()) false;
  (* no hard recurrence at all *)
  check "blackscholes" (Kernels.blackscholes ~n:20 ()) false

let test_compiler_emits_doacross_as_fallback () =
  let c = Compiler.compile (Kernels.crc32 ~n:20 ()) in
  Alcotest.(check (list string))
    "crc32 schemes" [ "SEQ"; "DOACROSS"; "PS-DSWP" ] (Compiler.scheme_names c);
  (* DOANY dominates DOACROSS, so a DOANY-able loop does not get it. *)
  let c = Compiler.compile (Kernels.kmeans ~n:20 ()) in
  check_bool "kmeans has no doacross" true (c.Compiler.doacross = None)

let test_plan_split () =
  let pdg = Pdg.build (Kernels.crc32 ~n:20 ()) in
  let plan = Doacross.make_plan pdg in
  check_int "one hard recurrence" 1 (List.length plan.Doacross.hard_phis);
  (* The expensive transform (Work) must be in the overlapping pre part;
     the crc multiply-add chain must be in the chain part. *)
  let nodes = Loop.nodes pdg.Pdg.loop in
  let is_work id = match nodes.(id) with Loop.Instr_node (Instr.Work _) -> true | _ -> false in
  check_bool "work overlaps" true (List.exists is_work plan.Doacross.pre);
  check_bool "chain nonempty" true (plan.Doacross.chain <> []);
  check_bool "pre and chain disjoint" true
    (List.for_all (fun id -> not (List.mem id plan.Doacross.chain)) plan.Doacross.pre)

let run_doacross ?(driver = fun _ _ -> ()) kernel dop =
  let loop = kernel () in
  let c = Compiler.compile loop in
  let eng = Engine.create machine in
  let h = Compiler.launch ~budget:24 eng c in
  let _ =
    Engine.spawn eng ~name:"driver" (fun () ->
        R.Executor.reconfigure h.Compiler.region (Compiler.config_for h ~dop "DOACROSS");
        driver eng h;
        R.Executor.await h.Compiler.region)
  in
  ignore (Engine.run eng);
  check_bool "done" true (R.Region.is_done h.Compiler.region);
  check_bool "semantics preserved" true (Compiler.preserves_semantics h);
  (h, Engine.time eng)

let test_semantics_various_dops () =
  List.iter
    (fun dop -> ignore (run_doacross (fun () -> Kernels.crc32 ~n:300 ()) dop))
    [ 1; 2; 3; 8; 16 ];
  ignore (run_doacross (fun () -> Kernels.recurrence ~n:500 ()) 4);
  ignore (run_doacross (fun () -> Kernels.statecarry ~n:400 ()) 6)

let test_speedup_on_crc32 () =
  (* The 30 us transform overlaps; the short multiply-add chain is the
     serial bottleneck, so DOACROSS must scale well up to many lanes. *)
  let _, seq = run_doacross (fun () -> Kernels.crc32 ~n:400 ()) 1 in
  let _, par = run_doacross (fun () -> Kernels.crc32 ~n:400 ()) 12 in
  let speedup = float_of_int seq /. float_of_int par in
  check_bool (Printf.sprintf "speedup %.2f > 7" speedup) true (speedup > 7.0)

let test_no_speedup_on_recurrence () =
  (* Everything is in the chain: DOACROSS degenerates to serialized
     execution plus ring traffic — no speedup (the controller would reject
     it at run time). *)
  let _, seq = run_doacross (fun () -> Kernels.recurrence ~n:2000 ()) 1 in
  let _, par = run_doacross (fun () -> Kernels.recurrence ~n:2000 ()) 8 in
  let speedup = float_of_int seq /. float_of_int par in
  check_bool (Printf.sprintf "speedup %.2f <= 1.1" speedup) true (speedup <= 1.1)

let test_pause_resume_through_ring () =
  let driver _eng (h : Compiler.handle) =
    for i = 1 to 4 do
      Engine.sleep 500_000;
      if not (R.Region.is_done h.Compiler.region) then
        R.Executor.reconfigure h.Compiler.region
          (Compiler.config_for h ~dop:(1 + (i mod 3) * 5) "DOACROSS")
    done
  in
  ignore (run_doacross ~driver (fun () -> Kernels.crc32 ~n:600 ()) 4)

let test_scheme_switches_with_doacross () =
  let loop = Kernels.crc32 ~n:800 () in
  let c = Compiler.compile loop in
  let eng = Engine.create machine in
  let h = Compiler.launch ~budget:24 eng c in
  let _ =
    Engine.spawn eng ~name:"driver" (fun () ->
        let region = h.Compiler.region in
        R.Executor.reconfigure region (Compiler.config_for h ~dop:6 "DOACROSS");
        Engine.sleep 2_000_000;
        R.Executor.reconfigure region (Compiler.config_for h ~dop:8 "PS-DSWP");
        Engine.sleep 2_000_000;
        R.Executor.reconfigure region (Compiler.config_for h "SEQ");
        Engine.sleep 1_000_000;
        R.Executor.reconfigure region (Compiler.config_for h ~dop:10 "DOACROSS");
        R.Executor.await region)
  in
  ignore (Engine.run eng);
  check_bool "done" true (R.Region.is_done h.Compiler.region);
  check_int "every iteration exactly once" 800 h.Compiler.rs.Flex.next_iter;
  check_bool "semantics across scheme switches" true (Compiler.preserves_semantics h)

let test_controller_uses_doacross () =
  (* crc32's schemes are SEQ / DOACROSS / PS-DSWP; the controller must pick
     a parallel one and still finish correctly. *)
  let c = Compiler.compile (Kernels.crc32 ~n:6000 ()) in
  let eng = Engine.create machine in
  let h = Compiler.launch ~budget:24 eng c in
  let params =
    { R.Controller.default_params with R.Controller.nseq = 8; npar_factor = 8; monitor_ns = 10_000_000 }
  in
  let ctl = R.Controller.create ~params h.Compiler.region in
  ignore (R.Controller.spawn eng ctl);
  ignore (Engine.run ~until:120_000_000_000 eng);
  check_bool "done" true (R.Region.is_done h.Compiler.region);
  check_bool "semantics" true (Compiler.preserves_semantics h);
  check_bool "picked a parallel scheme" true
    (R.Region.scheme_name h.Compiler.region <> "SEQ")

let suite =
  [
    Alcotest.test_case "doacross: applicability" `Quick test_applicability;
    Alcotest.test_case "doacross: fallback emission" `Quick test_compiler_emits_doacross_as_fallback;
    Alcotest.test_case "doacross: pre/chain split" `Quick test_plan_split;
    Alcotest.test_case "doacross: semantics at many dops" `Quick test_semantics_various_dops;
    Alcotest.test_case "doacross: crc32 speedup" `Quick test_speedup_on_crc32;
    Alcotest.test_case "doacross: recurrence no speedup" `Quick test_no_speedup_on_recurrence;
    Alcotest.test_case "doacross: pause through ring" `Quick test_pause_resume_through_ring;
    Alcotest.test_case "doacross: scheme switches" `Quick test_scheme_switches_with_doacross;
    Alcotest.test_case "doacross: controller integration" `Quick test_controller_uses_doacross;
  ]
