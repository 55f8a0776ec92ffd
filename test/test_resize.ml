(* Tests for the barrier-less DoP reconfiguration (the paper's
   Section 7.2): DOANY lane spawn/retire and the in-band epoch protocol on
   alternating PS-DSWP pipelines, including the guarantee the optimization
   exists for — sequential stages never stop. *)

open Parcae_ir
open Parcae_sim

(* Engine/value types come from the platform dispatch layer (the runtime's
   own types); [Machine]/[Power]/etc. remain from [Parcae_sim] above. *)
module Engine = Parcae_platform.Engine
module Chan = Parcae_platform.Chan
module Lock = Parcae_platform.Lock
open Parcae_nona
module R = Parcae_runtime
module Config = Parcae_core.Config

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let machine = Machine.xeon_x7460

let launch kernel =
  let c = Compiler.compile (kernel ()) in
  let eng = Engine.create machine in
  let h = Compiler.launch ~budget:24 eng c in
  (eng, h)

let test_doany_light_grow_shrink () =
  let eng, h = launch (fun () -> Kernels.blackscholes ~n:3000 ()) in
  let _ =
    Engine.spawn eng ~name:"driver" (fun () ->
        let region = h.Compiler.region in
        R.Executor.reconfigure region (Compiler.config_for h ~dop:4 "DOANY");
        List.iter
          (fun d ->
            Engine.sleep 2_000_000;
            if not (R.Region.is_done region) then
              R.Executor.reconfigure region (Compiler.config_for h ~dop:d "DOANY"))
          [ 12; 3; 20; 8 ];
        R.Executor.await region)
  in
  ignore (Engine.run eng);
  let region = h.Compiler.region in
  check_bool "done" true (R.Region.is_done region);
  check_bool "semantics" true (Compiler.preserves_semantics h);
  check_bool "DoP changes were barrier-less" true (R.Region.light_resizes region >= 3);
  (* Full pauses: the initial SEQ -> DOANY scheme switch, plus possibly one
     change that raced with the master's completion (the light path refuses
     regions whose master already finished). *)
  check_bool "at most one extra full reconfiguration" true
    (R.Region.reconfig_count region <= 2)

let test_psdswp_light_preserves_order () =
  (* stringsearch's [S][P][S] pipeline ends in an ordered emit: any
     misrouting across the epoch boundary breaks the output order, which
     semantics checking detects. *)
  let eng, h = launch (fun () -> Kernels.stringsearch ~n:2000 ()) in
  let _ =
    Engine.spawn eng ~name:"driver" (fun () ->
        let region = h.Compiler.region in
        R.Executor.reconfigure region (Compiler.config_for h ~dop:4 "PS-DSWP");
        List.iter
          (fun d ->
            Engine.sleep 3_000_000;
            if not (R.Region.is_done region) then
              R.Executor.reconfigure region (Compiler.config_for h ~dop:d "PS-DSWP"))
          [ 9; 2; 16; 6; 11 ];
        R.Executor.await region)
  in
  ignore (Engine.run eng);
  let region = h.Compiler.region in
  check_bool "done" true (R.Region.is_done region);
  check_bool "ordered output preserved" true (Compiler.preserves_semantics h);
  check_bool "resizes were barrier-less" true (R.Region.light_resizes region >= 4)

let test_psdswp_sequential_stages_never_stop () =
  (* The paper's Figure 7.6 claim: during a barrier-less DoP change the
     sequential stages keep executing.  We resize while watching the
     master's iteration counter: it must advance across every resize
     without the stall a full pause would show. *)
  let eng, h = launch (fun () -> Kernels.crc32 ~n:4000 ()) in
  let stalled = ref false in
  let _ =
    Engine.spawn eng ~name:"driver" (fun () ->
        let region = h.Compiler.region in
        R.Executor.reconfigure region (Compiler.config_for h ~dop:8 "PS-DSWP");
        Engine.sleep 2_000_000;
        for d = 9 to 14 do
          if not (R.Region.is_done region) then begin
            let before = h.Compiler.rs.Flex.next_iter in
            R.Executor.resize region (Compiler.config_for h ~dop:d "PS-DSWP");
            (* A full pause would halt the master for the whole drain; with
               the light resize it keeps claiming iterations. *)
            Engine.sleep 500_000;
            if h.Compiler.rs.Flex.next_iter <= before then stalled := true
          end
        done;
        R.Executor.await region)
  in
  ignore (Engine.run eng);
  check_bool "done" true (R.Region.is_done h.Compiler.region);
  check_bool "semantics" true (Compiler.preserves_semantics h);
  check_bool "master never stalled across resizes" false !stalled;
  check_int "no full pauses beyond the scheme switch" 1
    (R.Region.reconfig_count h.Compiler.region)

let test_unsupported_scheme_falls_back () =
  (* DOACROSS does not implement the epoch protocol, so DoP changes on it
     must go through the full pause. *)
  let eng, h = launch (fun () -> Kernels.crc32 ~n:2000 ()) in
  let _ =
    Engine.spawn eng ~name:"driver" (fun () ->
        let region = h.Compiler.region in
        R.Executor.reconfigure region (Compiler.config_for h ~dop:4 "DOACROSS");
        Engine.sleep 3_000_000;
        if not (R.Region.is_done region) then
          R.Executor.reconfigure region (Compiler.config_for h ~dop:8 "DOACROSS");
        R.Executor.await region)
  in
  ignore (Engine.run eng);
  check_bool "done" true (R.Region.is_done h.Compiler.region);
  check_bool "semantics" true (Compiler.preserves_semantics h);
  check_int "no light resizes on DOACROSS" 0 (R.Region.light_resizes h.Compiler.region);
  check_bool "changes went through the pause" true
    (R.Region.reconfig_count h.Compiler.region >= 2)

let test_resize_rejects_scheme_change () =
  let eng, h = launch (fun () -> Kernels.blackscholes ~n:4000 ()) in
  let checked = ref false in
  let _ =
    Engine.spawn eng ~name:"driver" (fun () ->
        let region = h.Compiler.region in
        R.Executor.reconfigure region (Compiler.config_for h ~dop:4 "DOANY");
        (match R.Executor.resize region (Compiler.config_for h ~dop:4 "PS-DSWP") with
        | () -> ()
        | exception Invalid_argument _ -> checked := true);
        R.Executor.await region)
  in
  ignore (Engine.run eng);
  check_bool "scheme change rejected by resize" true !checked

let test_light_resize_interleaved_with_pause () =
  (* Mix light resizes with full scheme switches; consistency must hold. *)
  let eng, h = launch (fun () -> Kernels.stringsearch ~n:2500 ()) in
  let _ =
    Engine.spawn eng ~name:"driver" (fun () ->
        let region = h.Compiler.region in
        R.Executor.reconfigure region (Compiler.config_for h ~dop:6 "PS-DSWP");
        Engine.sleep 3_000_000;
        R.Executor.reconfigure region (Compiler.config_for h ~dop:10 "PS-DSWP");
        Engine.sleep 3_000_000;
        R.Executor.reconfigure region (Compiler.config_for h "SEQ");
        Engine.sleep 1_000_000;
        R.Executor.reconfigure region (Compiler.config_for h ~dop:5 "PS-DSWP");
        Engine.sleep 3_000_000;
        R.Executor.reconfigure region (Compiler.config_for h ~dop:12 "PS-DSWP");
        R.Executor.await region)
  in
  ignore (Engine.run eng);
  check_bool "done" true (R.Region.is_done h.Compiler.region);
  check_int "every iteration exactly once" 2500 h.Compiler.rs.Flex.next_iter;
  check_bool "semantics" true (Compiler.preserves_semantics h);
  check_bool "some resizes were light" true (R.Region.light_resizes h.Compiler.region >= 1)

let test_return_to_light_resizable_scheme () =
  (* Leave each light-resizable scheme and come back to it: only the chosen
     scheme is entered at a full pause, so a scheme chosen again must
     re-mark which of its lanes have workers before its next light resize,
     or the resize spawns a second worker for a lane that has one.  Each
     step names its scheme, DoP and whether it is light; right after it,
     before any worker can run, the region has exactly one worker per
     lane of the new configuration. *)
  let n = 6000 in
  let eng, h = launch (fun () -> Kernels.blackscholes ~n ()) in
  let steps =
    [
      ("DOANY", 4, false);
      ("DOANY", 12, true);
      ("PS-DSWP", 6, false);
      ("PS-DSWP", 10, true);
      ("DOANY", 2, false);
      ("DOANY", 6, true);
      ("SEQ", 1, false);
      ("DOANY", 8, false);
    ]
  in
  let applied = ref 0 and wrong = ref [] and seq_hook = ref None in
  let _ =
    Engine.spawn eng ~name:"driver" (fun () ->
        let region = h.Compiler.region in
        List.iter
          (fun (scheme, dop, light) ->
            if not (R.Region.is_done region) then begin
              incr applied;
              let before = R.Region.light_resizes region in
              R.Executor.reconfigure region (Compiler.config_for h ~dop scheme);
              if
                R.Region.light_resizes region - before <> Bool.to_int light
                || region.R.Region.active_workers <> Config.threads (R.Region.config region)
              then wrong := Printf.sprintf "%s %d" scheme dop :: !wrong;
              if scheme = "SEQ" then seq_hook := Some (Option.is_some region.R.Region.on_resize)
            end;
            Engine.sleep 1_500_000)
          steps;
        R.Executor.await region)
  in
  ignore (Engine.run eng);
  let region = h.Compiler.region in
  check_bool "done" true (R.Region.is_done region);
  check_int "every iteration exactly once" n h.Compiler.rs.Flex.next_iter;
  check_bool "semantics" true (Compiler.preserves_semantics h);
  check_int "every step applied before completion" (List.length steps) !applied;
  check_bool "light resizes" true (R.Region.light_resizes region >= 3);
  check_bool "every step took its path and started one worker per lane" true (!wrong = []);
  (* SEQ installs no resize hook: a DoP change while it runs can only go
     through the full pause. *)
  check_bool "SEQ ran without a resize hook" true (!seq_hook = Some false)

let suite =
  [
    Alcotest.test_case "resize: DOANY grow/shrink" `Quick test_doany_light_grow_shrink;
    Alcotest.test_case "resize: PS-DSWP order preserved" `Quick test_psdswp_light_preserves_order;
    Alcotest.test_case "resize: sequential stages never stop" `Quick
      test_psdswp_sequential_stages_never_stop;
    Alcotest.test_case "resize: unsupported scheme falls back" `Quick
      test_unsupported_scheme_falls_back;
    Alcotest.test_case "resize: rejects scheme change" `Quick test_resize_rejects_scheme_change;
    Alcotest.test_case "resize: interleaved with pauses" `Quick test_light_resize_interleaved_with_pause;
    Alcotest.test_case "resize: returning to a light-resizable scheme" `Quick
      test_return_to_light_resizable_scheme;
  ]
