(* Tests for the happens-before race sanitizer and its static↔dynamic
   differential auditor: vector-clock edge semantics, clean-kernel runs,
   fault-injected soundness violations (S701/S702), precision gaps
   (G711), and a seeded differential between the sanitizer's verdicts
   and the static PDG classification over generated kernels. *)

open Parcae_ir
open Parcae_pdg
open Parcae_nona
module Hb = Parcae_obs.Hb
module Metrics = Parcae_obs.Metrics
module Diag = Parcae_analysis.Diag

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let has_code code diags = List.exists (fun d -> d.Diag.code = code) diags
let total_races r = List.fold_left (fun a sr -> a + List.length sr.Sanitize.sr_races) 0 r.Sanitize.runs

(* ------------------------- Hb edge semantics ------------------------- *)

(* Two tasks touching the same cell with no edge between them race. *)
let test_hb_unordered () =
  let tr = Hb.create () in
  Hb.with_tracker tr (fun () ->
      Hb.on_spawn ~parent:0 ~child:1;
      Hb.on_spawn ~parent:0 ~child:2;
      Hb.on_access ~task:1 ~arr:"a" ~idx:3 ~node:10 ~write:true;
      Hb.on_access ~task:2 ~arr:"a" ~idx:3 ~node:11 ~write:true);
  check_int "one racing pair" 1 (List.length (Hb.races tr));
  check_int "one race occurrence" 1 (Hb.race_count tr);
  let p = List.hd (Hb.races tr) in
  check_bool "nodes attributed" true
    (min p.Hb.p_src p.Hb.p_dst = 10 && max p.Hb.p_src p.Hb.p_dst = 11)

(* The spawn edge orders the parent's prior accesses before the child. *)
let test_hb_spawn_edge () =
  let tr = Hb.create () in
  Hb.with_tracker tr (fun () ->
      Hb.on_access ~task:0 ~arr:"a" ~idx:0 ~node:1 ~write:true;
      Hb.on_spawn ~parent:0 ~child:1;
      Hb.on_access ~task:1 ~arr:"a" ~idx:0 ~node:2 ~write:true);
  check_int "spawn orders parent before child" 0 (List.length (Hb.races tr));
  check_int "collision still recorded" 1 (List.length (Hb.pairs tr))

(* A message edge (exact (chan, seq) pairing) orders sender before receiver;
   a second unrelated task still races. *)
let test_hb_message_edge () =
  let tr = Hb.create () in
  Hb.with_tracker tr (fun () ->
      Hb.on_spawn ~parent:0 ~child:1;
      Hb.on_spawn ~parent:0 ~child:2;
      Hb.on_spawn ~parent:0 ~child:3;
      Hb.on_access ~task:1 ~arr:"a" ~idx:7 ~node:1 ~write:true;
      Hb.on_send ~task:1 ~chan:"c" ~seq:0;
      Hb.on_recv ~task:2 ~chan:"c" ~seq:0;
      Hb.on_access ~task:2 ~arr:"a" ~idx:7 ~node:2 ~write:true);
  check_int "send/recv orders the pair" 0 (List.length (Hb.races tr));
  Hb.with_tracker tr (fun () ->
      Hb.on_access ~task:3 ~arr:"a" ~idx:7 ~node:3 ~write:false);
  check_int "unrelated reader races with the write" 1 (List.length (Hb.races tr))

(* The cumulative channel clock (seq = -1, the native over-approximation)
   still orders a sender's accesses before a later receiver. *)
let test_hb_cumulative_channel () =
  let tr = Hb.create () in
  Hb.with_tracker tr (fun () ->
      Hb.on_spawn ~parent:0 ~child:1;
      Hb.on_spawn ~parent:0 ~child:2;
      Hb.on_access ~task:1 ~arr:"a" ~idx:0 ~node:1 ~write:true;
      Hb.on_send ~task:1 ~chan:"c" ~seq:(-1);
      Hb.on_recv ~task:2 ~chan:"c" ~seq:(-1);
      Hb.on_access ~task:2 ~arr:"a" ~idx:0 ~node:2 ~write:true);
  check_int "cumulative clock orders" 0 (List.length (Hb.races tr))

(* Lock release/acquire and task-done/join edges order conflicting pairs. *)
let test_hb_lock_and_join () =
  let tr = Hb.create () in
  Hb.with_tracker tr (fun () ->
      Hb.on_spawn ~parent:0 ~child:1;
      Hb.on_spawn ~parent:0 ~child:2;
      Hb.on_access ~task:1 ~arr:"a" ~idx:0 ~node:1 ~write:true;
      Hb.on_release ~task:1 ~key:"lock:l";
      Hb.on_acquire ~task:2 ~key:"lock:l";
      Hb.on_access ~task:2 ~arr:"a" ~idx:0 ~node:2 ~write:true;
      Hb.on_access ~task:2 ~arr:"b" ~idx:0 ~node:3 ~write:true;
      Hb.on_task_done ~task:2;
      Hb.on_join ~task:0 ~joined:2;
      Hb.on_access ~task:0 ~arr:"b" ~idx:0 ~node:4 ~write:true);
  check_int "lock and join edges order everything" 0 (List.length (Hb.races tr));
  check_int "both collisions recorded" 2 (List.length (Hb.pairs tr))

(* A write ordered after a prior write resets the read set: a later
   unordered reader races with the NEW write, counted once. *)
let test_hb_write_reset () =
  let tr = Hb.create () in
  Hb.with_tracker tr (fun () ->
      Hb.on_spawn ~parent:0 ~child:1;
      Hb.on_access ~task:0 ~arr:"a" ~idx:0 ~node:1 ~write:true;
      Hb.on_release ~task:0 ~key:"lock:l";
      Hb.on_acquire ~task:1 ~key:"lock:l";
      Hb.on_access ~task:1 ~arr:"a" ~idx:0 ~node:2 ~write:true;
      Hb.on_spawn ~parent:0 ~child:2;
      Hb.on_access ~task:2 ~arr:"a" ~idx:0 ~node:3 ~write:false);
  check_int "reader races only with the latest write" 1 (Hb.race_count tr)

(* An inner tracker scope restores the outer tracker on exit. *)
let test_hb_nested_trackers () =
  let outer = Hb.create () and inner = Hb.create () in
  let installed t = match Hb.get () with Some c -> c == t | None -> false in
  Hb.with_tracker outer (fun () ->
      Hb.with_tracker inner (fun () ->
          check_bool "inner installed" true (installed inner));
      check_bool "outer restored" true (installed outer));
  check_bool "nothing installed after the outer scope" false (Hb.enabled ())

(* ------------------------- builder locs (satellite) ------------------- *)

(* Every node the builder emits carries a source location, synthetic
   ("<name>":emission-order) when the kernel gave none — the sanitizer's
   source attribution depends on it. *)
let test_builder_locs () =
  List.iter
    (fun k ->
      let loop = k.Kernels.make () in
      check_bool (k.Kernels.k_name ^ " has locs") true (Array.length loop.Loop.locs > 0);
      Array.iteri
        (fun i l ->
          check_bool
            (Printf.sprintf "%s node %d has a loc" k.Kernels.k_name i)
            true (l <> None))
        loop.Loop.locs)
    Kernels.suite

(* ------------------------- clean kernels ------------------------------ *)

let small name =
  match name with
  | "blackscholes" -> Kernels.blackscholes ~n:192 ()
  | "crc32" -> Kernels.crc32 ~n:192 ()
  | "url" -> Kernels.url ~n:192 ()
  | "kmeans" -> Kernels.kmeans ~n:192 ()
  | "histogram" -> Kernels.histogram ~n:256 ()
  | "montecarlo" -> Kernels.montecarlo ~n:192 ()
  | "stringsearch" -> Kernels.stringsearch ~n:192 ()
  | _ -> Kernels.recurrence ~n:192 ()

(* Every shipped kernel under every emitted scheme: no soundness errors,
   no races, semantics preserved under the tracker. *)
let test_clean_kernels () =
  List.iter
    (fun k ->
      let r = Sanitize.run (small k.Kernels.k_name) in
      check_int (k.Kernels.k_name ^ " sanitize errors") 0 (Diag.count_errors r.Sanitize.diags);
      check_int (k.Kernels.k_name ^ " races") 0 (total_races r);
      List.iter
        (fun sr ->
          check_bool
            (Printf.sprintf "%s %s semantics" k.Kernels.k_name sr.Sanitize.sr_scheme)
            true sr.Sanitize.sr_semantics_ok)
        r.Sanitize.runs)
    Kernels.suite

(* The sanitizer's throughput counters land in the installed registry. *)
let test_sanitizer_counters () =
  let reg = Metrics.create () in
  Metrics.with_registry reg (fun () ->
      ignore (Sanitize.run (Kernels.blackscholes ~n:64 ())));
  let value name =
    List.fold_left
      (fun acc (f : Metrics.fam_snapshot) ->
        if f.Metrics.name = name then
          List.fold_left
            (fun a (s : Metrics.sample) ->
              match s.Metrics.value with Metrics.Counter_v n -> a + n | _ -> a)
            acc f.Metrics.samples
        else acc)
      0 (Metrics.snapshot reg)
  in
  check_bool "accesses counter advanced" true (value "parcae_sanitizer_accesses_total" > 0);
  check_int "no races counted" 0 (value "parcae_sanitizer_races_total")

(* ------------------------- fault injection ---------------------------- *)

(* Stripping carried memory dependences turns histogram into a
   verifier-passed DOANY that races: S701 must fire (and S702, since the
   doctored PDG also lost the edge the collision needs). *)
let test_inject_histogram_sim () =
  let r = Sanitize.run ~inject:true ~dop:3 (Kernels.histogram ~n:256 ()) in
  check_bool "S701 fired" true (has_code "S701" r.Sanitize.diags);
  check_bool "S702 fired" true (has_code "S702" r.Sanitize.diags);
  check_bool "errors present" true (Diag.count_errors r.Sanitize.diags > 0);
  check_bool "DOANY raced" true (total_races r > 0)

(* The injected DOANY is emitted and passes the verifier before racing —
   the failure is invisible statically. *)
let test_inject_passes_verifier () =
  let c = Sanitize.inject_unsound (Compiler.compile (Kernels.histogram ~n:256 ())) in
  check_bool "DOANY planned" true (c.Compiler.doany <> None);
  List.iter
    (fun s -> check_int "verifier passes" 0 (Diag.count_errors (Verify.plan c.Compiler.pdg s)))
    (Compiler.schemes c)

(* Same injection detected on the native backend: real domains, real
   interleavings, same S-code. *)
let test_inject_histogram_native () =
  let r =
    Sanitize.run ~backend:(Sanitize.Native_backend (Some 4)) ~inject:true ~dop:3
      (Kernels.histogram ~n:256 ())
  in
  check_bool "S701 fired on native" true (has_code "S701" r.Sanitize.diags)

(* ------------------------- precision gaps ----------------------------- *)

(* With 48 iterations histogram's 64 bins never collide across iterations:
   the May-dependence is a precision gap (G711, info — not an error). *)
let test_g711_gap () =
  let r = Sanitize.run ~dop:3 (Kernels.histogram ~n:48 ()) in
  check_int "no errors" 0 (Diag.count_errors r.Sanitize.diags);
  check_bool "G711 reported" true (has_code "G711" r.Sanitize.diags)

(* ------------------------- seeded differential ------------------------ *)

(* The generator's by-construction label, the static PDG classification,
   and the sanitizer's dynamic verdict must agree:
   - race-free kernels sanitize clean under every scheme;
   - racy kernels carry a static loop-carried memory dependence, are
     denied DOANY, and their honest (ordered) executions sanitize clean. *)
let prop_kgen_differential =
  QCheck.Test.make ~name:"kgen: sanitizer agrees with static classification" ~count:24
    (QCheck.make QCheck.Gen.(int_range 0 10_000))
    (fun seed ->
      let g = Kgen.generate ~seed in
      let pdg = Pdg.build g.Kgen.g_loop in
      let carried_mem =
        List.exists
          (fun (d : Dep.t) -> d.Dep.kind = Dep.Mem_data && d.Dep.carried)
          pdg.Pdg.deps
      in
      let r = Sanitize.run ~dop:3 g.Kgen.g_loop in
      let clean = Diag.count_errors r.Sanitize.diags = 0 && total_races r = 0 in
      if g.Kgen.g_racy then
        (* Static analysis must see the carried conflict, DOANY must be
           rejected, and the remaining (ordered) schemes must not race. *)
        carried_mem
        && not (List.mem "DOANY" r.Sanitize.schemes)
        && clean
      else clean)

(* Injecting the unsound analysis into a generated racy kernel yields a
   verifier-passed DOANY whose race the sanitizer pins with S701. *)
let prop_kgen_injection =
  QCheck.Test.make ~name:"kgen: injected racy kernels trigger S701" ~count:12
    (QCheck.make QCheck.Gen.(int_range 0 10_000))
    (fun seed ->
      let g = Kgen.generate ~seed in
      if not g.Kgen.g_racy then true
      else
        let r = Sanitize.run ~inject:true ~dop:3 g.Kgen.g_loop in
        List.mem "DOANY" r.Sanitize.schemes && has_code "S701" r.Sanitize.diags)

(* ------------------------- report plumbing ---------------------------- *)

let test_report_json () =
  let module Json = Parcae_obs.Json in
  let r = Sanitize.run (Kernels.blackscholes ~n:64 ()) in
  let j = Json.parse (Json.to_string (Sanitize.to_json r)) in
  Alcotest.(check string) "json has loop name" "blackscholes" (Json.get_str "loop" j);
  let runs = Json.get_list "runs" j in
  check_int "json has one run per scheme" (List.length r.Sanitize.runs) (List.length runs);
  List.iter2
    (fun (sr : Sanitize.scheme_run) run ->
      Alcotest.(check string) "run scheme" sr.Sanitize.sr_scheme (Json.get_str "scheme" run);
      check_int "run race pairs" (List.length sr.Sanitize.sr_races)
        (Json.get_int "race_pairs" run);
      check_bool "run semantics" sr.Sanitize.sr_semantics_ok (Json.get_bool "semantics_ok" run))
    r.Sanitize.runs runs;
  check_int "json errors" (Diag.count_errors r.Sanitize.diags) (Json.get_int "errors" j)

let suite =
  [
    Alcotest.test_case "hb: unordered writes race" `Quick test_hb_unordered;
    Alcotest.test_case "hb: spawn edge orders" `Quick test_hb_spawn_edge;
    Alcotest.test_case "hb: message edge orders" `Quick test_hb_message_edge;
    Alcotest.test_case "hb: cumulative channel clock" `Quick test_hb_cumulative_channel;
    Alcotest.test_case "hb: lock and join edges" `Quick test_hb_lock_and_join;
    Alcotest.test_case "hb: write resets read set" `Quick test_hb_write_reset;
    Alcotest.test_case "hb: tracker scopes nest" `Quick test_hb_nested_trackers;
    Alcotest.test_case "builder: every node has a loc" `Quick test_builder_locs;
    Alcotest.test_case "clean kernels sanitize clean" `Slow test_clean_kernels;
    Alcotest.test_case "sanitizer counters registered" `Quick test_sanitizer_counters;
    Alcotest.test_case "inject: S701/S702 on sim" `Quick test_inject_histogram_sim;
    Alcotest.test_case "inject: plan passes verifier" `Quick test_inject_passes_verifier;
    Alcotest.test_case "inject: S701 on native" `Slow test_inject_histogram_native;
    Alcotest.test_case "G711 precision gap" `Quick test_g711_gap;
    QCheck_alcotest.to_alcotest prop_kgen_differential;
    QCheck_alcotest.to_alcotest prop_kgen_injection;
    Alcotest.test_case "report json" `Quick test_report_json;
  ]
