(* Tests for the static-analysis suite: the dataflow lattice, the
   dataflow-sharpened index analysis, the plan legality verifier
   (including systematic fault injection into emitted plans), the W6xx
   lints, and the end-to-end `check` pass. *)

open Parcae_ir
open Parcae_analysis
open Parcae_pdg
open Parcae_nona
module D = Dataflow
module Engine = Parcae_platform.Engine
module Machine = Parcae_sim.Machine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Dataflow lattice.                                                   *)
(* ------------------------------------------------------------------ *)

(* Transfer functions must over-approximate the interpreter: the result
   of any binop on constants is contained in the abstract result. *)
let test_binop_soundness () =
  let ops =
    [
      Instr.Add; Instr.Sub; Instr.Mul; Instr.Div; Instr.Rem; Instr.Min; Instr.Max;
      Instr.Xor; Instr.And; Instr.Or; Instr.Shl; Instr.Shr; Instr.Eq; Instr.Ne;
      Instr.Lt; Instr.Le;
    ]
  in
  let samples = [ -63; -7; -1; 0; 1; 3; 8; 62; 100 ] in
  List.iter
    (fun op ->
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              let f = D.binop op (D.const a) (D.const b) in
              check_bool
                (Printf.sprintf "%s %d %d sound" (Instr.binop_to_string op) a b)
                true
                (D.contains f (Instr.eval_binop op a b)))
            samples)
        samples)
    ops

let test_binop_exactness () =
  check_int "2+3" 5 (Option.get (D.const_of (D.binop Instr.Add (D.const 2) (D.const 3))));
  check_int "7/0 = 0" 0
    (Option.get (D.const_of (D.binop Instr.Div (D.const 7) (D.const 0))));
  check_int "7 mod 0 = 0" 0
    (Option.get (D.const_of (D.binop Instr.Rem (D.const 7) (D.const 0))));
  (* shift amounts are masked with [land 62]: shifting by 3 shifts by 2 *)
  check_int "1 shl 3 (masked)" (Instr.eval_binop Instr.Shl 1 3)
    (Option.get (D.const_of (D.binop Instr.Shl (D.const 1) (D.const 3))))

let test_join_congruence () =
  let f = D.join (D.const 1) (D.const 3) in
  check_bool "contains 1" true (D.contains f 1);
  check_bool "contains 3" true (D.contains f 3);
  check_bool "2 excluded by congruence" false (D.contains f 2);
  check_bool "const_of none" true (D.const_of f = None);
  check_bool "ranges disjoint" true (D.disjoint (D.range (Some 0) (Some 7)) (D.range (Some 16) (Some 23)));
  check_bool "overlapping ranges" false (D.disjoint (D.range (Some 0) (Some 7)) (D.range (Some 7) (Some 9)))

(* A counted induction gets an exact trip-bounded interval, and derived
   values inherit both bounds and congruence. *)
let test_induction_facts () =
  let b = Builder.create "facts" in
  let i = Builder.induction b ~from:0 ~step:1 in
  let j = Builder.mul b (Instr.Reg i) (Instr.Const 2) in
  Builder.work b (Instr.Const 10);
  let loop = Builder.finish ~trip:(Loop.Count 10) b in
  let s = D.analyze loop in
  let fi = D.reg_fact s i and fj = D.reg_fact s j in
  check_bool "i contains 0" true (D.contains fi 0);
  check_bool "i contains 9" true (D.contains fi 9);
  check_bool "i excludes 10" false (D.contains fi 10);
  check_bool "i excludes -1" false (D.contains fi (-1));
  check_bool "2i contains 18" true (D.contains fj 18);
  check_bool "2i excludes odd" false (D.contains fj 9);
  check_bool "2i excludes 20" false (D.contains fj 20)

(* ------------------------------------------------------------------ *)
(* Index-analysis precision (each case was May_conflict before the      *)
(* dataflow sharpening) and a soundness regression.                     *)
(* ------------------------------------------------------------------ *)

let doany_ok loop = Doany.applicable (Pdg.build loop)

let no_carried_mem loop =
  List.for_all
    (fun d -> not (d.Dep.carried && d.Dep.kind = Dep.Mem_data))
    (Pdg.build loop).Pdg.deps

(* store a[2i] / load a[2i+1]: strides recognized through Mul, the odd
   and even lanes never meet. *)
let test_precision_strided () =
  let b = Builder.create "strided" in
  Builder.array b "a" (Array.make 64 0);
  let i = Builder.induction b ~from:0 ~step:1 in
  let even = Builder.mul b (Instr.Reg i) (Instr.Const 2) in
  let odd = Builder.add b (Instr.Reg even) (Instr.Const 1) in
  let x = Builder.load b "a" (Instr.Reg odd) in
  Builder.store b "a" (Instr.Reg even) (Instr.Reg x);
  let loop = Builder.finish ~trip:(Loop.Count 20) b in
  check_bool "no carried mem dep" true (no_carried_mem loop);
  check_bool "DOANY applicable" true (doany_ok loop)

(* store a[i+100] / load a[i] with trip 10: the distance is infeasible. *)
let test_precision_trip_bounded () =
  let b = Builder.create "far" in
  Builder.array b "a" (Array.make 200 0);
  let i = Builder.induction b ~from:0 ~step:1 in
  let far = Builder.add b (Instr.Reg i) (Instr.Const 100) in
  let x = Builder.load b "a" (Instr.Reg i) in
  Builder.store b "a" (Instr.Reg far) (Instr.Reg x);
  let loop = Builder.finish ~trip:(Loop.Count 10) b in
  check_bool "no carried mem dep" true (no_carried_mem loop);
  check_bool "DOANY applicable" true (doany_ok loop)

(* A provably-constant register chain folds to a Fixed cell, which the
   stores at a[i+6] (cells 6..13) provably never touch. *)
let test_precision_const_chain () =
  let b = Builder.create "constchain" in
  Builder.array b "a" (Array.make 16 0);
  let i = Builder.induction b ~from:0 ~step:1 in
  let c = Builder.add b (Instr.Const 2) (Instr.Const 3) in
  let x = Builder.load b "a" (Instr.Reg c) in
  let j = Builder.add b (Instr.Reg i) (Instr.Const 6) in
  Builder.store b "a" (Instr.Reg j) (Instr.Reg x);
  let loop = Builder.finish ~trip:(Loop.Count 8) b in
  check_bool "fixed cell below the stored range" true (no_carried_mem loop);
  check_bool "DOANY applicable" true (doany_ok loop)

(* Unclassifiable chains still separate through interval facts: the
   masked load index lives in [16, 23] while the stores cover [0, 7]. *)
let test_precision_fact_disjoint () =
  let b = Builder.create "masked" in
  Builder.array b "a" (Array.make 32 0);
  let i = Builder.induction b ~from:0 ~step:1 in
  let m = Builder.binop b Instr.And (Instr.Reg i) (Instr.Const 7) in
  let h = Builder.add b (Instr.Reg m) (Instr.Const 16) in
  let x = Builder.load b "a" (Instr.Reg h) in
  Builder.store b "a" (Instr.Reg i) (Instr.Reg x);
  let loop = Builder.finish ~trip:(Loop.Count 8) b in
  check_bool "ranges disjoint" true (no_carried_mem loop);
  check_bool "DOANY applicable" true (doany_ok loop)

(* Affine-vs-fixed: a[i] against a[5] conflicts exactly when iteration 5
   is reachable. *)
let test_affine_vs_fixed () =
  let make trip =
    let b = Builder.create "afix" in
    Builder.array b "a" (Array.make 16 0);
    let i = Builder.induction b ~from:0 ~step:1 in
    let x = Builder.load b "a" (Instr.Const 5) in
    Builder.store b "a" (Instr.Reg i) (Instr.Reg x);
    Builder.finish ~trip:(Loop.Count trip) b
  in
  check_bool "trip 10 reaches a[5]" false (doany_ok (make 10));
  check_bool "trip 4 cannot reach a[5]" true (doany_ok (make 4))

(* Soundness regression: a fixed cell read-modify-written every iteration
   is a genuine carried dependence (the seed classified equal Fixed cells
   as Same_iteration and wrongly admitted DOANY). *)
let test_fixed_cell_regression () =
  let b = Builder.create "fixedcell" in
  Builder.array b "a" (Array.make 4 0);
  let _i = Builder.induction b ~from:0 ~step:1 in
  let x = Builder.load b "a" (Instr.Const 0) in
  let y = Builder.add b (Instr.Reg x) (Instr.Const 1) in
  Builder.store b "a" (Instr.Const 0) (Instr.Reg y);
  let loop = Builder.finish ~trip:(Loop.Count 10) b in
  check_bool "carried mem dep present" false (no_carried_mem loop);
  check_bool "DOANY rejected" false (doany_ok loop)

(* ------------------------------------------------------------------ *)
(* Verifier: accepts everything the compiler emits.                    *)
(* ------------------------------------------------------------------ *)

let plan_errors pdg scheme = Diag.count_errors (Verify.plan pdg scheme)

let test_verifier_accepts_kernels () =
  List.iter
    (fun (k : Kernels.expectation) ->
      let c = Compiler.compile (k.Kernels.make ()) in
      check_int (k.Kernels.k_name ^ ": pdg integrity") 0
        (Diag.count_errors (Verify.pdg_integrity c.Compiler.pdg));
      List.iter
        (fun s ->
          check_int
            (Printf.sprintf "%s: %s verifies" k.Kernels.k_name (Verify.scheme_name s))
            0
            (plan_errors c.Compiler.pdg s))
        (Compiler.schemes c))
    Kernels.suite

(* ------------------------------------------------------------------ *)
(* Verifier: fault injection.  Every corruption class must be caught.  *)
(* ------------------------------------------------------------------ *)

(* Find the first kernel (with its compilation) satisfying [pred]. *)
let find_kernel pred =
  let rec go = function
    | [] -> Alcotest.fail "no kernel matches the fault-injection precondition"
    | (k : Kernels.expectation) :: rest ->
        let c = Compiler.compile (k.Kernels.make ()) in
        if pred c then (k.Kernels.k_name, c) else go rest
  in
  go Kernels.suite

let stage_of_node (pipe : Mtcg.pipeline) id =
  let found = ref (-1) in
  Array.iteri
    (fun si (s : Psdswp.stage) -> if List.mem id s.Psdswp.members then found := si)
    pipe.Mtcg.stages;
  !found

(* Move node [id] into stage [to_stage], preserving coverage. *)
let move_node (pipe : Mtcg.pipeline) id ~to_stage =
  let stages =
    Array.mapi
      (fun si (s : Psdswp.stage) ->
        let members = List.filter (fun m -> m <> id) s.Psdswp.members in
        let members =
          if si = to_stage then List.sort compare (id :: members) else members
        in
        { s with Psdswp.members })
      pipe.Mtcg.stages
  in
  { pipe with Mtcg.stages }

let array_remove arr i =
  Array.of_list (List.filteri (fun j _ -> j <> i) (Array.to_list arr))

(* Dropping any channel must be detected: each edge either carries a
   dependence or paces an otherwise-unreached stage. *)
let test_inject_drop_edges () =
  List.iter
    (fun (k : Kernels.expectation) ->
      let c = Compiler.compile (k.Kernels.make ()) in
      match c.Compiler.pipeline with
      | None -> ()
      | Some pipe ->
          Array.iteri
            (fun i _ ->
              let bad = { pipe with Mtcg.edges = array_remove pipe.Mtcg.edges i } in
              check_bool
                (Printf.sprintf "%s: dropping edge %d rejected" k.Kernels.k_name i)
                true
                (plan_errors c.Compiler.pdg (Verify.Psdswp bad) > 0))
            pipe.Mtcg.edges)
    Kernels.suite

let test_inject_drop_reg () =
  let name, c =
    find_kernel (fun c ->
        match c.Compiler.pipeline with
        | Some pipe ->
            Array.exists (fun (e : Mtcg.edge) -> e.Mtcg.e_regs <> []) pipe.Mtcg.edges
        | None -> false)
  in
  let pipe = Option.get c.Compiler.pipeline in
  let edges =
    Array.map
      (fun (e : Mtcg.edge) ->
        match e.Mtcg.e_regs with
        | [] -> e
        | _ :: rest -> { e with Mtcg.e_regs = rest })
      pipe.Mtcg.edges
  in
  check_bool (name ^ ": dropping a communicated register rejected") true
    (plan_errors c.Compiler.pdg (Verify.Psdswp { pipe with Mtcg.edges }) > 0)

let test_inject_backward_dep () =
  let name, c =
    find_kernel (fun c ->
        match c.Compiler.pipeline with
        | Some pipe ->
            List.exists
              (fun (d : Dep.t) ->
                (not d.Dep.carried) && stage_of_node pipe d.Dep.src >= 1)
              c.Compiler.pdg.Pdg.deps
        | None -> false)
  in
  let pipe = Option.get c.Compiler.pipeline in
  let d =
    List.find
      (fun (d : Dep.t) -> (not d.Dep.carried) && stage_of_node pipe d.Dep.src >= 1)
      c.Compiler.pdg.Pdg.deps
  in
  let bad = move_node pipe d.Dep.dst ~to_stage:0 in
  check_bool (name ^ ": consumer moved before its producer rejected") true
    (plan_errors c.Compiler.pdg (Verify.Psdswp bad) > 0)

let test_inject_break_in_par_stage () =
  let name, c =
    find_kernel (fun c ->
        match c.Compiler.pipeline with
        | Some pipe ->
            Array.exists (fun (s : Psdswp.stage) -> s.Psdswp.par) pipe.Mtcg.stages
            && Array.exists
                 (function
                   | Loop.Instr_node (Instr.Break_if _) -> true
                   | _ -> false)
                 c.Compiler.pdg.Pdg.nodes
        | None -> false)
  in
  let pipe = Option.get c.Compiler.pipeline in
  let par_stage = ref 0 in
  Array.iteri
    (fun si (s : Psdswp.stage) -> if s.Psdswp.par then par_stage := si)
    pipe.Mtcg.stages;
  let break_id = ref 0 in
  Array.iteri
    (fun id n ->
      match n with
      | Loop.Instr_node (Instr.Break_if _) -> break_id := id
      | _ -> ())
    c.Compiler.pdg.Pdg.nodes;
  let bad = move_node pipe !break_id ~to_stage:!par_stage in
  check_bool (name ^ ": break in a parallel stage rejected") true
    (plan_errors c.Compiler.pdg (Verify.Psdswp bad) > 0)

let test_inject_induction_in_par_stage () =
  let name, c =
    find_kernel (fun c ->
        match c.Compiler.pipeline with
        | Some pipe ->
            Array.exists (fun (s : Psdswp.stage) -> s.Psdswp.par) pipe.Mtcg.stages
            && c.Compiler.pdg.Pdg.inductions <> []
        | None -> false)
  in
  let pipe = Option.get c.Compiler.pipeline in
  let par_stage = ref 0 in
  Array.iteri
    (fun si (s : Psdswp.stage) -> if s.Psdswp.par then par_stage := si)
    pipe.Mtcg.stages;
  let pdg = c.Compiler.pdg in
  let ind = List.hd pdg.Pdg.inductions in
  let phi_id = ref 0 in
  List.iteri
    (fun pi (p : Instr.phi) ->
      if p.Instr.pdst = ind.Alias.ind_phi then phi_id := pi)
    pdg.Pdg.loop.Loop.phis;
  let bad = move_node pipe !phi_id ~to_stage:!par_stage in
  check_bool (name ^ ": induction phi in a parallel stage rejected") true
    (plan_errors pdg (Verify.Psdswp bad) > 0)

let test_inject_coverage_hole () =
  let name, c = find_kernel (fun c -> c.Compiler.pipeline <> None) in
  let pipe = Option.get c.Compiler.pipeline in
  let stages =
    Array.mapi
      (fun si (s : Psdswp.stage) ->
        if si = 0 then { s with Psdswp.members = List.tl s.Psdswp.members } else s)
      pipe.Mtcg.stages
  in
  check_bool (name ^ ": unassigned node rejected") true
    (plan_errors c.Compiler.pdg (Verify.Psdswp { pipe with Mtcg.stages }) > 0)

(* Relax-tag corruption, both directions: a hard dependence laundered as
   relaxable must fail both integrity and the scheme check; a genuinely
   relaxable one stamped Hard must make the old plan illegal. *)
let test_inject_relax_flips () =
  let c = Compiler.compile (Kernels.histogram ~n:64 ()) in
  let pdg = c.Compiler.pdg in
  check_bool "histogram has a hard carried mem dep" true
    (List.exists
       (fun (d : Dep.t) ->
         d.Dep.carried && d.Dep.kind = Dep.Mem_data && not (Dep.is_relaxable d))
       pdg.Pdg.deps);
  let laundered =
    {
      pdg with
      Pdg.deps =
        List.map
          (fun (d : Dep.t) ->
            if d.Dep.carried && not (Dep.is_relaxable d) then
              { d with Dep.relax = Dep.Reduction }
            else d)
          pdg.Pdg.deps;
    }
  in
  check_bool "laundered tags fail integrity" true
    (Diag.count_errors (Verify.pdg_integrity laundered) > 0);
  (match Doany.make_plan laundered with
  | Some p ->
      check_bool "laundered DOANY rejected" true
        (plan_errors laundered (Verify.Doany p) > 0)
  | None -> Alcotest.fail "laundering should make DOANY appear applicable");
  let c2 = Compiler.compile (Kernels.montecarlo ~n:64 ()) in
  let pdg2 = c2.Compiler.pdg in
  let plan2 =
    match c2.Compiler.doany with
    | Some p -> p
    | None -> Alcotest.fail "montecarlo should be DOANY"
  in
  check_bool "montecarlo has commutative deps" true
    (List.exists (fun (d : Dep.t) -> d.Dep.relax = Dep.Commutative) pdg2.Pdg.deps);
  let hardened =
    {
      pdg2 with
      Pdg.deps =
        List.map
          (fun (d : Dep.t) ->
            if d.Dep.relax = Dep.Commutative then { d with Dep.relax = Dep.Hard } else d)
          pdg2.Pdg.deps;
    }
  in
  check_bool "hardened PDG rejects the old DOANY plan" true
    (plan_errors hardened (Verify.Doany plan2) > 0)

let test_inject_doany_plan_mutations () =
  let c = Compiler.compile (Kernels.montecarlo ~n:64 ()) in
  let plan = Option.get c.Compiler.doany in
  check_bool "montecarlo serializes a function" true (plan.Doany.serialized_fns <> []);
  check_bool "empty lock set rejected" true
    (plan_errors c.Compiler.pdg (Verify.Doany { plan with Doany.serialized_fns = [] }) > 0);
  let ck = Compiler.compile (Kernels.kmeans ~n:64 ()) in
  let kplan = Option.get ck.Compiler.doany in
  check_bool "kmeans privatizes a reduction" true (kplan.Doany.privatized <> []);
  check_bool "dropped privatization rejected" true
    (plan_errors ck.Compiler.pdg (Verify.Doany { kplan with Doany.privatized = [] }) > 0);
  let flipped =
    List.map
      (fun (r : Pdg.reduction) -> { r with Pdg.red_op = Instr.Sub })
      kplan.Doany.privatized
  in
  check_bool "wrong combine operator rejected" true
    (plan_errors ck.Compiler.pdg (Verify.Doany { kplan with Doany.privatized = flipped }) > 0)

let test_inject_doacross_mutations () =
  let c = Compiler.compile (Kernels.crc32 ~n:64 ()) in
  let plan =
    match c.Compiler.doacross with
    | Some p -> p
    | None -> Alcotest.fail "crc32 should be DOACROSS"
  in
  let pdg = c.Compiler.pdg in
  check_int "unmutated plan verifies" 0 (plan_errors pdg (Verify.Doacross plan));
  check_bool "dropping the forwarded recurrence rejected" true
    (plan_errors pdg (Verify.Doacross { plan with Doacross.hard_phis = [] }) > 0);
  check_bool "recurrence chain moved into the overlapped part rejected" true
    (plan_errors pdg
       (Verify.Doacross
          {
            plan with
            Doacross.pre = plan.Doacross.pre @ plan.Doacross.chain;
            Doacross.chain = [];
          })
     > 0);
  let holed =
    match plan.Doacross.pre with
    | _ :: rest -> { plan with Doacross.pre = rest }
    | [] -> { plan with Doacross.chain = List.tl plan.Doacross.chain }
  in
  check_bool "coverage hole rejected" true
    (plan_errors pdg (Verify.Doacross holed) > 0)

(* The launch boundary re-verifies: a hand-corrupted compiled record must
   not reach the executor. *)
let test_launch_rejects_corrupt_plan () =
  let name, c = find_kernel (fun c -> c.Compiler.pipeline <> None) in
  let pipe = Option.get c.Compiler.pipeline in
  let bad =
    { c with Compiler.pipeline = Some { pipe with Mtcg.edges = [||] } }
  in
  let eng = Engine.create Machine.xeon_x7460 in
  match Compiler.launch eng bad with
  | (_ : Compiler.handle) ->
      Alcotest.failf "%s: corrupt pipeline reached the executor" name
  | exception Verify.Illegal_plan (scheme, diags) ->
      Alcotest.(check string) "rejected scheme" "PS-DSWP" scheme;
      check_bool "diagnostics attached" true (Diag.count_errors diags > 0)

(* ------------------------------------------------------------------ *)
(* Lints.                                                              *)
(* ------------------------------------------------------------------ *)

let lint_codes src =
  List.map (fun d -> d.Diag.code) (Lint.run (Parser.parse src))

let has_code c src = List.mem c (lint_codes src)

let test_lint_dead_store () =
  check_bool "overwritten store flagged" true
    (has_code "W601"
       {| loop l (count 4) {
            array a[4] = zero
            i = induction 0 step 1
            store a[0], 1
            store a[0], 2
          } |});
  check_bool "intervening load suppresses" false
    (has_code "W601"
       {| loop l (count 4) {
            array a[4] = zero
            i = induction 0 step 1
            store a[0], 1
            x = load a[0]
            store a[0], x
          } |})

let test_lint_invariant_liveout () =
  check_bool "constant live-out flagged" true
    (has_code "W602"
       {| loop l (count 4) {
            s = phi 5 carry s2
            s2 = add s, 0
            work 10
            liveout s
          } |});
  check_bool "moving live-out unflagged" false
    (has_code "W602"
       {| loop l (count 4) {
            s = phi 5 carry s2
            s2 = add s, 3
            work 10
            liveout s
          } |})

let test_lint_zero_divisor () =
  check_bool "possibly-zero divisor flagged" true
    (has_code "W603"
       {| loop l (count 4) {
            array a[4] = zero
            i = induction 0 step 1
            d = load a[i]
            q = div 10, d
            store a[i], q
          } |});
  check_bool "nonzero divisor unflagged" false
    (has_code "W603"
       {| loop l (count 4) {
            array a[4] = iota
            i = induction 0 step 1
            x = load a[i]
            q = div x, 2
            store a[i], q
          } |})

let test_lint_unreachable_after_break () =
  check_bool "code after an always-firing break flagged" true
    (has_code "W604"
       {| loop l (while) {
            i = induction 0 step 1
            one = add 0, 1
            break_if one
            work 5
          } |})

let test_lint_unused_register () =
  check_bool "never-read register flagged" true
    (has_code "W605"
       {| loop l (count 4) {
            array a[4] = iota
            i = induction 0 step 1
            x = load a[i]
            work 5
          } |})

let test_lint_never_firing_break () =
  check_bool "never-firing break flagged" true
    (has_code "W606"
       {| loop l (while) {
            i = induction 0 step 1
            z = mul i, 0
            break_if z
            work 5
          } |})

(* ------------------------------------------------------------------ *)
(* End-to-end check pass.                                              *)
(* ------------------------------------------------------------------ *)

let test_check_kernels_clean () =
  List.iter
    (fun (k : Kernels.expectation) ->
      let r = Check.run (k.Kernels.make ()) in
      check_int (k.Kernels.k_name ^ ": zero errors") 0 (Diag.count_errors r.Check.diags);
      check_bool (k.Kernels.k_name ^ ": SEQ first") true
        (List.hd r.Check.schemes = "SEQ");
      check_bool (k.Kernels.k_name ^ ": DOANY expectation matches") true
        (List.mem "DOANY" r.Check.schemes = k.Kernels.exp_doany))
    Kernels.suite

let test_check_examples_clean () =
  let dir = "../examples/kernels" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".loop")
    |> List.sort compare
  in
  check_bool "found sample .loop files" true (List.length files >= 4);
  List.iter
    (fun f ->
      let r = Check.run (Parser.parse_file (Filename.concat dir f)) in
      check_int (f ^ ": zero errors") 0 (Diag.count_errors r.Check.diags))
    files

(* Inhibitor explanations carry source positions and recomputed reuse
   distances. *)
let test_check_explanations () =
  let src =
    {| loop carried (count 16) {
         array a[32] = iota
         i = induction 0 step 1
         prev = load a[i]
         next = add prev, 1
         j = add i, 1
         store a[j], next
       } |}
  in
  let r = Check.run (Parser.parse src) in
  check_bool "DOANY not offered" true (not (List.mem "DOANY" r.Check.schemes));
  let mem_infos =
    List.filter (fun (d : Diag.t) -> d.Diag.code = "N401") r.Check.diags
  in
  check_bool "inhibitor explained" true (mem_infos <> []);
  let d = List.hd mem_infos in
  check_bool "explanation names the array" true
    (contains d.Diag.message "a[]");
  check_bool "explanation gives the distance" true
    (contains d.Diag.message "1 iteration(s) later");
  check_bool "explanation is located" true (d.Diag.loc <> None)

let test_check_json_shape () =
  let module Json = Parcae_obs.Json in
  let r = Check.run (Kernels.histogram ~n:64 ()) in
  (* Through the printer and back: the report must be well-formed JSON. *)
  let json = Json.parse (Json.to_string (Check.to_json r)) in
  Alcotest.(check string) "names the loop" "histogram" (Json.get_str "loop" json);
  check_bool "lists schemes" true
    (List.mem (Json.Str "PS-DSWP") (Json.get_list "schemes" json));
  let diags = Json.get_list "diagnostics" json in
  check_int "one object per diagnostic" (List.length r.Check.diags) (List.length diags);
  check_bool "embeds diagnostics" true (diags <> []);
  List.iter2
    (fun (d : Diag.t) j ->
      Alcotest.(check string) "code" d.Diag.code (Json.get_str "code" j);
      Alcotest.(check string) "severity" (Diag.severity_to_string d.Diag.severity)
        (Json.get_str "severity" j))
    r.Check.diags diags

let suite =
  [
    ("dataflow: binop transfer is sound on constants", `Quick, test_binop_soundness);
    ("dataflow: constant folding matches eval", `Quick, test_binop_exactness);
    ("dataflow: join keeps congruence", `Quick, test_join_congruence);
    ("dataflow: counted induction gets trip bounds", `Quick, test_induction_facts);
    ("alias precision: strided accesses admit DOANY", `Quick, test_precision_strided);
    ("alias precision: trip-infeasible distance", `Quick, test_precision_trip_bounded);
    ("alias precision: constant chains fold to cells", `Quick, test_precision_const_chain);
    ("alias precision: disjoint value ranges", `Quick, test_precision_fact_disjoint);
    ("alias: affine hits a fixed cell iff reachable", `Quick, test_affine_vs_fixed);
    ("alias soundness: fixed-cell recurrence inhibits", `Quick, test_fixed_cell_regression);
    ("verify: accepts every emitted scheme", `Quick, test_verifier_accepts_kernels);
    ("verify: dropping any channel is caught", `Quick, test_inject_drop_edges);
    ("verify: dropping a communicated register is caught", `Quick, test_inject_drop_reg);
    ("verify: backward dependence is caught", `Quick, test_inject_backward_dep);
    ("verify: break in a parallel stage is caught", `Quick, test_inject_break_in_par_stage);
    ( "verify: induction in a parallel stage is caught",
      `Quick,
      test_inject_induction_in_par_stage );
    ("verify: coverage hole is caught", `Quick, test_inject_coverage_hole);
    ("verify: relax-tag corruption is caught", `Quick, test_inject_relax_flips);
    ("verify: DOANY plan mutations are caught", `Quick, test_inject_doany_plan_mutations);
    ("verify: DOACROSS plan mutations are caught", `Quick, test_inject_doacross_mutations);
    ("verify: launch rejects a corrupted plan", `Quick, test_launch_rejects_corrupt_plan);
    ("lint: dead store", `Quick, test_lint_dead_store);
    ("lint: loop-invariant live-out", `Quick, test_lint_invariant_liveout);
    ("lint: possibly-zero divisor", `Quick, test_lint_zero_divisor);
    ("lint: unreachable after break", `Quick, test_lint_unreachable_after_break);
    ("lint: unused register", `Quick, test_lint_unused_register);
    ("lint: never-firing break", `Quick, test_lint_never_firing_break);
    ("check: kernels produce zero errors", `Quick, test_check_kernels_clean);
    ("check: sample .loop files produce zero errors", `Quick, test_check_examples_clean);
    ("check: inhibitors explained in source terms", `Quick, test_check_explanations);
    ("check: JSON report shape", `Quick, test_check_json_shape);
  ]
