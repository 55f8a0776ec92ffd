(* Property-based tests (qcheck, registered as alcotest cases).

   The central property is semantics preservation: for random IR loops from
   a DOANY-safe grammar, executing the Nona-compiled program under any
   scheme, any DoP, and any sequence of random mid-run reconfigurations
   produces exactly the observable state of the sequential interpreter.

   Supporting properties cover the configuration algebra, the simulator's
   determinism, channel FIFO behaviour, the index-analysis conflict
   classifier (validated against brute force), and statistics. *)

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
module Config = Parcae_core.Config
module Stats = Parcae_util.Stats

let machine = Machine.xeon_x7460

(* ------------------------------------------------------------------ *)
(* A generator of random DOANY-safe loops.                             *)
(*                                                                      *)
(* Grammar: one induction variable; loads from a source array at [i];   *)
(* a chain of random binops over available registers and constants;     *)
(* optionally a reduction and/or a commutative set-insert; a store to   *)
(* dst[i]; a constant Work.  Every loop from this grammar admits DOANY  *)
(* (all carried dependences are induction/reduction/commutative), and   *)
(* its observables are iteration-order independent.                     *)
(* ------------------------------------------------------------------ *)

type spec = {
  trip : int;
  src : int array;
  ops : (int * int * int) list;  (* (op selector, operand selector a, b) *)
  reduction : int option;  (* selector for op kind *)
  insert : bool;
  store : bool;
  work : int;
}

let gen_spec =
  QCheck.Gen.(
    let* trip = int_range 3 40 in
    let* src = array_size (return trip) (int_range (-100) 100) in
    let* n_ops = int_range 1 6 in
    let* ops = list_size (return n_ops) (triple (int_range 0 100) (int_range 0 100) (int_range 0 100)) in
    let* reduction = opt (int_range 0 3) in
    let* insert = bool in
    let* store = bool in
    let* work = int_range 100 2000 in
    return { trip; src; ops; reduction; insert; store; work })

let binop_of_selector s =
  match s mod 8 with
  | 0 -> Instr.Add
  | 1 -> Instr.Sub
  | 2 -> Instr.Mul
  | 3 -> Instr.Xor
  | 4 -> Instr.And
  | 5 -> Instr.Or
  | 6 -> Instr.Min
  | _ -> Instr.Max

let red_of_selector s =
  match s mod 4 with 0 -> Instr.Add | 1 -> Instr.Min | 2 -> Instr.Max | _ -> Instr.Xor

let loop_of_spec spec =
  let b = Builder.create "random" in
  Builder.array b "src" spec.src;
  if spec.store then Builder.array b "dst" (Array.make spec.trip 0);
  let i = Builder.induction b ~from:0 ~step:1 in
  let x = Builder.load b "src" (Instr.Reg i) in
  Builder.work b (Instr.Const spec.work);
  let pool = ref [ i; x ] in
  List.iter
    (fun (ops, oa, ob) ->
      let pick sel =
        if sel mod 3 = 0 then Instr.Const ((sel mod 17) - 8)
        else Instr.Reg (List.nth !pool (sel mod List.length !pool))
      in
      let r = Builder.binop b (binop_of_selector ops) (pick oa) (pick ob) in
      pool := r :: !pool)
    spec.ops;
  let top = List.hd !pool in
  (match spec.reduction with
  | Some sel ->
      let r = Builder.reduce b (red_of_selector sel) ~init:(Instr.Const 1) (Instr.Reg top) in
      Builder.live_out b r
  | None -> ());
  if spec.insert then
    ignore (Builder.call ~commutative:true ~returns:false b "insert" (Instr.Reg top));
  if spec.store then Builder.store b "dst" (Instr.Reg i) (Instr.Reg top);
  Builder.finish ~trip:(Loop.Count spec.trip) b

(* Random run plan: initial scheme/dop plus a list of (delay ns, scheme
   selector, dop) reconfigurations. *)
type plan = { p_initial : int * int; p_steps : (int * int * int) list }

let gen_plan =
  QCheck.Gen.(
    let* initial = pair (int_range 0 100) (int_range 1 12) in
    let* steps =
      list_size (int_range 0 4) (triple (int_range 1_000 200_000) (int_range 0 100) (int_range 1 12))
    in
    return { p_initial = initial; p_steps = steps })

let arb_case =
  QCheck.make
    ~print:(fun (spec, _) ->
      Format.asprintf "%a" Loop.pp (loop_of_spec spec))
    QCheck.Gen.(pair gen_spec gen_plan)

let run_random_case (spec, plan) =
  let loop = loop_of_spec spec in
  let c = Compiler.compile loop in
  let eng = Engine.create machine in
  let h = Compiler.launch ~budget:12 eng c in
  let pick_config (sel, dop) =
    let name = List.nth h.Compiler.names (sel mod List.length h.Compiler.names) in
    Compiler.config_for h ~dop:(max 1 (min 12 dop)) name
  in
  let _ =
    Engine.spawn eng ~name:"driver" (fun () ->
        R.Executor.reconfigure h.Compiler.region (pick_config plan.p_initial);
        List.iter
          (fun (delay, sel, dop) ->
            Engine.sleep delay;
            if not (R.Region.is_done h.Compiler.region) then
              R.Executor.reconfigure h.Compiler.region (pick_config (sel, dop)))
          plan.p_steps;
        R.Executor.await h.Compiler.region)
  in
  ignore (Engine.run ~until:60_000_000_000 eng);
  R.Region.is_done h.Compiler.region && Compiler.preserves_semantics h

let prop_semantics_preserved =
  QCheck.Test.make ~name:"random loops: semantics preserved under random reconfiguration"
    ~count:60 arb_case run_random_case

(* Every random loop from the grammar must be DOANY-applicable. *)
let prop_grammar_doany =
  QCheck.Test.make ~name:"random loops: grammar is DOANY-safe" ~count:60
    (QCheck.make gen_spec)
    (fun spec -> Doany.applicable (Pdg.build (loop_of_spec spec)))

(* PS-DSWP partitions of random loops satisfy Invariant 4.3.1. *)
let prop_partition_invariant =
  QCheck.Test.make ~name:"random loops: PS-DSWP invariant 4.3.1" ~count:60
    (QCheck.make gen_spec)
    (fun spec ->
      let pdg = Pdg.build (loop_of_spec spec) in
      let scc = Scc.build pdg in
      match Psdswp.partition scc with
      | None -> true
      | Some stages -> Psdswp.check_invariant pdg stages)

(* ------------------------------------------------------------------ *)
(* Configuration algebra.                                              *)
(* ------------------------------------------------------------------ *)

let gen_config =
  QCheck.Gen.(
    let* n = int_range 1 6 in
    let* dops = list_size (return n) (int_range 1 24) in
    return (Config.make (List.map Config.task dops)))

let prop_config_threads =
  QCheck.Test.make ~name:"config: threads = sum of dops for flat configs" ~count:200
    (QCheck.make gen_config)
    (fun cfg -> Config.threads cfg = Array.fold_left ( + ) 0 (Config.dops cfg))

let prop_config_with_dop =
  QCheck.Test.make ~name:"config: with_dop updates exactly one slot" ~count:200
    (QCheck.make QCheck.Gen.(pair gen_config (pair (int_range 0 5) (int_range 1 24))))
    (fun (cfg, (i, d)) ->
      let n = Array.length cfg.Config.tasks in
      let i = i mod n in
      let cfg' = Config.with_dop cfg i d in
      (Config.dops cfg').(i) = d
      && Array.for_all2 (fun a b -> a = b)
           (Array.mapi (fun j v -> if j = i then -1 else v) (Config.dops cfg))
           (Array.mapi (fun j v -> if j = i then -1 else v) (Config.dops cfg')))

(* ------------------------------------------------------------------ *)
(* Simulator determinism.                                              *)
(* ------------------------------------------------------------------ *)

let prop_engine_deterministic =
  QCheck.Test.make ~name:"engine: identical runs produce identical traces" ~count:20
    (QCheck.make QCheck.Gen.(pair (int_range 1 6) (list_size (int_range 1 20) (int_range 1 2000))))
    (fun (cores, works) ->
      let run () =
        let eng = Engine.create (Machine.test_machine ~cores ()) in
        let log = Buffer.create 64 in
        List.iteri
          (fun i w ->
            ignore
              (Engine.spawn eng
                 ~name:(string_of_int i)
                 (fun () ->
                   Engine.compute w;
                   Buffer.add_string log (Printf.sprintf "%d@%d;" i (Engine.now ())))))
          works;
        ignore (Engine.run eng);
        (Buffer.contents log, Engine.time eng)
      in
      run () = run ())

(* ------------------------------------------------------------------ *)
(* Channel FIFO under a single producer and consumer.                  *)
(* ------------------------------------------------------------------ *)

let prop_chan_fifo =
  QCheck.Test.make ~name:"chan: single-producer single-consumer preserves order" ~count:50
    (QCheck.make QCheck.Gen.(pair (int_range 0 4) (list_size (int_range 1 40) (int_range 0 1000))))
    (fun (cap, items) ->
      let eng = Engine.create (Machine.test_machine ()) in
      let ch = Chan.create ~capacity:cap eng "c" in
      let out = ref [] in
      let n = List.length items in
      ignore
        (Engine.spawn eng ~name:"p" (fun () -> List.iter (fun v -> Chan.send ch v) items));
      ignore
        (Engine.spawn eng ~name:"c" (fun () ->
             for _ = 1 to n do
               out := Chan.recv ch :: !out
             done));
      ignore (Engine.run eng);
      List.rev !out = items)

(* ------------------------------------------------------------------ *)
(* Index analysis vs brute force.                                      *)
(* ------------------------------------------------------------------ *)

(* Brute-force check: do accesses [i*step + o1] and [i*step + o2] ever
   touch the same element in different iterations / the same iteration? *)
let brute_conflict ~step ~o1 ~o2 ~iters =
  let same_iter = ref false and cross = ref false in
  for i1 = 0 to iters - 1 do
    for i2 = 0 to iters - 1 do
      if (i1 * step) + o1 = (i2 * step) + o2 then
        if i1 = i2 then same_iter := true else cross := true
    done
  done;
  (!same_iter, !cross)

let prop_alias_affine =
  QCheck.Test.make ~name:"alias: affine conflict matches brute force" ~count:300
    (QCheck.make QCheck.Gen.(triple (int_range 1 4) (int_range 0 6) (int_range 0 6)))
    (fun (step, o1, o2) ->
      (* Build a loop: store a[i*step' .. ] via offsets from an induction
         with the given step. *)
      let b = Builder.create "alias" in
      Builder.array b "a" (Array.make 200 0);
      let i = Builder.induction b ~from:0 ~step in
      let i1 = Builder.add b (Instr.Reg i) (Instr.Const o1) in
      let i2 = Builder.add b (Instr.Reg i) (Instr.Const o2) in
      Builder.store b "a" (Instr.Reg i1) (Instr.Const 1);
      Builder.store b "a" (Instr.Reg i2) (Instr.Const 2);
      let loop = Builder.finish ~trip:(Loop.Count 20) b in
      let inds = Alias.inductions loop in
      let c1 = Alias.classify_index loop inds (Instr.Reg i1) in
      let c2 = Alias.classify_index loop inds (Instr.Reg i2) in
      let same_iter, cross = brute_conflict ~step ~o1 ~o2 ~iters:20 in
      match Alias.conflict inds c1 c2 with
      | Alias.Same_iteration -> same_iter && not cross
      | Alias.Cross_iteration _ -> cross
      | Alias.No_conflict -> (not same_iter) && not cross
      | Alias.May_conflict -> true (* conservative is always sound *))

(* Mixed affine-vs-fixed accesses: a[i*step + o1] against the fixed cell
   a[o2], classified exactly.  The classifier may only say No_conflict
   when no iteration of the trip ever touches the fixed cell. *)
let prop_alias_mixed =
  QCheck.Test.make ~name:"alias: affine vs fixed matches brute force" ~count:300
    (QCheck.make QCheck.Gen.(quad (int_range 1 4) (int_range 1 3) (int_range 0 6) (int_range 0 30)))
    (fun (scale, step, o1, o2) ->
      let trip = 10 in
      let b = Builder.create "mixed" in
      Builder.array b "a" (Array.make 200 0);
      let i = Builder.induction b ~from:0 ~step in
      let s = Builder.mul b (Instr.Reg i) (Instr.Const scale) in
      let a1 = Builder.add b (Instr.Reg s) (Instr.Const o1) in
      let x = Builder.load b "a" (Instr.Const o2) in
      Builder.store b "a" (Instr.Reg a1) (Instr.Reg x);
      let loop = Builder.finish ~trip:(Loop.Count trip) b in
      let inds = Alias.inductions loop in
      let c1 = Alias.classify_index loop inds (Instr.Reg a1) in
      let c2 = Alias.classify_index loop inds (Instr.Const o2) in
      let hit = ref false in
      for t = 0 to trip - 1 do
        if (scale * step * t) + o1 = o2 then hit := true
      done;
      match Alias.conflict ~trip inds c1 c2 with
      | Alias.No_conflict -> not !hit
      | Alias.May_conflict | Alias.Same_iteration | Alias.Cross_iteration _ -> !hit)

(* Unmutated plans from the DOANY-safe grammar must verify cleanly: the
   verifier never rejects what the compiler legitimately emits. *)
let prop_plans_verify_clean =
  QCheck.Test.make ~name:"random loops: emitted plans verify cleanly" ~count:60
    (QCheck.make gen_spec)
    (fun spec ->
      let c = Compiler.compile ~verify:false (loop_of_spec spec) in
      let pdg = c.Compiler.pdg in
      Parcae_analysis.Diag.count_errors (Verify.pdg_integrity pdg) = 0
      && List.for_all
           (fun s -> Parcae_analysis.Diag.count_errors (Verify.plan pdg s) = 0)
           (Compiler.schemes c))

(* ------------------------------------------------------------------ *)
(* Statistics.                                                         *)
(* ------------------------------------------------------------------ *)

let prop_percentile =
  QCheck.Test.make ~name:"stats: percentile bounded and monotone" ~count:200
    (QCheck.make
       QCheck.Gen.(
         triple
           (list_size (int_range 1 50) (float_bound_exclusive 1000.0))
           (float_bound_inclusive 100.0) (float_bound_inclusive 100.0)))
    (fun (xs, p1, p2) ->
      let xs = Array.of_list xs in
      let lo, hi = Stats.min_max xs in
      let v1 = Stats.percentile p1 xs and v2 = Stats.percentile p2 xs in
      v1 >= lo -. 1e-9 && v1 <= hi +. 1e-9
      && if p1 <= p2 then v1 <= v2 +. 1e-9 else v1 >= v2 -. 1e-9)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_semantics_preserved;
      prop_grammar_doany;
      prop_partition_invariant;
      prop_config_threads;
      prop_config_with_dop;
      prop_engine_deterministic;
      prop_chan_fifo;
      prop_alias_affine;
      prop_alias_mixed;
      prop_plans_verify_clean;
      prop_percentile;
    ]
