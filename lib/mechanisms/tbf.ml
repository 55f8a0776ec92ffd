(* Throughput Balance with Fusion (Section 6.3.2).

   For the goal "maximize throughput with N threads".  TBF keeps a moving
   average of each task's throughput (Decima provides it) and, when invoked,
   assigns each parallel task a DoP inversely proportional to its average
   per-instance throughput — equivalently, proportional to its average
   execution time, the intuition of Figure 5.9 — under the global constraint
   sum(dP_i) <= N.

   If the ratio between the fastest and slowest task throughputs exceeds
   [imbalance] (paper: 0.5, i.e. slowest < half of the mean), TBF switches
   the region to a registered *fused* scheme in which the parallel stages
   have been collapsed into a single parallel task (Figure 6.2(b)),
   avoiding the inefficiency of an unbalanced pipeline. *)

module Config = Parcae_core.Config
module Task = Parcae_core.Task
module Region = Parcae_runtime.Region
module Decima = Parcae_runtime.Decima
module Morta = Parcae_runtime.Morta

(* Proportional DoP assignment (the mechanism of Figure 5.9): give each
   parallel task of descriptor [pd] a share of [navail] threads proportional
   to its measured per-instance execution time. *)
let proportional_dops pd decima navail =
  let tasks = Array.of_list pd.Task.tasks in
  let times =
    Array.mapi
      (fun i task ->
        if task.Task.ttype = Task.Par then Float.max 1.0 (Decima.exec_time decima i) else 0.0)
      tasks
  in
  let total = Array.fold_left ( +. ) 0.0 times in
  Array.mapi
    (fun i task ->
      if task.Task.ttype = Task.Seq then 1
      else if total <= 0.0 then 1
      else max 1 (int_of_float (Float.round (float_of_int navail *. times.(i) /. total))))
    tasks

(* Measured imbalance across parallel tasks: (max - min) / max of per-stage
   execution times; 0 when balanced.  In a steady pipeline every stage
   *processes* items at the same rate, so imbalance must be judged on how
   unequal the stages' work is — a 16 ms stage next to 1 ms stages is the
   "heavily unbalanced" pipeline whose inefficiency fusion avoids. *)
let imbalance_of pd decima =
  let times =
    List.mapi (fun i task -> (i, task)) pd.Task.tasks
    |> List.filter_map (fun (i, task) ->
           if task.Task.ttype = Task.Par then Some (Decima.exec_time decima i) else None)
  in
  match times with
  | [] | [ _ ] -> 0.0
  | t :: rest ->
      let lo = List.fold_left Float.min t rest and hi = List.fold_left Float.max t rest in
      if hi <= 0.0 then 0.0 else (hi -. lo) /. hi

(* The fusion trigger (paper: 0.5, i.e. slowest < half of the mean). *)
let imbalance = 0.5

(* [fused_choice], if given, is the index of the scheme with collapsed
   parallel stages; [warmup] instances must complete before TBF acts. *)
let make ?fused_choice ?(warmup = 30) () : Morta.mechanism =
 fun region ->
  let decima = Region.decima region in
  let pd = Region.scheme region in
  let cur = Region.config region in
  let budget = Region.budget region in
  (* Wait until every task has enough history to be ranked. *)
  let n_tasks = Task.arity pd in
  let ready =
    let rec check i = i >= n_tasks || (Decima.iters decima i >= warmup && check (i + 1)) in
    check 0
  in
  if not ready then None
  else begin
    let fuse =
      match fused_choice with
      | Some c when c <> cur.Config.choice && imbalance_of pd decima > imbalance -> Some c
      | _ -> None
    in
    match fuse with
    | Some choice ->
        (* Switch to the fused scheme, all spare threads on its parallel
           task. *)
        let fused_pd = List.nth region.Region.schemes choice in
        let seqs =
          List.length (List.filter (fun t -> t.Task.ttype = Task.Seq) fused_pd.Task.tasks)
        in
        let navail = max 1 (budget - seqs) in
        let tasks =
          List.map
            (fun t -> if t.Task.ttype = Task.Seq then Config.seq_task else Config.task navail)
            fused_pd.Task.tasks
        in
        Morta.propose ~why:"fused_switch" { (Config.make tasks) with Config.choice }
    | None ->
        let seqs = List.length (List.filter (fun t -> t.Task.ttype = Task.Seq) pd.Task.tasks) in
        let navail = max 1 (budget - seqs) in
        let dops = proportional_dops pd decima navail in
        let tasks =
          Array.mapi (fun i tc -> { tc with Config.dop = dops.(i) }) cur.Config.tasks
        in
        let cfg = { cur with Config.tasks } in
        if Config.equal cfg cur then None else Morta.propose ~why:"proportional_rebalance" cfg
  end
