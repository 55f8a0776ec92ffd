(* Feedback-Directed Pipelining (Suleman et al.), as re-implemented on the
   Parcae API (Section 6.3.2).

   FDP is proportional closed-loop control: starting from one thread per
   task, it repeatedly identifies the LIMITER task (lowest throughput),
   grants it one more thread, measures whether overall throughput improved,
   and keeps or reverts the grant.  When no free threads remain it frees one
   by shrinking the fastest task with DoP > 1 (the paper's FDP
   time-multiplexes the two fastest tasks on one thread; our executor
   models that as reclaiming a thread from the fastest task).  It converges
   when no grant improves throughput. *)

module Config = Parcae_core.Config
module Task = Parcae_core.Task
module Region = Parcae_runtime.Region
module Decima = Parcae_runtime.Decima
module Morta = Parcae_runtime.Morta

type phase =
  | Start  (* reset every task to DoP 1 *)
  | Settle of { prev : Config.t option; prev_thr : float; granted : int }
      (* a trial configuration was just applied; the measurement window that
         ends now includes the pause/drain transient, so discard it and
         judge the trial on the next, clean window *)
  | Measure of { prev : Config.t option; prev_thr : float; granted : int }
      (* a trial configuration is running; judge it on this tick *)
  | Stable

type state = {
  mutable phase : phase;
  mutable last_snapshot : Decima.snapshot option;
}

let output_rate region snap =
  let d = Region.decima region in
  Decima.rate_since d snap (Decima.task_count d - 1)

let parallel_indices pd =
  List.mapi (fun i t -> (i, t)) pd.Task.tasks
  |> List.filter (fun (_, t) -> t.Task.ttype = Task.Par)
  |> List.map fst

(* The LIMITER: the parallel task with the lowest processing *capacity*.
   In a steady pipeline every stage completes items at the same rate, so
   the limiter must be identified from per-stage service capacity
   dop / exec_time, not from observed completion rates. *)
let capacity region cfg i =
  let d = Region.decima region in
  let t = Decima.exec_time d i in
  if t <= 0.0 then infinity else float_of_int (Config.dops cfg).(i) /. t

let total_dop cfg = Array.fold_left ( + ) 0 (Config.dops cfg)

(* The highest-capacity parallel task currently holding more than one
   thread: the donor when threads must be reclaimed. *)
let fastest_shrinkable region =
  let pd = Region.scheme region in
  let cfg = Region.config region in
  parallel_indices pd
  |> List.filter (fun i -> (Config.dops cfg).(i) > 1)
  |> List.fold_left
       (fun best i ->
         match best with
         | None -> Some i
         | Some b -> if capacity region cfg i > capacity region cfg b then Some i else best)
       None

(* The limiter among tasks not yet marked as failed grant targets. *)
let limiter_excluding region failed =
  let pd = Region.scheme region in
  let cfg = Region.config region in
  match List.filter (fun i -> not (Hashtbl.mem failed i)) (parallel_indices pd) with
  | [] -> None
  | par ->
      Some
        (List.fold_left
           (fun best i -> if capacity region cfg i < capacity region cfg best then i else best)
           (List.hd par) par)

(* The regression threshold for reverting a grant: throughput below this
   share of the previous window's. *)
let tolerance = 0.98

(* Consecutive non-improving probes before convergence. *)
let max_flat = 8

let make () : Morta.mechanism =
  let st = { phase = Start; last_snapshot = None } in
  (* Tasks whose last grant made things worse; cleared on any clear
     improvement so a changed workload re-opens them. *)
  let failed : (int, unit) Hashtbl.t = Hashtbl.create 7 in
  let flat_streak = ref 0 in
  fun region ->
    let d = Region.decima region in
    let cur = Region.config region in
    let thr = match st.last_snapshot with None -> 0.0 | Some s -> output_rate region s in
    st.last_snapshot <- Some (Decima.snapshot d);
    let try_grant prev_thr =
      match limiter_excluding region failed with
      | None ->
          st.phase <- Stable;
          None
      | Some lim ->
          let budget = Region.budget region in
          if total_dop cur < budget then begin
            st.phase <- Settle { prev = Some cur; prev_thr; granted = lim };
            Morta.propose ~why:"limiter_grant"
              (Config.with_dop cur lim ((Config.dops cur).(lim) + 1))
          end
          else begin
            (* No free threads: reclaim one from the fastest task. *)
            match fastest_shrinkable region with
            | Some f when f <> lim ->
                let cfg = Config.with_dop cur f ((Config.dops cur).(f) - 1) in
                let cfg = Config.with_dop cfg lim ((Config.dops cfg).(lim) + 1) in
                st.phase <- Settle { prev = Some cur; prev_thr; granted = lim };
                Morta.propose ~why:"limiter_grant" cfg
            | _ ->
                st.phase <- Stable;
                None
          end
    in
    match st.phase with
    | Start ->
        (* Single thread per task. *)
        let tasks = Array.map (fun tc -> { tc with Config.dop = 1 }) cur.Config.tasks in
        st.phase <- Settle { prev = None; prev_thr = 0.0; granted = -1 };
        Morta.propose ~why:"limiter_reset" { cur with Config.tasks }
    | Stable -> None
    | Settle { prev; prev_thr; granted } ->
        (* Discard the transient window; judge on the next tick. *)
        st.phase <- Measure { prev; prev_thr; granted };
        None
    | Measure { prev; prev_thr; granted } ->
        if prev <> None && thr < tolerance *. prev_thr then begin
          (* The last grant hurt: revert, mark its target, and keep hunting
             among the remaining candidates on the next tick. *)
          if granted >= 0 then Hashtbl.replace failed granted ();
          st.phase <- Settle { prev = None; prev_thr = 0.0; granted = -1 };
          match prev with Some p -> Morta.propose ~why:"limiter_revert" p | None -> None
        end
        else begin
          (* Improvement clears the failure memory; a plateau keeps it and
             counts toward convergence. *)
          if prev_thr > 0.0 && thr > 1.02 *. prev_thr then begin
            Hashtbl.reset failed;
            flat_streak := 0
          end
          else incr flat_streak;
          if !flat_streak >= max_flat then begin
            st.phase <- Stable;
            None
          end
          else try_grant thr
        end
