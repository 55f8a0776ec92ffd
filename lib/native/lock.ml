(* Mutual exclusion between native tasks: a per-structure monitor (no
   shared engine lock), with the same owner bookkeeping as the
   simulator's Lock — owner identity, recursive-acquire and
   stranger-release checks.  The owner is the *fiber* (task handle), so
   ownership survives a migration between domains while blocked
   elsewhere is impossible: lock holders never suspend inside
   acquire/release. *)

module Monitor = Engine.Monitor
module Hb = Parcae_obs.Hb

type t = {
  name : string;
  hb_key : string;  (* ["lock:" ^ name], the sanitizer's sync key *)
  mon : Monitor.m;
  free : Monitor.c;
  mutable owner : Engine.task option;  (* guarded by mon *)
}

let create _eng name =
  let mon = Monitor.create () in
  { name; hb_key = "lock:" ^ name; mon; free = Monitor.cond mon; owner = None }

let acquire lk =
  Monitor.locked lk.mon (fun () ->
      let me =
        match Engine.self_opt () with
        | Some t -> t
        | None ->
            invalid_arg (Printf.sprintf "Lock.acquire %s: not called from a task" lk.name)
      in
      (match lk.owner with
      | Some o when o == me ->
          invalid_arg (Printf.sprintf "Lock.acquire %s: recursive acquisition" lk.name)
      | _ -> ());
      while Option.is_some lk.owner do
        Monitor.wait lk.free
      done;
      lk.owner <- Some me;
      if Hb.enabled () then
        Hb.on_acquire ~task:(Engine.task_id me) ~key:lk.hb_key)

let release lk =
  Monitor.locked lk.mon (fun () ->
      (match (Engine.self_opt (), lk.owner) with
      | Some t, Some o when t == o -> ()
      | _ ->
          invalid_arg
            (Printf.sprintf "Lock.release %s: caller does not hold the lock" lk.name));
      (if Hb.enabled () then
         match Engine.self_opt () with
         | Some t -> Hb.on_release ~task:(Engine.task_id t) ~key:lk.hb_key
         | None -> ());
      lk.owner <- None;
      Monitor.signal lk.free)

let with_lock lk f =
  acquire lk;
  Fun.protect ~finally:(fun () -> release lk) f
