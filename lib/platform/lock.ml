(* Mutual exclusion over the platform monitor, for both backends (see
   the .mli).  On the simulator the calls come in a fixed order: the
   [lock_op] burst, the wait loop, the holder, the Hb acquire; on release
   the Hb release, the cleared holder, then one waiter signalled, not
   all, which would change the simulator's schedules. *)

module Metrics = Parcae_obs.Metrics
module Hb = Parcae_obs.Hb
module Observed = Parcae_obs.Observed

(* Per-lock metric handles, labelled by lock name; cached against the
   installed registry like the channel handles.  They are bound and
   updated while the lock is held, so a lock's own acquisitions count
   exactly on native too. *)
type lock_metrics = {
  lm_acquisitions : Metrics.counter;
  lm_contended : Metrics.counter;
  lm_wait : Metrics.summary;
}

type t = {
  name : string;
  hb_key : string;  (* ["lock:" ^ name], the sanitizer's sync key *)
  eng : Engine.t;
  op_cost : int;  (* resolved against the machine at creation *)
  mon : Engine.monitor;
  free : Engine.cond;
  mutable holder : int;  (* the holder's task id, -1 when free; guarded by [mon] *)
  mutable mx : (Metrics.t * lock_metrics) option;
  (* The two critical sections, built once at creation so an uncontended
     acquisition allocates nothing on the simulator. *)
  take : unit -> bool;  (* acquire's: whether it waited *)
  give : unit -> unit;  (* release's *)
}

let handles l =
  let reg = Metrics.current () in
  match l.mx with
  | Some (r, h) when r == reg -> h
  | _ ->
      let labels = [ ("lock", l.name) ] in
      let h =
        {
          lm_acquisitions =
            Metrics.counter reg "parcae_lock_acquisitions_total" ~labels
              ~help:"Successful lock acquisitions, per lock.";
          lm_contended =
            Metrics.counter reg "parcae_lock_contended_total" ~labels
              ~help:"Acquisitions that had to wait, per lock.";
          lm_wait =
            Metrics.summary reg "parcae_lock_wait_ns" ~labels
              ~help:"Virtual time spent waiting for contended acquisitions.";
        }
      in
      l.mx <- Some (reg, h);
      h

(* Wait until [l] is free and take it for the calling task.  The Hb
   acquire takes the lock's release clock: the previous critical section
   happens-before this one. *)
let take l =
  let me = Engine.current_task_id () in
  if me < 0 then invalid_arg (l.name ^ ": acquire outside a task");
  if l.holder = me then invalid_arg (l.name ^ ": recursive acquire");
  let waited = l.holder >= 0 in
  while l.holder >= 0 do
    Engine.wait_on l.free
  done;
  l.holder <- me;
  if Atomic.get Observed.word land Observed.hb <> 0 then Hb.on_acquire ~task:me ~key:l.hb_key;
  waited

let give l =
  let me = Engine.current_task_id () in
  if me < 0 || l.holder <> me then invalid_arg (l.name ^ ": release by non-owner");
  if Atomic.get Observed.word land Observed.hb <> 0 then Hb.on_release ~task:me ~key:l.hb_key;
  l.holder <- -1;
  Engine.signal l.free

let create eng name =
  let mon = Engine.monitor_create eng in
  let free = Engine.cond_in mon in
  let op_cost = (Engine.machine eng).Parcae_sim.Machine.lock_op in
  let rec l =
    {
      name;
      hb_key = "lock:" ^ name;
      eng;
      op_cost;
      mon;
      free;
      holder = -1;
      mx = None;
      take = (fun () -> take l);
      give = (fun () -> give l);
    }
  in
  l

let acquire l =
  Engine.compute_in l.eng l.op_cost;
  let t0 = if Atomic.get Observed.word land Observed.metrics <> 0 then Engine.time l.eng else 0 in
  let waited = Engine.locked l.mon l.take in
  if Atomic.get Observed.word land Observed.metrics <> 0 then begin
    let h = handles l in
    Metrics.inc h.lm_acquisitions;
    if waited then begin
      Metrics.inc h.lm_contended;
      Metrics.observe_summary h.lm_wait (Engine.time l.eng - t0)
    end
  end

let release l = Engine.locked l.mon l.give

let with_lock l f =
  acquire l;
  match f () with
  | v ->
      release l;
      v
  | exception e ->
      release l;
      raise e
