(* Mutual exclusion between simulated threads.  DOANY-parallelized loops use
   locks to guard critical sections around commutative operations; the
   [lock_op] cost plus queueing delay under contention is what makes
   fine-grained critical sections a measurable overhead (Section 7.4). *)

module Metrics = Parcae_obs.Metrics
module Hb = Parcae_obs.Hb

(* Per-lock metric handles, labeled by lock name; cached against the
   installed registry like the channel handles. *)
type lock_metrics = {
  lm_acquisitions : Metrics.counter;
  lm_contended : Metrics.counter;
  lm_wait : Metrics.summary;
}

type t = {
  name : string;
  hb_key : string;  (* ["lock:" ^ name], the sanitizer's sync key *)
  eng : Engine.t;
  mutable held_by : Engine.thread option;
  available : Engine.cond;
  op_cost : int;  (* resolved against the machine at creation *)
  mutable mx : (Metrics.t * lock_metrics) option;
}

(* The lock cost is resolved once, so an acquisition reads no machine. *)
let create eng name =
  {
    name;
    hb_key = "lock:" ^ name;
    eng;
    held_by = None;
    available = Engine.cond_create eng;
    op_cost = (Engine.machine eng).Machine.lock_op;
    mx = None;
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

(* Wait until [l] is free and take it for [me]; returns whether it had
   to wait.  Holding [me.self_opt] boxes nothing per acquisition. *)
let rec take l me waited =
  match l.held_by with
  | None ->
      l.held_by <- me.Engine.self_opt;
      waited
  | Some owner when owner == me -> invalid_arg (l.name ^ ": recursive acquire")
  | Some _ ->
      Engine.wait_on l.available;
      take l me true

let acquire l =
  Engine.compute_in l.eng l.op_cost;
  let me = Engine.self () in
  let t0 = if Metrics.enabled () then Engine.time l.eng else 0 in
  let waited = take l me false in
  (* Acquire the lock's release clock: the previous critical section
     happens-before this one. *)
  if Hb.enabled () then Hb.on_acquire ~task:me.Engine.tid ~key:l.hb_key;
  if Metrics.enabled () then begin
    let h = handles l in
    Metrics.inc h.lm_acquisitions;
    if waited then begin
      Metrics.inc h.lm_contended;
      Metrics.observe_summary h.lm_wait (Engine.time l.eng - t0)
    end
  end

let release l =
  let me = Engine.self () in
  (match l.held_by with
  | Some owner when owner == me -> ()
  | _ -> invalid_arg (l.name ^ ": release by non-owner"));
  if Hb.enabled () then Hb.on_release ~task:me.Engine.tid ~key:l.hb_key;
  l.held_by <- None;
  Engine.signal l.available

(* Run [f] with the lock held; always releases, even on exception. *)
let with_lock l f =
  acquire l;
  match f () with
  | v ->
      release l;
      v
  | exception e ->
      release l;
      raise e
