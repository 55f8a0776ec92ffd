(* Backend dispatch for the execution engine.

   Engines, threads, conditions and monitors are tagged sums over the
   simulator and the native backend; operations that receive one dispatch
   on the tag.  Ambient operations resolve their context through the
   backends' domain-local slots: the native worker slot first, which
   answers [None] on any non-pool domain, then the slot where the
   simulator's [run] records its engine.

   Monitors are the cross-backend mutual-exclusion primitive: on native
   they are real per-structure mutexes ({!Parcae_native.Engine.Monitor});
   on the simulator they are free — cooperative scheduling already makes
   code between blocking points atomic — so [locked] just runs the
   closure. *)

module Sim = Parcae_sim.Engine
module Machine = Parcae_sim.Machine
module Nat = Parcae_native.Engine

type t = S of Sim.t | N of Nat.t
type thread = St of Sim.thread | Nt of Nat.task
type cond = Sc of Sim.cond | Nc of Nat.Monitor.c
type monitor = Sm of Sim.t | Nm of Nat.Monitor.m

exception Thread_failure of string * exn

let create m = S (Sim.create m)
let create_native ?pool () = N (Nat.create ?pool ())
let is_native = function S _ -> false | N _ -> true
let sim_engine = function S e -> Some e | N _ -> None
let native_engine = function S _ -> None | N e -> Some e

(* The cost model a native engine reports: real cores, zero virtual
   costs (the real ones land in wall time), no power model. *)
let native_machine e =
  {
    Machine.name = Printf.sprintf "native-%dd" (Nat.pool_size e);
    cores = Nat.pool_size e;
    ghz = 0.0;
    time_slice = 0;
    ctx_switch = 0;
    chan_op = 0;
    lock_op = 0;
    hook = 0;
    idle_power = 0.0;
    core_power = 0.0;
  }

let machine = function S e -> Sim.machine e | N e -> native_machine e

let spawn t ~name body =
  match t with
  | S e -> St (Sim.spawn e ~name body)
  | N e -> Nt (Nat.spawn e ~name body)

let run ?until t =
  match t with
  | S e -> (
      try Sim.run ?until e
      with Sim.Thread_failure (name, exn) -> raise (Thread_failure (name, exn)))
  | N e -> (
      try Nat.run ?until e
      with Nat.Thread_failure (name, exn) -> raise (Thread_failure (name, exn)))

let shutdown = function S _ -> () | N e -> Nat.shutdown e

(* Ambient operations: native task context wins when present; otherwise
   the call must come from a simulated thread. *)
let compute n =
  match Nat.self_opt () with Some task -> Nat.compute task n | None -> Sim.compute n

let now () =
  match Nat.self_opt () with
  | Some task -> Nat.now (Nat.task_engine task)
  | None -> Sim.now ()

let yield () =
  match Nat.self_opt () with
  | Some task -> Nat.yield (Nat.task_engine task)
  | None -> Sim.yield ()

let sleep ns =
  match Nat.self_opt () with
  | Some task -> Nat.sleep (Nat.task_engine task) ns
  | None -> Sim.sleep ns

let sleep_until t =
  match Nat.self_opt () with
  | Some task -> Nat.sleep_until (Nat.task_engine task) t
  | None -> Sim.sleep_until t

let spawn_thread ~name body =
  match Nat.self_opt () with
  | Some task -> Nt (Nat.spawn (Nat.task_engine task) ~name body)
  | None -> St (Sim.spawn_thread ~name body)

(* Deferred cost accounting: on the simulator the cost accumulates on the
   calling thread and folds into a later burst (bounded skew); on native
   virtual costs are real spins, so charge immediately. *)
let charge eng n =
  match eng with
  | S e -> Sim.charge e n
  | N _ -> ( match Nat.self_opt () with Some task -> Nat.compute task n | None -> ())

(* Engine-aware compute: on the simulator the burst suspends through a
   constant effect, or finishes in place when its end would be the next
   event; on native it is the usual spin. *)
let compute_in eng n =
  match eng with
  | S e -> Sim.compute_in e n
  | N _ -> ( match Nat.self_opt () with Some task -> Nat.compute task n | None -> ())

(* Busy time of the calling context, read from the engine's current
   turn. *)
let busy_ns_in eng =
  match eng with
  | S e -> Sim.current_busy e
  | N _ -> ( match Nat.self_opt () with Some task -> Nat.task_busy_ns task | None -> 0)

(* The timeline lane of the calling context: the worker domain index on
   native; on sim the core the thread holds, else the one it last held.
   Unlike the other ambient ops this is safe to call from anywhere and
   answers [None] outside an engine thread. *)
let current_lane () =
  match Nat.worker_id_opt () with Some _ as lane -> lane | None -> Sim.core_opt ()

(* The engine task id of the calling context, for the race sanitizer's
   per-task vector clocks and the lock's holder.  Like [current_lane] this
   is safe to call from anywhere; it answers -1 on a plain (non-engine)
   thread, so it allocates nothing. *)
let current_task_id () =
  match Nat.self_opt () with
  | Some task -> Nat.task_id task
  | None -> ( match Sim.self_opt () with Some th -> th.Sim.tid | None -> -1)

let monitor_create = function S e -> Sm e | N _ -> Nm (Nat.Monitor.create ())
let locked m f = match m with Sm _ -> f () | Nm m -> Nat.Monitor.locked m f

let cond_in = function
  | Sm e -> Sc (Sim.cond_create e)
  | Nm m -> Nc (Nat.Monitor.cond m)

(* A native wait acquires the condition's monitor when the caller does
   not already hold it; callers with check-then-wait protocols should
   hold it across the check ([locked] around predicate + [wait_on]). *)
let wait_on = function
  | Sc c -> Sim.wait_on c
  | Nc c ->
      let m = Nat.Monitor.monitor_of c in
      if Nat.Monitor.held m then Nat.Monitor.wait c
      else Nat.Monitor.locked m (fun () -> Nat.Monitor.wait c)

let signal = function Sc c -> Sim.signal c | Nc c -> Nat.Monitor.signal c
let broadcast = function Sc c -> Sim.broadcast c | Nc c -> Nat.Monitor.broadcast c

let join th =
  let joined_tid = match th with St th -> th.Sim.tid | Nt task -> Nat.task_id task in
  (match th with St th -> Sim.join th | Nt task -> Nat.join task);
  (* Joining a finished task acquires its completion clock: everything the
     joined task did happens-before the joiner from here on. *)
  if Parcae_obs.Hb.enabled () then
    let me = current_task_id () in
    if me >= 0 then Parcae_obs.Hb.on_join ~task:me ~joined:joined_tid

let time = function S e -> Sim.time e | N e -> Nat.time e
let online_cores = function S e -> Sim.online_cores e | N e -> Nat.online_cores e
let live_threads = function S e -> Sim.live_threads e | N e -> Nat.live_threads e
let spawned_threads = function S e -> Sim.spawned_threads e | N e -> Nat.spawned_threads e
let instant_power = function S e -> Sim.instant_power e | N e -> Nat.instant_power e
let energy_joules = function S e -> Sim.energy_joules e | N e -> Nat.energy_joules e

let set_online_cores t n =
  match t with S e -> Sim.set_online_cores e n | N e -> Nat.set_online_cores e n

let hook_cost = function S e -> (Sim.machine e).Machine.hook | N _ -> 0

let seconds_of_ns = Sim.seconds_of_ns
