(* Flexible code generation and execution (Sections 4.5-4.6).

   This module lowers a compiled loop onto the Parcae runtime: it builds
   the SEQ / DOANY / DOACROSS / PS-DSWP versions of the region as Parcae
   API tasks and executes the IR instructions against shared simulated
   state.  Each version is one [scheme] value: its descriptor, the state
   only it uses, and the hooks the full-pause and barrier-less
   reconfigurations run.  The machinery the paper describes is
   implemented directly:

   - every task yields to the runtime after each iteration (the worker
     loop of Algorithm 2 lives in [Parcae_runtime.Executor]);
   - cross-iteration register state of sequential tasks is saved to /
     restored from a heap table around pauses; with the Section 7.1
     optimization off, the save/restore cost is paid on every iteration;
   - parallel tasks keep no local cross-iteration state: reductions are
     privatized and merged at pause (Section 7.4), or updated under a lock
     per iteration when that optimization is off;
   - PS-DSWP stages communicate over point-to-point channels with
     round-robin iteration arbitration: iteration i of an epoch that began
     at iteration B flows through lane (i - B) mod p of each parallel
     stage, and a DoP change starts a new epoch so the channel selection
     stays deterministic (the protocol of Section 7.2);
   - pause and exit signals propagate down the pipeline as tokens in the
     same channels as data (Section 4.6), so a stage parks only after every
     in-flight iteration reaching it has been processed. *)

open Parcae_ir
open Parcae_pdg
module Engine = Parcae_platform.Engine
module Chan = Parcae_platform.Chan
module Lock = Parcae_platform.Lock
module Config = Parcae_core.Config
module Task = Parcae_core.Task
module Task_status = Parcae_core.Task_status
module Hb = Parcae_obs.Hb
module Lane_name = Parcae_util.Lane_name

type flags = {
  hoist_state : bool;  (* Section 7.1: hoist phi save/restore out of the loop *)
  privatize_reductions : bool;  (* Section 7.4: privatize-and-merge *)
}

let default_flags = { hoist_state = true; privatize_reductions = true }

(* Cost of one heap save or restore, in ns. *)
let heap_op_ns = 40

(* Identity element of an associative-commutative reduction operator. *)
let identity = function
  | Instr.Add | Instr.Xor | Instr.Or -> 0
  | Instr.Mul -> 1
  | Instr.Min -> max_int
  | Instr.Max -> min_int
  | Instr.And -> -1
  | _ -> invalid_arg "Flex.identity: not a reduction operator"

(* Message exchanged between pipeline stages: one bundle of register values
   per iteration, or a control token.  [Reconf id] is the in-band epoch
   announcement of Section 7.2.2: it sits in each channel's FIFO exactly
   between the last old-epoch item and the first new-epoch item, so a
   consumer that pre-committed to the old channel mapping is woken and
   re-routed without any barrier. *)
type msg = Go of int array | Stop_pause | Stop_exit | Reconf of int

(* Per-worker-lane activation state ("registers and stack" of the task). *)
type lane_state = {
  mutable ls_epoch : int;  (* which epoch this state was initialized for *)
  mutable cursor : int;  (* next iteration this lane will execute *)
  phis : int array;  (* live cross-iteration values, by phi register *)
  privates : int array;  (* privatized reduction accumulators, by reduction *)
  mutable private_reds : int array;  (* the reductions [privates] holds *)
  env : int array;  (* per-iteration register file *)
  mutable pending : int;  (* accumulated compute cost not yet charged *)
}

(* One loop node, decoded once by [create]: array names are resolved to
   the working arrays and a reduction's combine to its accumulator, so an
   iteration looks nothing up.  [cost] is the node's dispatch cost
   ([Instr.base_cost]). *)
type op =
  | Phi  (* its value is already in the register file *)
  | Arith of { cost : int; dst : Instr.reg; op : Instr.binop; a : Instr.operand; b : Instr.operand }
  | Combine of {
      cost : int;
      dst : Instr.reg;
      op : Instr.binop;
      a : Instr.operand;
      b : Instr.operand;
      red : int;  (* index into [code.reds]; [op] is its operator *)
      phi : Instr.reg;  (* the accumulator *)
      x : Instr.operand;  (* the operand that is not the accumulator *)
    }
  | Load of { cost : int; dst : Instr.reg; name : string; arr : int array; idx : Instr.operand }
  | Store of { cost : int; name : string; arr : int array; idx : Instr.operand; v : Instr.operand }
  | Work of { cost : int; amount : Instr.operand }
  | Call of { cost : int; dst : Instr.reg option; fn : string; arg : Instr.operand }
  | Break_if of { cost : int; cond : Instr.operand }

type code = {
  ops : op array;  (* indexed by node id *)
  carry_of : int array;  (* per phi register, the register it carries *)
  reds : Pdg.reduction array;
  inductions : Alias.induction_info array;
}

type t = {
  loop : Loop.t;
  pdg : Pdg.t;
  eng : Engine.t;
  flags : flags;
  nodes : Loop.node array;
  code : code;
  arrays : (string * int array) list;
  ext : Externals.t;
  ext_lock : Lock.t;  (* the global commutative-call critical section *)
  red_lock : Lock.t;  (* guards reduction merges / unprivatized updates *)
  phi_heap : int array;  (* Section 4.5.2's heap state, by phi register *)
  trip_n : int option;
  iter_mon : Engine.monitor;
      (* guards the updates parallel lanes make to [next_iter] (DOANY's
         claim, DOACROSS's advance): free on the sim, where cooperative
         scheduling already makes them atomic, and a mutex on native,
         where lanes run on distinct domains *)
  mutable next_iter : int;  (* contiguous prefix of executed iterations *)
  mutable exited : bool;  (* a Break_if fired *)
  mutable epoch : int;  (* full-pause epochs started ([new_epoch]) *)
  mutable epoch_base : int;  (* iteration number at current epoch start *)
  max_reg : int;
}

(* One version of the region.  [enter dops] runs before workers start
   under a configuration that picks this scheme, [reset] at every full
   pause, and [resize] applies a barrier-less DoP change (Section 7.2),
   returning the (task, lane) workers to spawn; [None] where the scheme
   changes DoP only through the full pause. *)
type scheme = {
  pd : Task.par_descriptor;
  enter : int array -> unit;
  reset : unit -> unit;
  resize : (int array -> (int * int) list) option;
}

(* The index of the first reduction satisfying [p]. *)
let find_red reds p =
  let rec go k = if k = Array.length reds then None else if p reds.(k) then Some k else go (k + 1) in
  go 0

(* Decode node [id] against the working arrays and the reductions. *)
let decode ~arrays ~reds id = function
  | Loop.Phi_node _ -> Phi
  | Loop.Instr_node instr -> (
      let cost = Instr.base_cost instr in
      match instr with
      | Instr.Binop { dst; op; a; b } -> (
          match find_red reds (fun red -> red.Pdg.red_combine = id) with
          | None -> Arith { cost; dst; op; a; b }
          | Some red ->
              let phi = reds.(red).Pdg.red_phi in
              Combine { cost; dst; op; a; b; red; phi; x = (if a = Instr.Reg phi then b else a) })
      | Instr.Load { dst; arr; idx } -> Load { cost; dst; name = arr; arr = List.assoc arr arrays; idx }
      | Instr.Store { arr; idx; v } -> Store { cost; name = arr; arr = List.assoc arr arrays; idx; v }
      | Instr.Work { amount } -> Work { cost; amount }
      | Instr.Call { dst; fn; arg; _ } -> Call { cost; dst; fn; arg }
      | Instr.Break_if { cond } -> Break_if { cost; cond })

let create ?(flags = default_flags) eng (pdg : Pdg.t) =
  let loop = pdg.Pdg.loop in
  let nodes = Loop.nodes loop in
  let max_reg =
    let m = ref 0 in
    Array.iter
      (fun n ->
        (match Loop.node_defs n with Some r -> m := Int.max !m r | None -> ());
        List.iter (fun r -> m := Int.max !m r) (Loop.node_uses n))
      nodes;
    List.iter
      (fun (p : Instr.phi) -> m := Int.max !m (Int.max p.Instr.pdst p.Instr.carry))
      loop.Loop.phis;
    !m
  in
  let phi_heap = Array.make (max_reg + 1) 0 and carry_of = Array.make (max_reg + 1) 0 in
  List.iter
    (fun (p : Instr.phi) ->
      carry_of.(p.Instr.pdst) <- p.Instr.carry;
      match p.Instr.init with
      | Instr.Const c -> phi_heap.(p.Instr.pdst) <- c
      | Instr.Reg _ -> invalid_arg "Flex.create: phi init must be a constant")
    loop.Loop.phis;
  let arrays = Loop.working_arrays loop in
  let reds = Array.of_list pdg.Pdg.reductions in
  {
    loop;
    pdg;
    eng;
    flags;
    nodes;
    code =
      {
        ops = Array.mapi (decode ~arrays ~reds) nodes;
        carry_of;
        reds;
        inductions = Array.of_list pdg.Pdg.inductions;
      };
    arrays;
    ext = Externals.create ();
    ext_lock = Lock.create eng "ext";
    red_lock = Lock.create eng "reduction";
    phi_heap;
    trip_n = (match loop.Loop.trip with Loop.Count n -> Some n | Loop.While -> None);
    iter_mon = Engine.monitor_create eng;
    next_iter = 0;
    exited = false;
    epoch = 0;
    epoch_base = 0;
    max_reg;
  }

(* A full pause starts a new epoch: every lane re-initializes its state
   from the heap, and the new configuration numbers its iterations from
   the executed prefix. *)
let new_epoch rs =
  rs.epoch <- rs.epoch + 1;
  rs.epoch_base <- rs.next_iter

let is_reduction_phi rs r = List.exists (fun red -> red.Pdg.red_phi = r) rs.pdg.Pdg.reductions

(* Every node id, ascending: the members of an unpartitioned body. *)
let all_nodes rs = Array.init (Array.length rs.nodes) Fun.id

(* Indices of every reduction of the region. *)
let all_reds rs = Array.init (Array.length rs.code.reds) Fun.id

(* ------------------------------------------------------------------ *)
(* Lane states.                                                        *)
(* ------------------------------------------------------------------ *)

let make_lane_state rs =
  {
    ls_epoch = -1;
    cursor = 0;
    phis = Array.make (rs.max_reg + 1) 0;
    privates = Array.make (Array.length rs.code.reds) 0;
    private_reds = [||];
    env = Array.make (rs.max_reg + 1) 0;
    pending = 0;
  }

(* Charge a heap access cost (state save/restore, Section 7.1). *)
let charge_heap st n = st.pending <- st.pending + (n * heap_op_ns)

let flush rs st =
  if st.pending > 0 then begin
    Engine.compute_in rs.eng st.pending;
    st.pending <- 0
  end

(* Load this lane's cross-iteration state from the heap (Tinit). *)
let restore_phis rs st ~owned =
  Array.iter (fun r -> st.phis.(r) <- rs.phi_heap.(r)) owned;
  charge_heap st (Array.length owned)

(* Write it back (on pause or completion). *)
let save_phis rs st ~owned =
  Array.iter (fun r -> rs.phi_heap.(r) <- st.phis.(r)) owned;
  charge_heap st (Array.length owned)

let reset_privates rs st ~reds =
  st.private_reds <- reds;
  Array.iter (fun k -> st.privates.(k) <- identity rs.code.reds.(k).Pdg.red_op) reds

(* Merge privatized reductions into the global heap value. *)
let merge_privates rs st =
  if Array.length st.private_reds > 0 then begin
    flush rs st;
    Lock.with_lock rs.red_lock (fun () ->
        Array.iter
          (fun k ->
            let { Pdg.red_phi = r; red_op; _ } = rs.code.reds.(k) in
            rs.phi_heap.(r) <- Instr.eval_binop red_op rs.phi_heap.(r) st.privates.(k);
            st.privates.(k) <- identity red_op)
          st.private_reds)
  end

(* Induction values follow the executed prefix: publish them to the heap
   at a park. *)
let publish_inductions rs =
  Array.iter
    (fun ii ->
      rs.phi_heap.(ii.Alias.ind_phi) <- ii.Alias.ind_from + (rs.next_iter * ii.Alias.ind_step))
    rs.code.inductions

(* Induction variables are recomputed from the iteration number (their
   carried dependence is relaxed). *)
let set_inductions rs st i =
  let inds = rs.code.inductions in
  for k = 0 to Array.length inds - 1 do
    let ii = inds.(k) in
    st.env.(ii.Alias.ind_phi) <- ii.Alias.ind_from + (i * ii.Alias.ind_step)
  done

(* ------------------------------------------------------------------ *)
(* Instruction execution.                                              *)
(* ------------------------------------------------------------------ *)

type red_mode =
  | Plain  (* reductions are ordinary phis (sequential execution) *)
  | Private  (* privatized accumulators, merged at park (Section 7.4) *)
  | Locked  (* read-modify-write of the global value under a lock *)

let operand env = function Instr.Const c -> c | Instr.Reg r -> env.(r)

(* The address of a load or store, bounds-checked, reported to the
   installed race sanitizer (tagged with the IR node) when [hb_task] is a
   task id (it is -1 when no sanitizer is installed). *)
let address rs env hb_task ~write ~name arr idx id =
  let i = operand env idx in
  if i < 0 || i >= Array.length arr then
    invalid_arg (rs.loop.Loop.name ^ if write then ": store out of bounds" else ": load out of bounds");
  if hb_task >= 0 then Hb.on_access ~task:hb_task ~arr:name ~idx:i ~node:id ~write;
  i

(* Execute [members.(k..)] (node ids, ascending) for one iteration.  A
   top-level function, not a local closure, so a call allocates
   nothing. *)
let rec exec_from rs st mode hb_task members k =
  if k = Array.length members then `Ok
  else
    let id = members.(k) and env = st.env in
    match rs.code.ops.(id) with
    | Phi -> exec_from rs st mode hb_task members (k + 1)
    | Arith { cost; dst; op; a; b } ->
        st.pending <- st.pending + cost;
        env.(dst) <- Instr.eval_binop op (operand env a) (operand env b);
        exec_from rs st mode hb_task members (k + 1)
    | Combine { cost; dst; op; a; b; red; phi; x } ->
        st.pending <- st.pending + cost;
        (match mode with
        | Plain -> env.(dst) <- Instr.eval_binop op (operand env a) (operand env b)
        | Private ->
            (* acc' = acc `op` x on the private accumulator. *)
            let acc = Instr.eval_binop op st.privates.(red) (operand env x) in
            st.privates.(red) <- acc;
            env.(dst) <- acc
        | Locked ->
            let x = operand env x in
            flush rs st;
            Lock.with_lock rs.red_lock (fun () ->
                (* The shared accumulator's cache line bounces between
                   cores: the read-modify-write holds the lock for two
                   heap accesses (Section 7.4's per-iteration critical
                   section). *)
                Engine.compute_in rs.eng (2 * heap_op_ns);
                let v = Instr.eval_binop op rs.phi_heap.(phi) x in
                rs.phi_heap.(phi) <- v;
                env.(dst) <- v));
        exec_from rs st mode hb_task members (k + 1)
    | Load { cost; dst; name; arr; idx } ->
        st.pending <- st.pending + cost;
        env.(dst) <- arr.(address rs env hb_task ~write:false ~name arr idx id);
        exec_from rs st mode hb_task members (k + 1)
    | Store { cost; name; arr; idx; v } ->
        st.pending <- st.pending + cost;
        arr.(address rs env hb_task ~write:true ~name arr idx id) <- operand env v;
        exec_from rs st mode hb_task members (k + 1)
    | Work { cost; amount } ->
        st.pending <- st.pending + cost + Int.max 0 (operand env amount);
        exec_from rs st mode hb_task members (k + 1)
    | Call { cost; dst; fn; arg } ->
        let x = operand env arg in
        (* Don't fold the call's cost into the pending buffer: it is spent
           *inside* the global critical section — the paper's global
           locking discipline makes commutative calls a serialization
           point. *)
        flush rs st;
        let v =
          Lock.with_lock rs.ext_lock (fun () ->
              Engine.compute_in rs.eng cost;
              Externals.call rs.ext fn x)
        in
        (match dst with Some d -> env.(d) <- v | None -> ());
        exec_from rs st mode hb_task members (k + 1)
    | Break_if { cost; cond } ->
        st.pending <- st.pending + cost;
        if operand env cond <> 0 then `Break else exec_from rs st mode hb_task members (k + 1)

(* Execute the body nodes among [members] for one iteration.  phi nodes
   are skipped (their values are in [st.env]).  The sanitizer's task id is
   resolved once per iteration: an ambient lookup per access would fire a
   sim effect on every load/store. *)
let exec_members rs st ~mode members =
  let hb_task = if Hb.enabled () then Engine.current_task_id () else -1 in
  exec_from rs st mode hb_task members 0

(* Set up env phi values for an iteration from the lane's local state. *)
let load_phi_env st ~owned =
  for k = 0 to Array.length owned - 1 do
    let r = owned.(k) in
    st.env.(r) <- st.phis.(r)
  done

(* Advance local phis to their carried values after an iteration. *)
let advance_phis rs st ~owned =
  for k = 0 to Array.length owned - 1 do
    let r = owned.(k) in
    st.phis.(r) <- st.env.(rs.code.carry_of.(r))
  done;
  (* With the Section 7.1 optimization off, the state crosses the heap on
     every iteration: one store and one load per phi. *)
  if not rs.flags.hoist_state then charge_heap st (2 * Array.length owned)

(* Copy the registers [regs] of [env] into a fresh message payload, and
   back. *)
let gather env regs =
  let n = Array.length regs in
  if n = 0 then [||]
  else begin
    let vals = Array.make n 0 in
    for k = 0 to n - 1 do
      vals.(k) <- env.(regs.(k))
    done;
    vals
  end

let scatter env regs vals =
  for k = 0 to Array.length regs - 1 do
    env.(regs.(k)) <- vals.(k)
  done

(* What a receive returns when every bundle arrived. *)
let got = Go [||]

(* The status a lane parks with on a stop token. *)
let parked_by = function Stop_pause -> Task_status.Paused | _ -> Task_status.Complete

(* ------------------------------------------------------------------ *)
(* Scheme: SEQ.                                                        *)
(* ------------------------------------------------------------------ *)

let seq rs =
  let st = make_lane_state rs in
  let owned = Array.of_list (List.map (fun (p : Instr.phi) -> p.Instr.pdst) rs.loop.Loop.phis) in
  let members = all_nodes rs in
  let park () =
    save_phis rs st ~owned;
    flush rs st;
    st.ls_epoch <- -1
  in
  let task =
    Task.sequential ~name:"seq" (fun ctx ->
      if st.ls_epoch <> rs.epoch then begin
        st.ls_epoch <- rs.epoch;
        restore_phis rs st ~owned
      end;
      if ctx.Task.get_status () = Task_status.Paused then begin
        park ();
        Task_status.Paused
      end
      else if rs.exited || (match rs.trip_n with Some n -> rs.next_iter >= n | None -> false)
      then begin
        park ();
        Task_status.Complete
      end
      else begin
        load_phi_env st ~owned;
        match exec_members rs st ~mode:Plain members with
        | `Break ->
            rs.exited <- true;
            flush rs st;
            park ();
            Task_status.Complete
        | `Ok ->
            advance_phis rs st ~owned;
            rs.next_iter <- rs.next_iter + 1;
            flush rs st;
            Task_status.Iterating
      end)
  in
  { pd = Task.descriptor ~name:"SEQ" [ task ]; enter = ignore; reset = ignore; resize = None }

(* ------------------------------------------------------------------ *)
(* Scheme: DOANY.                                                      *)
(* ------------------------------------------------------------------ *)

let doany rs ~max_lanes =
  let states = Array.init max_lanes (fun _ -> make_lane_state rs) in
  (* Which lanes currently have a live worker: a light grow must not spawn
     a duplicate for a lane whose previous worker has not exited yet. *)
  let present = Array.make max_lanes false in
  (* The current DoP: lanes at or above it retire. *)
  let dop = ref max_int in
  let reds = all_reds rs and members = all_nodes rs in
  let mode = if rs.flags.privatize_reductions then Private else Locked in
  (* Claim the next iteration, or -1 when none is left.  Run under the
     iteration monitor: an unguarded read-increment would let two native
     lanes execute (and race on) the same iteration.  Built once, so a
     claim allocates nothing. *)
  let claim () =
    let n = match rs.trip_n with Some n -> n | None -> assert false in
    let i = rs.next_iter in
    if i < n then begin
      rs.next_iter <- i + 1;
      i
    end
    else -1
  in
  (* Publish the induction values implied by the claimed prefix.  Run under
     the iteration monitor too: a lane that read [next_iter] outside it
     could be overtaken by one that claims, executes and parks, and then
     overwrite that lane's later prefix with its own stale one, which the
     next SEQ epoch would restore.  The window is native-only (the monitor
     is free on the simulator), and no test can force it until an
     interleaving checker exists. *)
  let publish () = publish_inductions rs in
  let park st ~lane =
    present.(lane) <- false;
    merge_privates rs st;
    Engine.locked rs.iter_mon publish;
    flush rs st;
    st.ls_epoch <- -1
  in
  let task =
    Task.parallel ~name:"doany" (fun ctx ->
      let lane = ctx.Task.lane in
      let st = states.(lane) in
      if st.ls_epoch <> rs.epoch then begin
        st.ls_epoch <- rs.epoch;
        reset_privates rs st ~reds
      end;
      if lane >= !dop then begin
        (* A barrier-less shrink (Section 7.2) removed this lane: merge its
           private state (effectful — a concurrent resize may re-add the
           lane meanwhile), then decide for good. *)
        merge_privates rs st;
        flush rs st;
        if lane >= !dop then begin
          present.(lane) <- false;
          st.ls_epoch <- -1;
          Task_status.Complete
        end
        else begin
          reset_privates rs st ~reds;
          Task_status.Iterating
        end
      end
      else if ctx.Task.get_status () = Task_status.Paused then begin
        park st ~lane;
        Task_status.Paused
      end
      else begin
        let i = Engine.locked rs.iter_mon claim in
        if i < 0 then begin
          park st ~lane;
          Task_status.Complete
        end
        else begin
          set_inductions rs st i;
          match exec_members rs st ~mode members with
          | `Break -> assert false (* DOANY never applies to While loops *)
          | `Ok ->
              flush rs st;
              Task_status.Iterating
        end
      end)
  in
  {
    pd = Task.descriptor ~name:"DOANY" [ task ];
    (* The executor starts exactly the lanes below the DoP. *)
    enter =
      (fun dops ->
        dop := dops.(0);
        Array.iteri (fun lane _ -> present.(lane) <- lane < dops.(0)) present);
    reset = ignore;
    (* Move the retirement threshold and report which lanes need fresh
       workers. *)
    resize =
      Some
        (fun dops ->
          dop := dops.(0);
          let spawns = ref [] in
          for lane = 0 to dops.(0) - 1 do
            if not present.(lane) then begin
              present.(lane) <- true;
              spawns := (0, lane) :: !spawns
            end
          done;
          !spawns);
  }

(* ------------------------------------------------------------------ *)
(* Scheme: PS-DSWP.                                                    *)
(* ------------------------------------------------------------------ *)

(* Per-stage bookkeeping computed once from the MTCG pipeline. *)
type stage_info = {
  si : int;
  members : int array;
  par : bool;
  owned_phis : Instr.reg array;  (* non-reduction phis whose node is here *)
  owned_reds : int array;  (* indices of the privatized reductions *)
  in_edges : int list;
  out_edges : int list;
}

(* The PS-DSWP version: one task per pipeline stage.  It resizes without a
   barrier when every parallel stage communicates only with sequential
   stages (the alternating networks of the paper's Figure 7.7).

   Channel arbitration follows the paper's Section 7.2 protocol: all
   round-robin decisions are made by the *sequential* stages from a shared
   epoch table; parallel-stage lanes simply drain their own dedicated
   channels in FIFO order.  On a light resize the master stamps a new
   epoch (start iteration I = its current cursor) and every sequential
   stage emits an in-band [Reconf] token into the old-epoch lanes' channels
   just before its first post-I send, so each consumer observes the
   boundary at exactly the right position in each FIFO — the ordering
   hazard of Figure 7.5 cannot occur, and no stage ever stops. *)
let psdswp rs (pipe : Mtcg.pipeline) ~max_lanes =
  let nstages = Array.length pipe.Mtcg.stages in
  (* The epoch table: (start iteration, per-stage DoPs, id), newest
     first. *)
  let epochs = ref [ (0, Array.make nstages 1, 0) ] in
  (* The DoP vector of a requested light resize, stamped by the master. *)
  let pending = ref None in
  (* Channel matrix per edge: producer lane x consumer lane, named
     "e<edge>.<a>.<b>" from one prefix per row. *)
  let chans =
    Array.mapi
      (fun ei _ ->
        let edge = Lane_name.append "e" ei ^ "." in
        Array.init max_lanes (fun a ->
            let row = Lane_name.append edge a ^ "." in
            Array.init max_lanes (fun b ->
                Chan.create ~capacity:8 rs.eng (Lane_name.append row b))))
      pipe.Mtcg.edges
  in
  let infos =
    Array.mapi
      (fun si (s : Psdswp.stage) ->
        (* A sequential stage keeps all its phis (reductions included) as
           ordinary local state; a parallel stage must privatize its
           reduction phis and can own no other phi (a hard phi cycle makes
           its SCC sequential). *)
        let stage_phis =
          List.filter_map
            (fun id ->
              match rs.nodes.(id) with Loop.Phi_node p -> Some p.Instr.pdst | _ -> None)
            s.Psdswp.members
        in
        let owned_phis =
          if s.Psdswp.par then
            List.filter (fun r -> not (is_reduction_phi rs r)) stage_phis
          else stage_phis
        in
        let owned_reds =
          if s.Psdswp.par then
            List.filter_map
              (fun r -> find_red rs.code.reds (fun red -> red.Pdg.red_phi = r))
              stage_phis
          else []
        in
        {
          si;
          members = Array.of_list s.Psdswp.members;
          par = s.Psdswp.par;
          owned_phis = Array.of_list owned_phis;
          owned_reds = Array.of_list owned_reds;
          in_edges = pipe.Mtcg.in_edges.(si);
          out_edges = pipe.Mtcg.out_edges.(si);
        })
      pipe.Mtcg.stages
  in
  let seq_stage si = not pipe.Mtcg.stages.(si).Psdswp.par in
  let alternating =
    Array.for_all
      (fun (e : Mtcg.edge) -> seq_stage e.Mtcg.e_from || seq_stage e.Mtcg.e_to)
      pipe.Mtcg.edges
  in
  let edge_regs = Array.map (fun (e : Mtcg.edge) -> Array.of_list e.Mtcg.e_regs) pipe.Mtcg.edges in
  (* Epoch lookup (Section 7.2): by the time any stage handles iteration i,
     the master has stamped i's epoch, so the shared table is
     authoritative.  The newest epoch starting at or before i; the oldest
     one if none does. *)
  let rec epoch_in i = function
    | [ e ] -> e
    | ((b, _, _) as e) :: older -> if i >= b then e else epoch_in i older
    | [] -> invalid_arg "Flex: empty epoch table"
  in
  let epoch_of i = epoch_in i !epochs in
  let epoch_by_id id = List.find_opt (fun (_, _, eid) -> eid = id) !epochs in
  let head_epoch () = List.hd !epochs in
  (* The lane at the other end of edge [ei] for iteration [i]: 0 when that
     end is a sequential stage, whatever [i]. *)
  let consumer_lane ei i =
    let e = pipe.Mtcg.edges.(ei) in
    if seq_stage e.Mtcg.e_to then 0
    else begin
      let b, d, _ = epoch_of i in
      (i - b) mod d.(e.Mtcg.e_to)
    end
  in
  let producer_lane ei i =
    let e = pipe.Mtcg.edges.(ei) in
    if seq_stage e.Mtcg.e_from then 0
    else begin
      let b, d, _ = epoch_of i in
      (i - b) mod d.(e.Mtcg.e_from)
    end
  in
  (* Emit the in-band epoch announcements into the channels of the lanes of
     the epoch being left behind (one per epoch crossed). *)
  let emit_reconf info ~lane ~from_id ~to_id =
    for eid = from_id to to_id - 1 do
      match epoch_by_id eid with
      | None -> ()
      | Some (_, old_dops, _) ->
          List.iter
            (fun ei ->
              let e = pipe.Mtcg.edges.(ei) in
              let lanes = if seq_stage e.Mtcg.e_to then 1 else old_dops.(e.Mtcg.e_to) in
              for b = 0 to lanes - 1 do
                Chan.force_send chans.(ei).(lane).(b) (Reconf (eid + 1))
              done)
            info.out_edges
    done
  in
  (* Which lanes currently have a live worker, per stage. *)
  let present = Array.make_matrix nstages max_lanes false in
  let make_stage_task info =
    let states = Array.init max_lanes (fun _ -> make_lane_state rs) in
    (* Highest epoch id this (sequential) stage has announced downstream. *)
    let sent_epoch = ref 0 in
    (* Highest epoch id each (parallel) lane has forwarded downstream. *)
    let forwarded = Array.make max_lanes 0 in
    let mode =
      if not info.par then Plain
      else if rs.flags.privatize_reductions then Private
      else Locked
    in
    (* Whether some epoch at or after [id] — or a resize not yet stamped —
       still needs parallel [lane].  A lane excluded by epoch k but re-added
       by epoch k+1 must keep running: its channel continues directly with
       the newer epoch's data (no intermediate token is addressed to it). *)
    let needed_from lane id =
      (match !pending with Some d -> lane < d.(info.si) | None -> false)
      || List.exists (fun (_, d, eid) -> eid >= id && lane < d.(info.si)) !epochs
    in
    (* Pass epoch [id]'s announcement on downstream, once. *)
    let forward_token lane id =
      if id > forwarded.(lane) then begin
        List.iter (fun ei -> Chan.force_send chans.(ei).(lane).(0) (Reconf id)) info.out_edges;
        forwarded.(lane) <- id
      end
    in
    (* Receive iteration [i]'s bundle from each of [edges] into [st.env].
       Returns [got] once every bundle is in; otherwise the token that cut
       the receive short: a stop, or the [Reconf] of an epoch that no
       longer needs this parallel lane (it retires).  Any other [Reconf]
       re-routes: the producer lane of [i] may have changed, so the edge is
       read again.  Only alternating pipelines emit [Reconf]. *)
    let rec recv_bundles st ~lane i = function
      | [] -> got
      | ei :: rest as edges -> (
          match Chan.recv chans.(ei).(producer_lane ei i).(lane) with
          | Go vals ->
              scatter st.env edge_regs.(ei) vals;
              recv_bundles st ~lane i rest
          | Reconf id as token ->
              if info.par then begin
                forward_token lane id;
                if needed_from lane id then recv_bundles st ~lane i edges else token
              end
              else recv_bundles st ~lane i edges
          | (Stop_pause | Stop_exit) as token -> token)
    in
    let send_bundles st ~lane i =
      List.iter
        (fun ei ->
          let vals = gather st.env edge_regs.(ei) in
          let b = consumer_lane ei i in
          Chan.send chans.(ei).(lane).(b) (Go vals))
        info.out_edges
    in
    (* Pass a stop token on and park.  It goes to every possible consumer
       lane, so that lanes spawned by a concurrent resize also drain; the
       extra tokens are cleared at the next full pause. *)
    let stop st ~lane token =
      List.iter
        (fun ei ->
          for b = 0 to max_lanes - 1 do
            Chan.force_send chans.(ei).(lane).(b) token
          done)
        info.out_edges;
      present.(info.si).(lane) <- false;
      if not info.par then save_phis rs st ~owned:info.owned_phis;
      merge_privates rs st;
      flush rs st;
      st.ls_epoch <- -1;
      parked_by token
    in
    (* ---- Sequential stages (the master is stage 0). ---- *)
    let seq_body (ctx : Task.ctx) =
      let st = states.(0) in
      if st.ls_epoch <> rs.epoch then begin
        st.ls_epoch <- rs.epoch;
        let b, _, id = head_epoch () in
        st.cursor <- b;
        sent_epoch := id;
        restore_phis rs st ~owned:info.owned_phis
      end;
      let i = st.cursor in
      (* The master stamps any pending light resize at its own iteration
         boundary: the new epoch begins at I = i. *)
      if info.si = 0 then begin
        match !pending with
        | Some d ->
            let _, _, id = head_epoch () in
            epochs := (i, d, id + 1) :: !epochs;
            pending := None
        | None -> ()
      end;
      (* Announce any epoch crossing downstream before this iteration's
         data (the paper's "communicate I to the other tasks"). *)
      let _, _, cur_id = epoch_of i in
      if cur_id > !sent_epoch then begin
        emit_reconf info ~lane:0 ~from_id:!sent_epoch ~to_id:cur_id;
        sent_epoch := cur_id
      end;
      if info.si = 0 && ctx.Task.get_status () = Task_status.Paused then stop st ~lane:0 Stop_pause
      else if
        info.si = 0 && (rs.exited || match rs.trip_n with Some n -> i >= n | None -> false)
      then stop st ~lane:0 Stop_exit
      else
        (* Receive this iteration's bundles (none for the master). *)
        match recv_bundles st ~lane:0 i info.in_edges with
        | Go _ -> (
            load_phi_env st ~owned:info.owned_phis;
            match exec_members rs st ~mode info.members with
            | `Break ->
                rs.exited <- true;
                flush rs st;
                stop st ~lane:0 Stop_exit
            | `Ok ->
                advance_phis rs st ~owned:info.owned_phis;
                send_bundles st ~lane:0 i;
                if info.si = 0 then rs.next_iter <- i + 1;
                st.cursor <- i + 1;
                flush rs st;
                Task_status.Iterating)
        | token -> stop st ~lane:0 token
    in
    (* ---- Parallel stages in an alternating pipeline: each lane owns its
       channels outright and is oblivious to iteration numbering (every
       edge it uses has a sequential end, so [i] is 0); the sequential
       neighbours do all the arbitration. ---- *)
    let par_body_alternating (ctx : Task.ctx) =
      let lane = ctx.Task.lane in
      let st = states.(lane) in
      if st.ls_epoch <> rs.epoch then begin
        st.ls_epoch <- rs.epoch;
        let _, _, id = head_epoch () in
        forwarded.(lane) <- id;
        reset_privates rs st ~reds:info.owned_reds
      end;
      match recv_bundles st ~lane 0 info.in_edges with
      | Go _ -> (
          match exec_members rs st ~mode info.members with
          | `Break -> assert false (* Break_if lives in the master stage *)
          | `Ok ->
              send_bundles st ~lane 0;
              flush rs st;
              Task_status.Iterating)
      | Reconf _ ->
          (* Provisional retirement: merge private state (an effectful step
             during which a concurrent resize may re-add the lane), then
             decide for good. *)
          merge_privates rs st;
          flush rs st;
          if needed_from lane 0 then begin
            (* Re-added while retiring: continue as a fresh lane. *)
            reset_privates rs st ~reds:info.owned_reds;
            Task_status.Iterating
          end
          else begin
            present.(info.si).(lane) <- false;
            st.ls_epoch <- -1;
            Task_status.Complete
          end
      | token -> stop st ~lane token
    in
    (* ---- Parallel stages in a general (non-alternating) pipeline: the
       original cursor-based arbitration; light resizes are disabled, so a
       single epoch is live at any time. ---- *)
    let par_body_general (ctx : Task.ctx) =
      let lane = ctx.Task.lane in
      let st = states.(lane) in
      if st.ls_epoch <> rs.epoch then begin
        st.ls_epoch <- rs.epoch;
        let b, _, _ = head_epoch () in
        st.cursor <- b + lane;
        reset_privates rs st ~reds:info.owned_reds
      end;
      let i = st.cursor in
      match recv_bundles st ~lane i info.in_edges with
      | Go _ -> (
          match exec_members rs st ~mode info.members with
          | `Break -> assert false
          | `Ok ->
              send_bundles st ~lane i;
              let _, d, _ = head_epoch () in
              st.cursor <- i + d.(info.si);
              flush rs st;
              Task_status.Iterating)
      | token -> stop st ~lane token
    in
    let body =
      if not info.par then seq_body
      else if alternating then par_body_alternating
      else par_body_general
    in
    Task.create
      ~ttype:(if info.par then Task.Par else Task.Seq)
      ~name:(Printf.sprintf "stage%d%s" info.si (if info.par then "p" else "s"))
      body
  in
  let tasks = Array.to_list (Array.map make_stage_task infos) in
  {
    pd = Task.descriptor ~name:"PS-DSWP" tasks;
    (* A full pause restarts the epoch table at the executed prefix, and the
       executor starts exactly the lanes below each stage's DoP. *)
    enter =
      (fun dops ->
        let _, _, id = head_epoch () in
        epochs := [ (rs.next_iter, dops, id + 1) ];
        Array.iteri
          (fun si row -> Array.iteri (fun lane _ -> row.(lane) <- lane < dops.(si)) row)
          present);
    (* At a full pause the channels hold only leftover control tokens, and a
       resize the master has not stamped is void. *)
    reset =
      (fun () ->
        pending := None;
        Array.iter
          (fun per_a ->
            Array.iter (fun per_b -> Array.iter (fun ch -> ignore (Chan.drain ch : int)) per_b)
              per_a)
          chans);
    (* Request the epoch stamp from the master and report which parallel
       lanes need fresh workers (lanes whose previous worker has not
       retired yet continue into the new epoch). *)
    resize =
      (if not alternating then None
       else
         Some
           (fun dops ->
             pending := Some dops;
             let spawns = ref [] in
             Array.iteri
               (fun si (stage : Psdswp.stage) ->
                 if stage.Psdswp.par then
                   for lane = 0 to dops.(si) - 1 do
                     if not present.(si).(lane) then begin
                       present.(si).(lane) <- true;
                       spawns := (si, lane) :: !spawns
                     end
                   done)
               pipe.Mtcg.stages;
             !spawns));
  }

(* ------------------------------------------------------------------ *)
(* Scheme: DOACROSS.                                                   *)
(* ------------------------------------------------------------------ *)

(* DOACROSS distributes iterations round-robin over the task's lanes and
   forwards the hard recurrence values point-to-point around a ring:
   the lane executing iteration i receives them from the lane that
   executed i-1 and, after running the recurrence chain, forwards its own
   carries to the lane that will execute i+1.  The independent "pre" part
   of the body runs before the receive, so consecutive iterations overlap;
   the chain length bounds the speedup.

   Pause/exit tokens travel in the same ring: a lane that parks sends the
   token to its successor instead of values, so the whole ring drains in
   one round and the executed iterations always form a contiguous prefix.
   The lane that executed the last iteration of the prefix publishes the
   recurrence values to the heap for the next epoch. *)
let doacross rs (plan : Doacross.plan) ~max_lanes =
  let ring =
    Array.init max_lanes (fun a ->
        let row = Lane_name.append "ring" a ^ "." in
        Array.init max_lanes (fun b -> Chan.create ~capacity:4 rs.eng (Lane_name.append row b)))
  in
  let states = Array.init max_lanes (fun _ -> make_lane_state rs) in
  (* Highest iteration each lane has fully executed this epoch (-1 none). *)
  let last_done = Array.make max_lanes (-1) in
  let reds = all_reds rs in
  let pre = Array.of_list plan.Doacross.pre and chain = Array.of_list plan.Doacross.chain in
  let mode = if rs.flags.privatize_reductions then Private else Locked in
  let carry_regs =
    Array.of_list (List.map (fun (p : Instr.phi) -> p.Instr.carry) plan.Doacross.hard_phis)
  in
  let phi_regs =
    Array.of_list (List.map (fun (p : Instr.phi) -> p.Instr.pdst) plan.Doacross.hard_phis)
  in
  (* Each lane's carries as its body call found them: those of the last
     iteration it executed. *)
  let carried = Array.init max_lanes (fun _ -> Array.make (Array.length carry_regs) 0) in
  (* Each lane's advance of the executed prefix past the iteration at its
     cursor, run under the iteration monitor: native lanes finish out of
     order.  One closure per lane, built once, so an advance allocates
     nothing. *)
  let advance =
    Array.map (fun st () -> if st.cursor + 1 > rs.next_iter then rs.next_iter <- st.cursor + 1) states
  in
  (* Pass a stop token on to the successor and park: the lane that executed
     the last iteration of the prefix publishes its carries, and every lane
     the induction values the prefix implies.  The compare and both
     publications run under the iteration monitor, as the advance does: a
     lane that read [next_iter] before the last lane's advance would
     otherwise publish the carries of its own earlier iteration, and its
     write could land after the last lane's.  The window is native-only
     (the monitor is free on the simulator), and no test can force it
     until an interleaving checker exists. *)
  let stop st ~lane ~succ token =
    Chan.force_send ring.(lane).(succ) token;
    merge_privates rs st;
    Engine.locked rs.iter_mon (fun () ->
        let last_iter = last_done.(lane) in
        if last_iter >= 0 && last_iter = rs.next_iter - 1 then begin
          scatter rs.phi_heap phi_regs carried.(lane);
          charge_heap st (Array.length phi_regs)
        end;
        publish_inductions rs);
    flush rs st;
    st.ls_epoch <- -1;
    parked_by token
  in
  let task_body (ctx : Task.ctx) =
    let lane = ctx.Task.lane in
    let st = states.(lane) in
    let p = ctx.Task.dop in
    if st.ls_epoch <> rs.epoch then begin
      st.ls_epoch <- rs.epoch;
      st.cursor <- rs.epoch_base + lane;
      last_done.(lane) <- -1;
      reset_privates rs st ~reds
    end;
    let i = st.cursor in
    let succ = (lane + 1) mod p in
    let carries = carried.(lane) in
    for k = 0 to Array.length carry_regs - 1 do
      carries.(k) <- st.env.(carry_regs.(k))
    done;
    if ctx.Task.get_status () = Task_status.Paused then stop st ~lane ~succ Stop_pause
    else begin
      let n = match rs.trip_n with Some n -> n | None -> assert false in
      if i >= n then stop st ~lane ~succ Stop_exit
      else begin
        set_inductions rs st i;
        (* 1. The independent part overlaps across lanes. *)
        (match exec_members rs st ~mode pre with
        | `Break -> assert false (* While loops are rejected by applicability *)
        | `Ok -> ());
        flush rs st;
        (* 2. Obtain the recurrence values for this iteration. *)
        let received =
          if i = rs.epoch_base then begin
            Array.iter (fun r -> st.env.(r) <- rs.phi_heap.(r)) phi_regs;
            got
          end
          else
            match Chan.recv ring.((lane + p - 1) mod p).(lane) with
            | Go vals ->
                scatter st.env phi_regs vals;
                got
            | token -> token
        in
        match received with
        | Go _ -> (
            (* 3. The recurrence chain, then forward to the successor. *)
            match exec_members rs st ~mode chain with
            | `Break -> assert false
            | `Ok ->
                Chan.send ring.(lane).(succ) (Go (gather st.env carry_regs));
                Engine.locked rs.iter_mon advance.(lane);
                last_done.(lane) <- i;
                st.cursor <- i + p;
                flush rs st;
                Task_status.Iterating)
        | Reconf _ -> assert false (* DOACROSS does not light-resize *)
        | token -> stop st ~lane ~succ token
      end
    end
  in
  {
    pd = Task.descriptor ~name:"DOACROSS" [ Task.create ~ttype:Task.Par ~name:"doacross" task_body ];
    enter = ignore;
    reset =
      (fun () ->
        Array.iter (fun per -> Array.iter (fun ch -> ignore (Chan.drain ch : int)) per) ring);
    resize = None;
  }
