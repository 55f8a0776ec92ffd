(* The Parcae application-developer API (Chapter 5).

   A [Task] packages:
   - a functor [body] executing one dynamic instance of the task and
     returning its status,
   - an optional load callback exposing the task's current workload
     (e.g. input queue occupancy),
   - an optional init callback bringing the task into a globally
     consistent state on each activation (Tinit of Sections 4.5-4.6; the
     paper's FiniCB, which forwarded the pause sentinel, is replaced by
     the last-lane forwarding of the [Pipeline] stage helpers),
   - a task type (sequential or parallel), and
   - optional nested parallelism choices the runtime may switch on and off
     (Section 5.1.1's TaskDescriptor.pd[]).

   The control-flow abstraction of Figure 5.2(a) — the loop repeatedly
   invoking the functor — lives in the Morta executor
   ([Parcae_runtime.Executor]), exactly as in the paper where the
   TaskExecutor template is provided by the system. *)

type ttype = Seq | Par

(* Execution context passed to a functor for each dynamic instance.  It is
   the OCaml rendering of the paper's [Task::*] methods: [get_status] polls
   for a pause signal, [hook_begin]/[hook_end] bracket the CPU-intensive part
   for Decima, and [run_nested] launches the configured nested region and
   waits for it (Task::wait). *)
type ctx = {
  lane : int;  (** which replica of a parallel task this worker is (0-based) *)
  dop : int;  (** current degree of parallelism of this task *)
  mutable iter : int;  (** per-lane instance counter *)
  mutable items : int;
      (** dynamic instances completed by this invocation.  The executor
          resets it to [-1] before each call; a body that leaves it there
          is counted by status (one instance per [Iterating], the classic
          protocol), while batch-draining bodies overwrite it with the
          number of items actually processed so Decima's per-instance
          accounting survives batching. *)
  get_status : unit -> Task_status.t;
  hook_begin : unit -> unit;
  hook_end : unit -> unit;
  nested_cfg : Config.t option;
      (** configuration chosen by the runtime for this task's nested
          parallelism; [None] means run inline, sequentially *)
  run_nested : Config.t -> unit;
      (** execute the task's chosen nested descriptor under the given
          configuration, blocking until it completes *)
}

type t = {
  name : string;
  ttype : ttype;
  body : ctx -> Task_status.t;
  load : (unit -> float) option;
  init : (unit -> unit) option;  (** run once per worker activation (Tinit) *)
  nested : nested_choice list;  (** alternative inner parallelizations *)
}

(* A ParDescriptor: a set of tasks that execute in parallel and interact
   (Figure 5.1).  The first task is the master task: it is the one the
   runtime signals to pause, and its completion terminates the region. *)
and par_descriptor = { pd_name : string; tasks : t list }

(* A nested-parallelism alternative.  Inner regions typically close over
   per-instance state (a fresh pipeline is built for each video to
   transcode), so the descriptor is produced by a factory invoked once per
   dynamic instance.  [nc_seq] records which inner tasks are sequential so
   configurations can be validated without instantiating the descriptor. *)
and nested_choice = {
  nc_name : string;
  nc_seq : bool list;  (** per inner task: [true] if sequential *)
  nc_make : unit -> par_descriptor;
}

let create ?(ttype = Par) ?load ?init ?(nested = []) ~name body =
  { name; ttype; body; load; init; nested }

let sequential ?load ?init ?nested ~name body =
  create ~ttype:Seq ?load ?init ?nested ~name body

let parallel ?load ?init ?nested ~name body = create ~ttype:Par ?load ?init ?nested ~name body

let descriptor ~name tasks =
  if tasks = [] then invalid_arg "Task.descriptor: empty task list";
  { pd_name = name; tasks }

let nested_choice ~name ~seq make = { nc_name = name; nc_seq = seq; nc_make = make }

let is_master pd task = match pd.tasks with [] -> false | m :: _ -> m == task

(* Number of tasks in a descriptor. *)
let arity pd = List.length pd.tasks

(* The default configuration for a descriptor: every task at DoP 1, nested
   parallelism off.  This is the conservative starting point the runtime
   calibrates away from. *)
let default_config pd = Config.make (List.map (fun _ -> Config.seq_task) pd.tasks)

(* Validate a configuration against a descriptor: matching arity, DoP 1 for
   sequential tasks, and nested choices in range. *)
let validate_config pd (cfg : Config.t) =
  let check_nested (choices : nested_choice list) (inner : Config.t) =
    if inner.Config.choice < 0 || inner.Config.choice >= List.length choices then
      invalid_arg "nested choice out of range";
    let nc = List.nth choices inner.Config.choice in
    if Array.length inner.Config.tasks <> List.length nc.nc_seq then
      invalid_arg (nc.nc_name ^ ": nested config arity mismatch");
    List.iteri
      (fun i is_seq ->
        let tc = inner.Config.tasks.(i) in
        if tc.Config.dop < 1 then invalid_arg (nc.nc_name ^ ": dop must be >= 1");
        if is_seq && tc.Config.dop <> 1 then
          invalid_arg (nc.nc_name ^ ": sequential inner task requires dop = 1");
        (* Deeper nesting is validated dynamically when instantiated. *)
        ignore tc.Config.nested)
      nc.nc_seq
  in
  if Array.length cfg.Config.tasks <> arity pd then
    invalid_arg
      (Printf.sprintf "config for %s: %d task configs for %d tasks" pd.pd_name
         (Array.length cfg.Config.tasks) (arity pd));
  List.iteri
    (fun i task ->
      let tc = cfg.Config.tasks.(i) in
      if tc.Config.dop < 1 then invalid_arg (task.name ^ ": dop must be >= 1");
      if task.ttype = Seq && tc.Config.dop <> 1 then
        invalid_arg (task.name ^ ": sequential task requires dop = 1");
      match tc.Config.nested with
      | None -> ()
      | Some inner ->
          if task.nested = [] then invalid_arg (task.name ^ ": no nested parallelism declared");
          check_nested task.nested inner)
    pd.tasks
