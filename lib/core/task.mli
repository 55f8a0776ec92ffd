(** The Parcae application-developer API (the paper's Chapter 5).

    A task packages a functor executing one dynamic instance, optional
    load/init callbacks, a task type, and optional nested-parallelism
    choices.  The paper's FiniCB, which forwarded the pause sentinel, has
    no field here: the last lane of a {!Pipeline} stage to exit forwards
    it.  The control-flow abstraction repeatedly invoking the functor
    (Figure 5.2a) lives in the Morta executor. *)

type ttype = Seq | Par

(** Execution context passed to a functor for each dynamic instance: the
    OCaml rendering of the paper's [Task::*] methods. *)
type ctx = {
  lane : int;  (** which replica of a parallel task this worker is *)
  dop : int;  (** current degree of parallelism of this task *)
  mutable iter : int;  (** per-lane instance counter *)
  mutable items : int;
      (** dynamic instances completed by this invocation; the executor
          resets it to [-1] (= count by status: one per [Iterating]) before
          each call, batch-draining bodies overwrite it with the number of
          items processed *)
  get_status : unit -> Task_status.t;  (** poll Morta for a pause signal *)
  hook_begin : unit -> unit;  (** bracket the CPU-intensive part... *)
  hook_end : unit -> unit;  (** ...for Decima (Section 4.7) *)
  nested_cfg : Config.t option;
      (** configuration chosen for this task's nested parallelism;
          [None] means run inline, sequentially *)
  run_nested : Config.t -> unit;
      (** run the chosen nested descriptor to completion (Task::wait) *)
}

type t = {
  name : string;
  ttype : ttype;
  body : ctx -> Task_status.t;  (** one dynamic instance *)
  load : (unit -> float) option;  (** current workload (LoadCB) *)
  init : (unit -> unit) option;  (** once per worker activation (Tinit) *)
  nested : nested_choice list;  (** alternative inner parallelizations *)
}

and par_descriptor = { pd_name : string; tasks : t list }
(** A ParDescriptor: tasks that execute in parallel and interact
    (Figure 5.1).  The first task is the master: the one the runtime
    signals to pause, and whose completion terminates the region. *)

and nested_choice = {
  nc_name : string;
  nc_seq : bool list;  (** per inner task: [true] if sequential *)
  nc_make : unit -> par_descriptor;
      (** factory invoked per dynamic instance — inner regions typically
          close over per-instance state *)
}

val create :
  ?ttype:ttype ->
  ?load:(unit -> float) ->
  ?init:(unit -> unit) ->
  ?nested:nested_choice list ->
  name:string ->
  (ctx -> Task_status.t) ->
  t

val sequential :
  ?load:(unit -> float) ->
  ?init:(unit -> unit) ->
  ?nested:nested_choice list ->
  name:string ->
  (ctx -> Task_status.t) ->
  t

val parallel :
  ?load:(unit -> float) ->
  ?init:(unit -> unit) ->
  ?nested:nested_choice list ->
  name:string ->
  (ctx -> Task_status.t) ->
  t

val descriptor : name:string -> t list -> par_descriptor
(** @raise Invalid_argument on an empty task list. *)

val nested_choice : name:string -> seq:bool list -> (unit -> par_descriptor) -> nested_choice

val is_master : par_descriptor -> t -> bool
val arity : par_descriptor -> int

val default_config : par_descriptor -> Config.t
(** Every task at DoP 1, nested parallelism off: the conservative starting
    point the runtime calibrates away from. *)

val validate_config : par_descriptor -> Config.t -> unit
(** Matching arity, DoP 1 for sequential tasks, nested choices in range.
    @raise Invalid_argument otherwise. *)
