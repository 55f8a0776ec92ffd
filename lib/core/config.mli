(** Parallelism configurations.

    A configuration C = (S, D) assigns each loop a parallelization scheme
    and a degree of parallelism (the paper's Chapter 2).  Because a task
    can carry nested ParDescriptors, a configuration is a tree mirroring
    the descriptor tree. *)

type task_config = {
  dop : int;  (** number of worker threads executing the task *)
  nested : t option;
      (** [None]: nested parallelism runs inline, sequentially;
          [Some cfg]: each instance launches the chosen nested descriptor
          under [cfg]. *)
}

and t = {
  choice : int;  (** index of the chosen ParDescriptor among alternatives *)
  tasks : task_config array;  (** one entry per task of the descriptor *)
}

val seq_task : task_config
(** DoP 1, no nested parallelism. *)

val task : ?nested:t -> int -> task_config
val make : ?choice:int -> task_config list -> t

val threads : t -> int
(** Hardware threads the configuration keeps busy; a task whose instances
    each launch a nested team of [k] threads accounts for [dop * k] (the
    paper's k x l). *)

val task_threads : task_config -> int

val dops : t -> int array
(** Degree-of-parallelism vector of the top-level tasks. *)

val with_dop : t -> int -> int -> t
(** [with_dop cfg i d] is [cfg] with task [i]'s DoP replaced by [d]. *)

val equal : t -> t -> bool
val task_equal : task_config -> task_config -> bool

val pp : Format.formatter -> t -> unit
val pp_task : Format.formatter -> task_config -> unit
val to_string : t -> string

val validate : t -> unit
(** Basic well-formedness (positive DoPs, recursively).
    @raise Invalid_argument otherwise. *)
