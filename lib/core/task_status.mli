(** Status returned by a task functor after each dynamic instance
    (Figure 5.1 of the paper: task_iterating | task_paused |
    task_complete). *)

type t =
  | Iterating  (** continue the loop *)
  | Paused  (** acknowledged a reconfiguration signal; state is consistent *)
  | Complete  (** the loop exit branch was taken *)

val to_string : t -> string
val equal : t -> t -> bool
