(* Status returned by a task functor after each dynamic instance
   (Figure 5.1: task_iterating | task_paused | task_complete).

   [Iterating] means the loop should continue; [Paused] means the task
   acknowledged a reconfiguration signal and has reached a consistent state;
   [Complete] means the loop exit branch was taken. *)

type t = Iterating | Paused | Complete

let to_string = function
  | Iterating -> "task_iterating"
  | Paused -> "task_paused"
  | Complete -> "task_complete"

let equal (a : t) (b : t) = a = b
