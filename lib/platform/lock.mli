(** Mutual exclusion over the platform abstraction: the contract of
    {!Parcae_sim.Lock}, dispatched on the engine the lock was created
    on. *)

type t

val create : Engine.t -> string -> t

val with_lock : t -> (unit -> 'a) -> 'a
(** Run the function holding the lock; releases even on exception. *)
