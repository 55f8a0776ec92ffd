(** Mutual exclusion over the platform abstraction: the contract of
    {!Parcae_sim.Lock}, dispatched on the engine the lock was created
    on. *)

type t

val create : ?op_cost:int -> Engine.t -> string -> t
(** [op_cost] overrides the sim machine's lock cost; ignored on native. *)

val with_lock : t -> (unit -> 'a) -> 'a
(** Run the function holding the lock; releases even on exception. *)
