(** Mutual exclusion between native tasks.

    Same contract as {!Parcae_sim.Lock}: non-recursive, owner-checked
    release.  Built on a per-structure {!Engine.Monitor}, so a Parcae
    lock costs one monitor entry on its own mutex — the real analogue of
    the simulator's [lock_op] charge — and contention on one lock never
    slows another. *)

type t

val create : Engine.t -> string -> t
val acquire : t -> unit
val release : t -> unit
val with_lock : t -> (unit -> 'a) -> 'a
