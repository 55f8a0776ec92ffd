(** Platform-wide control (the paper's Section 6.4.3, Algorithm 5).

    The daemon partitions the platform's hardware threads across the
    flexible parallel programs currently executing: an equal share on
    every membership change, slack redistribution as controllers report
    their optimized usage, and reclamation when programs terminate. *)

type t

val create : ?period_ns:int -> Parcae_platform.Engine.t -> total_threads:int -> t

val register : t -> Region.t -> Controller.t -> unit
(** Register a launched program: every active program gets a fresh equal
    share and its controller is notified of the resource change. *)

val repartition : t -> unit
val redistribute : t -> unit

val run : t -> unit
(** Daemon main loop (watch terminations, re-partition); the body of a
    simulated thread. *)

val spawn : Parcae_platform.Engine.t -> t -> Parcae_platform.Engine.thread
