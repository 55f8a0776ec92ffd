(** Deterministic pseudo-random number generation (splitmix64).

    Every simulated entity that needs randomness derives an independent
    stream from one experiment seed via {!split}, which keeps whole
    simulations reproducible. *)

type t
(** A generator; mutable state, not thread-safe (simulated threads are
    cooperative, so this is fine). *)

val create : int -> t
(** [create seed] makes a generator with the given seed. *)

val split : t -> t
(** [split t] advances [t] and returns an independent generator derived
    from it (the splitmix splitting construction). *)

val float : t -> float
(** Uniform draw in [\[0, 1)]. *)

val int : t -> int -> int
(** [int t bound] is a uniform draw in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)

val bool : t -> bool
(** Fair coin. *)

val exponential : t -> rate:float -> float
(** Exponentially distributed draw with the given [rate] (mean [1/rate]);
    used for Poisson inter-arrival times.
    @raise Invalid_argument if [rate <= 0]. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normal draw via Box-Muller. *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform draw in [\[lo, hi)]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
