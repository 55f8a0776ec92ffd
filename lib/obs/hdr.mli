(* Fixed-precision streaming histogram with log-linear HDR-style buckets.

   Tracks non-negative integer values (nanoseconds throughout Parcae) in
   a fixed-size bucket array: one bucket per integer below 128, then 128
   equal sub-buckets per power-of-two octave.  Quantile estimates carry a
   relative error of at most 1/128, observation is allocation-free, and
   histograms merge by bucket addition. *)

type t

(* An empty histogram; its bucket array (57 * 128 words) is allocated
   here, not on the first observation. *)
val create : unit -> t

(* Record one value.  Negative values clamp to 0.  Never allocates. *)
val observe : t -> int -> unit

val count : t -> int
val sum : t -> int
val max_value : t -> int
val mean : t -> float

(* [quantile t q] estimates the q-quantile (q in [0,1], clamped) as the
   inclusive upper bound of the bucket holding the rank-⌈q·count⌉
   observation, clamped to the observed maximum — so the estimate [est]
   of an exact value [x] satisfies x <= est <= x·(1 + 1/128) rounded up
   to the next integer.  Returns 0 on an empty histogram. *)
val quantile : t -> float -> int

(* [merge ~into src] adds [src]'s counts into [into]. *)
val merge : into:t -> t -> unit

val clear : t -> unit
