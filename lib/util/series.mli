(** Append-only time series of [(time, value)] samples, used for the
    throughput/power/state timelines the figure printers render. *)

type t

val create : string -> t
val name : t -> string
val length : t -> int

val add : t -> time:float -> value:float -> unit
(** Append a sample (amortized O(1)). *)

val get : t -> int -> float * float
(** [get t i] is the i-th sample.
    @raise Invalid_argument if out of bounds. *)

val times : t -> float array
val values : t -> float array

val iter : t -> (float -> float -> unit) -> unit
(** [iter t f] applies [f time value] to every sample in order. *)

val last : t -> (float * float) option

val bucketed : t -> t0:float -> t1:float -> buckets:int -> (float * float) array
(** Downsample into equal-width time buckets, averaging per bucket; empty
    buckets repeat the previous bucket's value so plotted series stay
    continuous.  Each result pair is (bucket midpoint, mean value). *)
