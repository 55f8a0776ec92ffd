(** Binary min-heap priority queue of int payloads, ordered by an
    explicit four-part key.

    Entries sort by [time] ascending, then [push] ascending, then [first]
    {e descending}, then [seq] ascending.  The order is a function of the
    keys alone, never of insertion order: the discrete-event simulator
    gives every event a unique key (see {!Parcae_sim.Engine}), which makes
    it fully deterministic even when it pushes an event late.

    Storage is one [int array] of five-int rows, the four key parts and
    the payload, so sifting moves ints only, and [push] and the
    [top_time]/[pop_into] pair allocate nothing — the simulator's event
    loop runs them once per scheduling decision.  The pop is Floyd's
    bottom-up one. *)

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

val push : t -> time:int -> push:int -> first:int -> seq:int -> int -> unit
(** Insert [payload] under the key [(time, push, first, seq)].
    Allocation-free outside of capacity doubling. *)

val key_before : int -> int -> int -> int -> int -> int -> int -> int -> bool
(** [key_before time push first seq time' push' first' seq']: the first
    key sorts strictly before the second. *)

val top_time : t -> int
(** Time of the minimum entry, allocation-free; [max_int] when the queue
    is empty. *)

val before_top : t -> int -> int -> int -> int -> bool
(** [before_top q time push first seq]: the key sorts strictly before
    the minimum entry of [q], or [q] is empty. *)

val min_of : t -> t -> t
(** [min_of a b]: the queue whose minimum entry sorts first; an empty
    queue loses, and [b] is returned when both are empty. *)

type key = { mutable time : int; mutable push : int; mutable first : int; mutable seq : int }

val pop_into : t -> key -> int
(** Remove the minimum entry, copy its key into the given record and
    return its payload, allocation-free.
    @raise Invalid_argument when the queue is empty. *)
