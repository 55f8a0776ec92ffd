(** Binary min-heap priority queue ordered by an explicit four-part key.

    Entries sort by [time] ascending, then [push] ascending, then [first]
    {e descending}, then [seq] ascending.  The order is a function of the
    keys alone, never of insertion order: the discrete-event simulator
    gives every event a unique key (see {!Parcae_sim.Engine}), which makes
    it fully deterministic even when it pushes an event late.

    Storage is one [int array] of five-int rows (the four key parts and a
    payload slot) plus a slot table for the payloads, so sifting moves
    ints only, and [push] and the [top_time]/[pop_into] pair allocate
    nothing — the simulator's event loop runs them once per scheduling
    decision.  A popped payload is not retained by the queue. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> time:int -> push:int -> first:int -> seq:int -> 'a -> unit
(** Insert [payload] under the key [(time, push, first, seq)].
    Allocation-free outside of capacity doubling. *)

val key_before : int -> int -> int -> int -> int -> int -> int -> int -> bool
(** [key_before time push first seq time' push' first' seq']: the first
    key sorts strictly before the second. *)

val top_time : 'a t -> int
(** Time of the minimum entry, allocation-free; [max_int] when the queue
    is empty. *)

val before_top : 'a t -> int -> int -> int -> int -> bool
(** [before_top q time push first seq]: the key sorts strictly before
    the minimum entry of [q], or [q] is empty. *)

val min_of : 'a t -> 'a t -> 'a t
(** [min_of a b]: the queue whose minimum entry sorts first; an empty
    queue loses, and [b] is returned when both are empty. *)

type key = { mutable time : int; mutable push : int; mutable first : int; mutable seq : int }

val pop_into : 'a t -> key -> 'a
(** Remove the minimum entry, copy its key into the given record and
    return its payload, allocation-free.
    @raise Invalid_argument when the queue is empty. *)
