(** Growable ring buffer: a FIFO whose steady-state [push]/[pop] allocate
    nothing (slots are reused in place; only doubling growth allocates),
    unlike [Queue.t]'s cell per push.  The serve path's channels, run
    queue and condition waiter queues are built on this.

    Not thread-safe; callers synchronize externally (the simulator is
    cooperative, the native backend wraps operations in monitors). *)

type 'a t

val create : unit -> 'a t
(** An empty ring.  Allocates only its record: the 16-slot buffer is
    allocated by the first {!push}. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Append at the tail.  O(1) amortized, allocation-free unless the ring
    must grow (its first push allocates the initial buffer). *)

val pop : 'a t -> 'a
(** Remove and return the head.  Allocation-free.
    @raise Invalid_argument when empty. *)

val peek : 'a t -> 'a

val iter : ('a -> unit) -> 'a t -> unit
(** Head-to-tail iteration over the live elements. *)

val clear : 'a t -> unit

val filter_in_place : ('a -> bool) -> 'a t -> int
(** Keep only elements satisfying the predicate, preserving order;
    returns how many were dropped. *)
