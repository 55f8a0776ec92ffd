(** Striped object pools for the serve path (DESIGN.md section 14).

    A pool recycles objects through per-lane freelists backed by fixed
    arrays, so steady-state acquire/release allocates nothing.  Misses
    (empty freelist) fall back to the [make] callback; releases into a
    full stripe drop the object back to the GC.  The pool holds no
    reference to objects in flight, so an object lost to a failed task is
    ordinary garbage — the pool cannot leak. *)

type 'a t

val create : ?stripes:int -> ?capacity:int -> name:string -> dummy:'a -> (unit -> 'a) -> 'a t
(** [create ~name ~dummy make] builds a pool of [stripes] freelists
    (default 8) of [capacity] slots each (default 512).  [dummy] fills
    vacated slots so the pool never pins a released-then-acquired object;
    [make] services misses.
    @raise Invalid_argument if [stripes] or [capacity] is not positive. *)

val acquire : 'a t -> 'a
(** Pop from the caller's stripe; when it is empty, steal from the other
    stripes (producer and consumer lanes need not match) and only call
    [make] (counting a miss) when every stripe is dry.  Allocation-free
    on a hit. *)

val release : 'a t -> 'a -> unit
(** Push back into the caller's stripe; drops the object to the GC when
    the stripe is full.  Allocation-free.  The caller must not use the
    object afterwards — it may be handed to another lane immediately. *)

val name : 'a t -> string
val hits : 'a t -> int
val misses : 'a t -> int

val free_count : 'a t -> int
(** Objects currently held across all stripes. *)

(** {1 Global accounting}

    Every pool self-registers at creation; these enumerate all of them,
    across element types. *)

type stats = { st_name : string; st_hits : int; st_misses : int; st_free : int }

val stats : unit -> stats list
val total_hits : unit -> int
val total_misses : unit -> int

val session_minor_words : unit -> int
(** Minor words the calling domain allocated since the installed registry
    was first sampled: the first call under a registry takes the baseline
    and returns 0.  Exact ([Gc.minor_words]). *)

val sample_allocs : unit -> unit
(** Push [parcae_alloc_minor_words_total] ({!session_minor_words}),
    [parcae_pool_hits_total], [parcae_pool_misses_total] and
    [parcae_pool_free] into the installed metrics registry (no-op when
    none is).  Cold path — call at render frequency, not per request. *)
