(* Object pools for the serve path (DESIGN.md section 14).

   Steady-state serving must not pay the allocator per request, so the
   descriptors and request records that flow through the pipelines are
   recycled through striped freelists instead of being garbage.  Each
   stripe is a fixed array used as a stack: release pushes into a slot,
   acquire pops — neither path allocates.  Stripes are keyed by the
   calling worker's lane so concurrent lanes rarely share a stripe, and
   each stripe is guarded by a tiny test-and-set spinlock (the critical
   section is a couple of loads and stores; on the simulator backend it
   is never even contended, since simulated threads are cooperative).

   The pool is deliberately forgiving: releasing more objects than a
   stripe can hold simply drops the extras back to the GC, and objects
   lost to a failed task are ordinary garbage — the pool holds no
   reference to objects in flight, so it cannot leak them (the qcheck
   suite pins these invariants down).

   Hit/miss counters are plain atomics on the hot path; they reach the
   metrics registry only through [sample_allocs], which the dashboard
   refresher calls at human frequency. *)

module Engine = Parcae_platform.Engine
module Metrics = Parcae_obs.Metrics

type 'a stripe = {
  lock : bool Atomic.t;
  slots : 'a array;  (* slots.(0 .. top-1) are free objects *)
  mutable top : int;
}

type 'a t = {
  name : string;
  dummy : 'a;  (* fills vacated slots so the pool never pins an object *)
  make : unit -> 'a;  (* miss path: fall back to the allocator *)
  stripes : 'a stripe array;
  hits : int Atomic.t;
  misses : int Atomic.t;
}

(* Stat views let the registry and the dashboard enumerate pools of any
   element type. *)
type stats = { st_name : string; st_hits : int; st_misses : int; st_free : int }

let registry : (unit -> stats) list ref = ref []

let lock st =
  while not (Atomic.compare_and_set st.lock false true) do
    Domain.cpu_relax ()
  done

let unlock st = Atomic.set st.lock false

let free_count t =
  Array.fold_left (fun acc st -> acc + st.top) 0 t.stripes

let create ?(stripes = 8) ?(capacity = 512) ~name ~dummy make =
  if stripes < 1 then invalid_arg "Pool.create: stripes must be >= 1";
  if capacity < 1 then invalid_arg "Pool.create: capacity must be >= 1";
  let t =
    {
      name;
      dummy;
      make;
      stripes =
        Array.init stripes (fun _ ->
            { lock = Atomic.make false; slots = Array.make capacity dummy; top = 0 });
      hits = Atomic.make 0;
      misses = Atomic.make 0;
    }
  in
  registry :=
    (fun () ->
      {
        st_name = t.name;
        st_hits = Atomic.get t.hits;
        st_misses = Atomic.get t.misses;
        st_free = free_count t;
      })
    :: !registry;
  t

(* Stripe of the calling worker: lanes map round-robin onto stripes, and
   callers outside any region (the load generator, tests) share stripe 0. *)
let stripe_of t =
  match Engine.current_lane () with
  | Some lane when lane >= 0 -> t.stripes.(lane mod Array.length t.stripes)
  | _ -> t.stripes.(0)

(* Slow path for a locally empty stripe: scan the other stripes for a
   free object before giving up on the freelist.  Producer/consumer
   topologies free from a different lane than they allocate in (the load
   generator acquires on stripe 0, the tail stage releases to its lane's
   stripe), so without stealing the freelist would fill up on one side
   while the other side misses forever. *)
let steal t home =
  let n = Array.length t.stripes in
  let rec scan i =
    if i >= n then begin
      Atomic.incr t.misses;
      t.make ()
    end
    else begin
      let st = t.stripes.(i) in
      if st == home then scan (i + 1)
      else begin
        lock st;
        if st.top > 0 then begin
          let j = st.top - 1 in
          let v = st.slots.(j) in
          st.slots.(j) <- t.dummy;
          st.top <- j;
          unlock st;
          Atomic.incr t.hits;
          v
        end
        else begin
          unlock st;
          scan (i + 1)
        end
      end
    end
  in
  scan 0

let acquire t =
  let st = stripe_of t in
  lock st;
  if st.top > 0 then begin
    let i = st.top - 1 in
    let v = st.slots.(i) in
    st.slots.(i) <- t.dummy;
    st.top <- i;
    unlock st;
    Atomic.incr t.hits;
    v
  end
  else begin
    unlock st;
    steal t st
  end

let release t v =
  let st = stripe_of t in
  lock st;
  if st.top < Array.length st.slots then begin
    st.slots.(st.top) <- v;
    st.top <- st.top + 1;
    unlock st
  end
  else
    (* Stripe full: drop the object back to the GC.  Harmless — the pool
       only bounds how much it retains, never how much exists. *)
    unlock st

let name t = t.name
let hits t = Atomic.get t.hits
let misses t = Atomic.get t.misses

(* ---- Global accounting (all pools, any element type) ---- *)

let stats () = List.rev_map (fun f -> f ()) !registry

let total_hits () = List.fold_left (fun acc s -> acc + s.st_hits) 0 (stats ())
let total_misses () = List.fold_left (fun acc s -> acc + s.st_misses) 0 (stats ())

(* Raise a cumulative registry counter to [total] (counters are monotonic;
   registry swaps restart the series from zero, which is the Prometheus
   contract for process restarts). *)
let publish_total c total =
  let cur = Metrics.counter_value c in
  if total > cur then Metrics.inc_by c (total - cur)

(* The registry the minor-word count belongs to, and [Gc.minor_words]
   when it was first sampled.  Counting from there leaves out what the
   process allocated before the session, start-up included, whose size
   grows with the executable's path.  [Gc.minor_words] is exact (on OCaml
   5.1 [Gc.quick_stat]'s count moves only at minor collections) and reads
   the calling domain, which for the dashboard is the simulator's one. *)
let alloc_base = ref (Metrics.null, 0.0)

let session_minor_words () =
  let reg = Metrics.current () and now = Gc.minor_words () in
  let r, base = !alloc_base in
  if r == reg then int_of_float (now -. base)
  else begin
    alloc_base := (reg, now);
    0
  end

(* Push pool hit/miss totals and the session's minor-word count into the
   metrics registry.  Cold path: the dashboard refresher calls it once per
   render. *)
let sample_allocs () =
  if Metrics.enabled () then begin
    let reg = Metrics.current () in
    publish_total
      (Metrics.counter reg "parcae_alloc_minor_words_total"
         ~help:"Minor words allocated since this registry was first sampled (Gc.minor_words).")
      (session_minor_words ());
    List.iter
      (fun s ->
        let labels = [ ("pool", s.st_name) ] in
        publish_total
          (Metrics.counter reg "parcae_pool_hits_total" ~labels
             ~help:"Objects served from a pool freelist (no allocation).")
          s.st_hits;
        publish_total
          (Metrics.counter reg "parcae_pool_misses_total" ~labels
             ~help:"Pool acquires that fell back to the allocator.")
          s.st_misses;
        Metrics.set_gauge_int
          (Metrics.gauge reg "parcae_pool_free" ~labels
             ~help:"Objects currently held by a pool freelist.")
          s.st_free)
      (stats ())
  end
