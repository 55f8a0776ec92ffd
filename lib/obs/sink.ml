(* Event sinks: a bounded ring buffer, and a null sink that makes tracing
   free when disabled.

   The ring keeps the most recent [capacity] events and counts what it
   overwrote, so a long run with a small sink degrades to a suffix trace
   instead of unbounded memory.  [null] is a physical sentinel: emitters
   compare against it with one load and one pointer equality, which is the
   whole cost of disabled tracing. *)

type t = {
  capacity : int;  (* 0 only for [null] *)
  mu : Mutex.t;
      (* serializes record/read/clear: native workers emit concurrently *)
  mutable buf : Event.t array;  (* ring storage, lazily allocated *)
  mutable start : int;  (* index of the oldest retained event *)
  mutable len : int;  (* retained events, <= capacity *)
  mutable dropped : int;  (* events overwritten after the ring filled *)
  mutable last_t : int;  (* high-water timestamp for the monotone clamp *)
}

let null =
  { capacity = 0; mu = Mutex.create (); buf = [||]; start = 0; len = 0; dropped = 0;
    last_t = min_int }

let default_capacity = 1 lsl 16

let create ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Sink.create: capacity must be positive";
  { capacity; mu = Mutex.create (); buf = [||]; start = 0; len = 0; dropped = 0;
    last_t = min_int }

let is_null s = s == null

let length s = s.len
let dropped s = s.dropped
let capacity s = s.capacity

let clear s =
  Mutex.lock s.mu;
  (* Drop the ring storage too: a cleared sink must release the memory of
     the events it retained, not just forget their indices.  The next
     [record] re-allocates lazily, exactly as on first use. *)
  s.buf <- [||];
  s.start <- 0;
  s.len <- 0;
  s.dropped <- 0;
  s.last_t <- min_int;
  Mutex.unlock s.mu

(* Size of the backing array — 0 before the first event and after [clear].
   Exposed so tests can assert that clearing releases the allocation. *)
let allocated_slots s = Array.length s.buf

let dropped_total =
  Metrics.cached (fun reg ->
      Metrics.counter reg "parcae_trace_dropped_total"
        ~help:"Trace events overwritten by a full sink ring")

let record s ~t kind =
  if s.capacity > 0 then begin
    Mutex.lock s.mu;
    (* Monotone clamp: concurrent native emitters can race the ring with
       timestamps taken a hair apart; the trace contract (and the oracle)
       requires non-decreasing time, so order-of-arrival wins and a late
       reading is clamped up.  On the simulator time is already monotone
       and the clamp never fires. *)
    let t = if t < s.last_t then s.last_t else t in
    s.last_t <- t;
    let ev = Event.make ~t kind in
    if Array.length s.buf = 0 then begin
      (* First event: allocate the ring.  A dummy slot value is fine; every
         readable slot is written before it is read. *)
      s.buf <- Array.make s.capacity ev
    end;
    if s.len < s.capacity then begin
      s.buf.((s.start + s.len) mod s.capacity) <- ev;
      s.len <- s.len + 1
    end
    else begin
      (* Full: overwrite the oldest. *)
      s.buf.(s.start) <- ev;
      s.start <- (s.start + 1) mod s.capacity;
      s.dropped <- s.dropped + 1;
      if Metrics.enabled () then Metrics.inc (dropped_total ())
    end;
    Mutex.unlock s.mu
  end

(* Retained events, oldest first. *)
let to_array s =
  Mutex.lock s.mu;
  let a = Array.init s.len (fun i -> s.buf.((s.start + i) mod s.capacity)) in
  Mutex.unlock s.mu;
  a

let events s = Array.to_list (to_array s)
let iter s f = Array.iter f (to_array s)
