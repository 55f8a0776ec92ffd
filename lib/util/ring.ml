(* Growable ring buffer: FIFO with reusable slots.

   Stdlib [Queue.t] allocates a three-word cell per [push]; on the serve
   path every channel message, run-queue entry and condition waiter goes
   through such a queue, so the cells alone tax the allocator per
   request.  This ring stores elements in a slot array reused in place —
   steady-state push/pop allocates nothing; only growth (doubling,
   amortized) allocates.

   Slots hold [Obj.t] so one unparameterized buffer serves any element
   type without an ['a option] box per occupied slot.  The phantom
   parameter keeps the external interface typed; safety rests on the
   usual container invariant that only values pushed as ['a] are read
   back as ['a].  Vacated slots are overwritten with an immediate so the
   ring never pins dead values against the GC.

   A ring allocates no slot buffer until its first push: creating one
   allocates only its record, because most rings are never pushed to (a
   thread's completion waiters, the unused lanes of a channel matrix). *)

type 'a t = {
  mutable buf : Obj.t array;  (* empty, or a power-of-two capacity *)
  mutable head : int;  (* index of the oldest element *)
  mutable size : int;
}

let nil = Obj.repr 0
let initial_capacity = 16

(* The empty buffer is the shared zero-length array: every index
   computation below masks with [-1] on it and touches no slot, since
   [size = 0]. *)
let create () = { buf = [||]; head = 0; size = 0 }

let length t = t.size
let is_empty t = t.size = 0

(* Allocate the first slot array, or double it, unrolling the wrap so the
   live elements start at index 0 of the new buffer. *)
let grow t =
  let cap = Array.length t.buf in
  let nbuf = Array.make (if cap = 0 then initial_capacity else 2 * cap) nil in
  let mask = cap - 1 in
  for i = 0 to t.size - 1 do
    nbuf.(i) <- t.buf.((t.head + i) land mask)
  done;
  t.buf <- nbuf;
  t.head <- 0

let push t v =
  if t.size = Array.length t.buf then grow t;
  t.buf.((t.head + t.size) land (Array.length t.buf - 1)) <- Obj.repr v;
  t.size <- t.size + 1

let pop t =
  if t.size = 0 then invalid_arg "Ring.pop: empty";
  let v : Obj.t = t.buf.(t.head) in
  t.buf.(t.head) <- nil;
  t.head <- (t.head + 1) land (Array.length t.buf - 1);
  t.size <- t.size - 1;
  (Obj.obj v : _)

let pop_opt t = if t.size = 0 then None else Some (pop t)

let peek t =
  if t.size = 0 then invalid_arg "Ring.peek: empty";
  (Obj.obj t.buf.(t.head) : _)

let iter f t =
  let mask = Array.length t.buf - 1 in
  for i = 0 to t.size - 1 do
    f (Obj.obj t.buf.((t.head + i) land mask))
  done

let clear t =
  let mask = Array.length t.buf - 1 in
  for i = 0 to t.size - 1 do
    t.buf.((t.head + i) land mask) <- nil
  done;
  t.head <- 0;
  t.size <- 0

(* In-place filter, preserving order: compact kept elements toward the
   head.  Returns how many were dropped.  Cold path (reconfiguration). *)
let filter_in_place keep t =
  let mask = Array.length t.buf - 1 in
  let kept = ref 0 in
  for i = 0 to t.size - 1 do
    let v = t.buf.((t.head + i) land mask) in
    if keep (Obj.obj v) then begin
      t.buf.((t.head + !kept) land mask) <- v;
      incr kept
    end
  done;
  (* Vacate the tail slots left behind by the compaction. *)
  for i = !kept to t.size - 1 do
    t.buf.((t.head + i) land mask) <- nil
  done;
  let dropped = t.size - !kept in
  t.size <- !kept;
  dropped
