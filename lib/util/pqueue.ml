(* Binary min-heap priority queue ordered by an explicit four-part key:

     1. [time], ascending;
     2. [push], ascending;
     3. [first], descending;
     4. [seq], ascending.

   The discrete-event simulator defines the parts (see Engine): the event
   time, the virtual time the event was pushed, the first-boundary time of
   the scheduler run it belongs to, and a sequence number.  The order is a
   pure function of the keys, not of insertion order, so an entry may be
   pushed late, or into another queue, without changing where it sorts.
   Keys must be unique for the pop order to be fully determined.

   Layout: the heap is one [int array] of five-int rows, [time, push,
   first, seq, slot], and the payloads live in a slot table that the
   heap never reorders.  [push] writes its payload into a free slot once
   and [pop_into] reads it back once, so a sift step moves five ints and
   no pointer: no [caml_modify], no float-array check.  Sifting moves a
   hole instead of swapping, and compares times first: the tie-break
   parts are read only when two times are equal.  Every helper that takes
   the row array annotates it as [int array]; left polymorphic, its
   accesses compile to generic ones and each store goes through
   [caml_modify].

   The free slots are a stack kept in [free.(size) .. free.(cap - 1)]:
   [push] takes [free.(size)] and [pop_into] returns its slot to the
   position it vacates.  A popped slot is overwritten with an immediate,
   so a popped payload is never pinned against the GC.  The three arrays
   double together from 16 entries; [push] and the [top_time] /
   [pop_into] pair allocate nothing otherwise. *)

type 'a t = {
  mutable rows : int array;  (* [5 * cap] *)
  mutable payloads : Obj.t array;  (* [cap], by slot *)
  mutable free : int array;  (* [cap]; the free slots from index [size] *)
  mutable size : int;
}

let nil = Obj.repr 0
let create () = { rows = [||]; payloads = [||]; free = [||]; size = 0 }

let length t = t.size
let is_empty t = t.size = 0

(* Annotated: unannotated, the comparisons would be polymorphic. *)
let key_before (time : int) (push : int) (first : int) (seq : int) (time' : int) (push' : int)
    (first' : int) (seq' : int) =
  time < time'
  || time = time'
     && (push < push' || (push = push' && (first > first' || (first = first' && seq < seq'))))

(* Row [i] sorts before the key [(time, push, first, seq)]. *)
let[@inline] before (k : int array) i time push first seq =
  let o = 5 * i in
  let t = Array.unsafe_get k o in
  t < time
  || t = time
     && key_before t (Array.unsafe_get k (o + 1)) (Array.unsafe_get k (o + 2))
          (Array.unsafe_get k (o + 3)) time push first seq

(* Row [i] sorts before row [j]. *)
let[@inline] row_before (k : int array) i j =
  let o = 5 * i and p = 5 * j in
  let t = Array.unsafe_get k o and t' = Array.unsafe_get k p in
  t < t'
  || t = t'
     && key_before t (Array.unsafe_get k (o + 1)) (Array.unsafe_get k (o + 2))
          (Array.unsafe_get k (o + 3)) t' (Array.unsafe_get k (p + 1)) (Array.unsafe_get k (p + 2))
          (Array.unsafe_get k (p + 3))

let[@inline] move (k : int array) src dst =
  let s = 5 * src and d = 5 * dst in
  Array.unsafe_set k d (Array.unsafe_get k s);
  Array.unsafe_set k (d + 1) (Array.unsafe_get k (s + 1));
  Array.unsafe_set k (d + 2) (Array.unsafe_get k (s + 2));
  Array.unsafe_set k (d + 3) (Array.unsafe_get k (s + 3));
  Array.unsafe_set k (d + 4) (Array.unsafe_get k (s + 4))

let[@inline] put (k : int array) i time push first seq slot =
  let o = 5 * i in
  Array.unsafe_set k o time;
  Array.unsafe_set k (o + 1) push;
  Array.unsafe_set k (o + 2) first;
  Array.unsafe_set k (o + 3) seq;
  Array.unsafe_set k (o + 4) slot

(* Called when every slot is taken, so the new free stack holds exactly
   the new slots. *)
let grow t =
  let cap = t.size in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let rows = Array.make (5 * ncap) 0 and payloads = Array.make ncap nil in
  Array.blit t.rows 0 rows 0 (5 * cap);
  Array.blit t.payloads 0 payloads 0 cap;
  t.rows <- rows;
  t.payloads <- payloads;
  t.free <- Array.init ncap Fun.id

(* Top-level, not local closures: a local recursive function capturing
   the key would allocate on every call. *)
let rec sift_up (k : int array) i time push first seq =
  if i = 0 then 0
  else
    let parent = (i - 1) / 2 in
    if before k parent time push first seq then i
    else begin
      move k parent i;
      sift_up k parent time push first seq
    end

let rec sift_down (k : int array) n i time push first seq =
  let l = (2 * i) + 1 in
  if l >= n then i
  else
    let c = if l + 1 < n && row_before k (l + 1) l then l + 1 else l in
    if before k c time push first seq then begin
      move k c i;
      sift_down k n c time push first seq
    end
    else i

let push t ~time ~push ~first ~seq v =
  let n = t.size in
  if n = Array.length t.payloads then grow t;
  let slot = Array.unsafe_get t.free n in
  Array.unsafe_set t.payloads slot (Obj.repr v);
  let k = t.rows in
  put k (sift_up k n time push first seq) time push first seq slot;
  t.size <- n + 1

let top_time t = if t.size = 0 then max_int else t.rows.(0)

let before_top t time push first seq =
  t.size = 0
  ||
  let k = t.rows in
  key_before time push first seq k.(0) k.(1) k.(2) k.(3)

let min_of a b =
  if a.size = 0 then b
  else if b.size = 0 then a
  else
    let ka = a.rows and kb = b.rows in
    let ta = ka.(0) and tb = kb.(0) in
    if ta < tb || (ta = tb && key_before ta ka.(1) ka.(2) ka.(3) tb kb.(1) kb.(2) kb.(3)) then a
    else b

type key = { mutable time : int; mutable push : int; mutable first : int; mutable seq : int }

(* Remove the minimum entry, copy its key into [key] and return its
   payload, whose slot is cleared and freed.  One call instead of an
   accessor per key part: the simulator pops once per event. *)
let pop_into t key =
  let n = t.size - 1 in
  if n < 0 then invalid_arg "Pqueue.pop_into: empty";
  let k = t.rows in
  key.time <- Array.unsafe_get k 0;
  key.push <- Array.unsafe_get k 1;
  key.first <- Array.unsafe_get k 2;
  key.seq <- Array.unsafe_get k 3;
  let slot = Array.unsafe_get k 4 in
  let v = Array.unsafe_get t.payloads slot in
  Array.unsafe_set t.payloads slot nil;
  Array.unsafe_set t.free n slot;
  t.size <- n;
  if n > 0 then begin
    let o = 5 * n in
    let time = Array.unsafe_get k o and push = Array.unsafe_get k (o + 1)
    and first = Array.unsafe_get k (o + 2) and seq = Array.unsafe_get k (o + 3)
    and slot = Array.unsafe_get k (o + 4) in
    put k (sift_down k n 0 time push first seq) time push first seq slot
  end;
  (Obj.obj v : _)
