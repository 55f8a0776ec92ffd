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

   Layout: parallel arrays (the four key parts and the payload) instead of
   an array of entry records, so [push] and the [top_time] / [pop_into]
   pair allocate nothing.  Sifting moves a hole instead of swapping: each
   level writes one entry, not two.  Payload slots hold [Obj.t], as in
   Ring, so a vacated slot can be overwritten with an immediate: a popped
   payload is never pinned against the GC. *)

type 'a t = {
  mutable times : int array;
  mutable pushes : int array;
  mutable firsts : int array;
  mutable seqs : int array;
  mutable data : Obj.t array;
  mutable size : int;
}

let nil = Obj.repr 0
let create () = { times = [||]; pushes = [||]; firsts = [||]; seqs = [||]; data = [||]; size = 0 }

let length t = t.size
let is_empty t = t.size = 0

(* Annotated: unannotated, the comparisons would be polymorphic. *)
let key_before (time : int) (push : int) (first : int) (seq : int) (time' : int) (push' : int)
    (first' : int) (seq' : int) =
  time < time'
  || time = time'
     && (push < push' || (push = push' && (first > first' || (first = first' && seq < seq'))))

(* Entry [i] of [t] sorts before the key [(time, push, first, seq)]. *)
let[@inline] before t i time push first seq =
  key_before (Array.unsafe_get t.times i) (Array.unsafe_get t.pushes i)
    (Array.unsafe_get t.firsts i) (Array.unsafe_get t.seqs i) time push first seq

let[@inline] move t src dst =
  Array.unsafe_set t.times dst (Array.unsafe_get t.times src);
  Array.unsafe_set t.pushes dst (Array.unsafe_get t.pushes src);
  Array.unsafe_set t.firsts dst (Array.unsafe_get t.firsts src);
  Array.unsafe_set t.seqs dst (Array.unsafe_get t.seqs src);
  Array.unsafe_set t.data dst (Array.unsafe_get t.data src)

let[@inline] put t i time push first seq v =
  Array.unsafe_set t.times i time;
  Array.unsafe_set t.pushes i push;
  Array.unsafe_set t.firsts i first;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.data i v

let grow t =
  let cap = Array.length t.data in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let ints a =
    let n = Array.make ncap 0 in
    Array.blit a 0 n 0 t.size;
    n
  in
  let nd = Array.make ncap nil in
  Array.blit t.data 0 nd 0 t.size;
  t.times <- ints t.times;
  t.pushes <- ints t.pushes;
  t.firsts <- ints t.firsts;
  t.seqs <- ints t.seqs;
  t.data <- nd

(* Top-level, not local closures: a local recursive function capturing
   the key would allocate on every call. *)
let rec sift_up t i time push first seq =
  if i = 0 then 0
  else
    let parent = (i - 1) / 2 in
    if before t parent time push first seq then i
    else begin
      move t parent i;
      sift_up t parent time push first seq
    end

let rec sift_down t n i time push first seq =
  let l = (2 * i) + 1 in
  if l >= n then i
  else
    let c =
      if l + 1 < n
         && before t (l + 1) (Array.unsafe_get t.times l) (Array.unsafe_get t.pushes l)
              (Array.unsafe_get t.firsts l) (Array.unsafe_get t.seqs l)
      then l + 1
      else l
    in
    if before t c time push first seq then begin
      move t c i;
      sift_down t n c time push first seq
    end
    else i

let push t ~time ~push ~first ~seq v =
  if t.size = Array.length t.data then grow t;
  let i = sift_up t t.size time push first seq in
  t.size <- t.size + 1;
  put t i time push first seq (Obj.repr v)

let top_time t = if t.size = 0 then max_int else t.times.(0)

let before_top t time push first seq =
  t.size = 0 || key_before time push first seq t.times.(0) t.pushes.(0) t.firsts.(0) t.seqs.(0)

let min_of a b =
  if a.size = 0 then b
  else if b.size = 0 || before a 0 b.times.(0) b.pushes.(0) b.firsts.(0) b.seqs.(0) then a
  else b

type key = { mutable time : int; mutable push : int; mutable first : int; mutable seq : int }

(* Remove the minimum entry, copy its key into [k] and return its
   payload; the vacated tail slot is cleared.  One call instead of an
   accessor per key part: the simulator pops once per event. *)
let pop_into t k =
  if t.size = 0 then invalid_arg "Pqueue.pop_into: empty";
  k.time <- t.times.(0);
  k.push <- t.pushes.(0);
  k.first <- t.firsts.(0);
  k.seq <- t.seqs.(0);
  let top = t.data.(0) in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    let time = t.times.(n) and push = t.pushes.(n) and first = t.firsts.(n)
    and seq = t.seqs.(n) and v = t.data.(n) in
    put t (sift_down t n 0 time push first seq) time push first seq v
  end;
  Array.unsafe_set t.data n nil;
  (Obj.obj top : _)
