(* Binary min-heap of int payloads, ordered by an explicit four-part key:
   [time] ascending, [push] ascending, [first] descending, [seq]
   ascending.  The discrete-event simulator defines the parts (see
   Engine): the event time, the virtual time the event was pushed, the
   first-boundary time of the scheduler run it belongs to, and a sequence
   number.  The order is a pure function of the keys, not of insertion
   order, so an entry may be pushed late, or into another queue, without
   changing where it sorts.  Keys must be unique for the pop order to be
   fully determined.

   The heap is one [int array] of five-int rows, [time, push, first, seq,
   payload], so a sift step moves five ints: no [caml_modify], no
   float-array check.  Every helper that takes the rows annotates them as
   [int array]; left polymorphic, its stores would go through
   [caml_modify].  Sifts move a hole and compare times first, reading the
   tie-break parts only when two times are equal.  [pop_into] is Floyd's
   bottom-up pop: the root's hole walks down to a leaf, taking the smaller
   child as [l + Bool.to_int (t_r < t_l)] (a [setl], no branch) unless the
   times tie, and the last row sifts up from there.  The rows double from
   16 entries; [push] and [pop_into] allocate nothing otherwise. *)

type t = {
  mutable rows : int array;  (* [5 * capacity] *)
  mutable size : int;
}

let create () = { rows = [||]; size = 0 }
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

let[@inline] put (k : int array) i time push first seq v =
  let o = 5 * i in
  Array.unsafe_set k o time;
  Array.unsafe_set k (o + 1) push;
  Array.unsafe_set k (o + 2) first;
  Array.unsafe_set k (o + 3) seq;
  Array.unsafe_set k (o + 4) v

let grow t =
  let rows = Array.make (if t.size = 0 then 5 * 16 else 2 * Array.length t.rows) 0 in
  Array.blit t.rows 0 rows 0 (5 * t.size);
  t.rows <- rows

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

(* Floyd's walk: move the smaller child of the hole [i] into it until
   the hole has no child among the [n] rows; return the hole.  A tie in
   time goes to [walk_tie] by a tail call, so the walk makes no call
   that would make it spill its registers. *)
let rec walk_down (k : int array) n i =
  let l = (2 * i) + 1 in
  if l + 1 < n then begin
    let tl = Array.unsafe_get k (5 * l) and tr = Array.unsafe_get k ((5 * l) + 5) in
    if tl <> tr then begin
      let c = l + Bool.to_int (tr < tl) in
      move k c i;
      walk_down k n c
    end
    else walk_tie k n i l
  end
  else if l < n then begin
    move k l i;
    l
  end
  else i

and walk_tie (k : int array) n i l =
  let c = if row_before k (l + 1) l then l + 1 else l in
  move k c i;
  walk_down k n c

let push t ~time ~push ~first ~seq v =
  let n = t.size in
  if 5 * n = Array.length t.rows then grow t;
  let k = t.rows in
  put k (sift_up k n time push first seq) time push first seq v;
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
   payload.  One call instead of an accessor per key part: the simulator
   pops once per event. *)
let pop_into t key =
  let n = t.size - 1 in
  if n < 0 then invalid_arg "Pqueue.pop_into: empty";
  let k = t.rows in
  key.time <- Array.unsafe_get k 0;
  key.push <- Array.unsafe_get k 1;
  key.first <- Array.unsafe_get k 2;
  key.seq <- Array.unsafe_get k 3;
  let v = Array.unsafe_get k 4 in
  t.size <- n;
  if n > 0 then begin
    let o = 5 * n in
    let time = Array.unsafe_get k o and push = Array.unsafe_get k (o + 1)
    and first = Array.unsafe_get k (o + 2) and seq = Array.unsafe_get k (o + 3)
    and last = Array.unsafe_get k (o + 4) in
    put k (sift_up k (walk_down k n 0) time push first seq) time push first seq last
  end;
  v
