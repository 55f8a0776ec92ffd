(* Chase–Lev work-stealing deque.

   One owner domain pushes and pops at the bottom (LIFO); any number of
   thief domains steal from the top (FIFO).  The owner's push/pop are
   wait-free except for the single-element race, which is resolved by one
   CAS on [top]; steals are lock-free: a thief that loses the CAS returns
   [Contended] and is expected to pick another victim rather than spin.

   Memory model: [top], [bottom], the buffer pointer and every cell are
   OCaml atomics, so all accesses are data-race free and the standard
   Chase–Lev argument carries over unchanged: a cell is only reused after
   [top] has passed it, so a thief that read a stale value always fails
   its CAS and discards it.  Cells hold ['a option] so the owner can drop
   references on pop (bounded garbage: a stolen cell keeps its value alive
   only until the slot is reused).

   Grow-on-overflow: the buffer doubles when full.  The old buffer is
   immutable from the moment it is replaced; thieves still holding it read
   valid (copied) entries for any index their CAS can win. *)

type 'a t = {
  top : int Atomic.t;  (* next index to steal *)
  bottom : int Atomic.t;  (* next index to push *)
  buf : 'a option Atomic.t array Atomic.t;  (* circular, length a power of 2 *)
}

type 'a steal_result = Stolen of 'a | Empty | Contended

let min_capacity = 16

let make_buf n = Array.init n (fun _ -> Atomic.make None)

let create () =
  {
    top = Atomic.make 0;
    bottom = Atomic.make 0;
    buf = Atomic.make (make_buf min_capacity);
  }

(* Owner-side size; thieves may see it lag by their in-flight steals. *)
let size d = Int.max 0 (Atomic.get d.bottom - Atomic.get d.top)
let is_empty d = size d = 0

let grow d b t =
  let old = Atomic.get d.buf in
  let n = Array.length old in
  let nw = make_buf (2 * n) in
  for i = t to b - 1 do
    Atomic.set nw.(i land ((2 * n) - 1)) (Atomic.get old.(i land (n - 1)))
  done;
  Atomic.set d.buf nw

let push d v =
  let b = Atomic.get d.bottom in
  let t = Atomic.get d.top in
  let buf = Atomic.get d.buf in
  if b - t >= Array.length buf - 1 then grow d b t;
  let buf = Atomic.get d.buf in
  Atomic.set buf.(b land (Array.length buf - 1)) (Some v);
  Atomic.set d.bottom (b + 1)

let pop d =
  let b = Atomic.get d.bottom - 1 in
  Atomic.set d.bottom b;
  let t = Atomic.get d.top in
  if b < t then begin
    (* Empty: restore the canonical bottom = top. *)
    Atomic.set d.bottom t;
    None
  end
  else begin
    let buf = Atomic.get d.buf in
    let cell = buf.(b land (Array.length buf - 1)) in
    let v = Atomic.get cell in
    if b > t then begin
      (* More than one element: no thief can reach index b. *)
      Atomic.set cell None;
      v
    end
    else begin
      (* Last element: race the thieves for it with one CAS on top. *)
      let won = Atomic.compare_and_set d.top t (t + 1) in
      Atomic.set d.bottom (t + 1);
      if won then begin
        Atomic.set cell None;
        v
      end
      else None
    end
  end

let steal d =
  let t = Atomic.get d.top in
  let b = Atomic.get d.bottom in
  if t >= b then Empty
  else begin
    let buf = Atomic.get d.buf in
    let v = Atomic.get buf.(t land (Array.length buf - 1)) in
    if Atomic.compare_and_set d.top t (t + 1) then
      match v with
      | Some x -> Stolen x
      | None ->
          (* Unreachable: a cell in [top, bottom) is always populated
             before bottom is published past it. *)
          assert false
    else Contended
  end
