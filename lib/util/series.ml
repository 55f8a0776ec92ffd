(* Append-only time series of [(time, value)] samples.  Decima and the
   benchmark harness use these to record throughput/power/DoP timelines, and
   the figure printers downsample them into the rows the paper plots. *)

type t = {
  name : string;
  mutable times : float array;
  mutable values : float array;
  mutable len : int;
}

let create name = { name; times = [||]; values = [||]; len = 0 }

let name t = t.name
let length t = t.len

let add t ~time ~value =
  let cap = Array.length t.times in
  if t.len = cap then begin
    let ncap = if cap = 0 then 64 else cap * 2 in
    let ntimes = Array.make ncap 0.0 and nvalues = Array.make ncap 0.0 in
    Array.blit t.times 0 ntimes 0 t.len;
    Array.blit t.values 0 nvalues 0 t.len;
    t.times <- ntimes;
    t.values <- nvalues
  end;
  t.times.(t.len) <- time;
  t.values.(t.len) <- value;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Series.get: index out of bounds";
  (t.times.(i), t.values.(i))

let times t = Array.sub t.times 0 t.len
let values t = Array.sub t.values 0 t.len

let iter t f =
  for i = 0 to t.len - 1 do
    f t.times.(i) t.values.(i)
  done

let last t = if t.len = 0 then None else Some (t.times.(t.len - 1), t.values.(t.len - 1))

(* Downsample into [buckets] equal-width time buckets over [t0, t1],
   averaging the values in each bucket.  Buckets with no samples repeat the
   previous bucket's value so plotted series stay continuous. *)
let bucketed t ~t0 ~t1 ~buckets =
  if buckets <= 0 then invalid_arg "Series.bucketed: buckets must be positive";
  let width = (t1 -. t0) /. float_of_int buckets in
  let sums = Array.make buckets 0.0 and counts = Array.make buckets 0 in
  iter t (fun time v ->
      if time >= t0 && time < t1 then begin
        let b = int_of_float ((time -. t0) /. width) in
        let b = if b >= buckets then buckets - 1 else b in
        sums.(b) <- sums.(b) +. v;
        counts.(b) <- counts.(b) + 1
      end);
  let out = Array.make buckets (t0, 0.0) in
  let prev = ref 0.0 in
  for b = 0 to buckets - 1 do
    let v = if counts.(b) > 0 then sums.(b) /. float_of_int counts.(b) else !prev in
    prev := v;
    out.(b) <- (t0 +. ((float_of_int b +. 0.5) *. width), v)
  done;
  out
