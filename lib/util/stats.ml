(* Descriptive statistics over float samples.  Used by Decima for
   moving-average throughput estimates and by the benchmark harness for
   response-time percentiles. *)

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    acc /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

(* [percentile p xs] for p in [0, 100], by linear interpolation between
   closest ranks.  Does not mutate its argument. *)
let percentile p xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty sample";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  (* Float.compare, not polymorphic compare: it gives NaNs a total order
     (before every number), so a sample containing NaN still sorts
     deterministically instead of depending on input order. *)
  Array.sort Float.compare sorted;
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let w = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. w)) +. (sorted.(hi) *. w)
  end

let median xs = percentile 50.0 xs

let min_max xs =
  if Array.length xs = 0 then invalid_arg "Stats.min_max: empty sample";
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0)) xs

let geomean xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let acc = Array.fold_left (fun acc x -> acc +. log x) 0.0 xs in
    exp (acc /. float_of_int n)
  end

(* Exponentially-weighted moving average, the estimator Decima uses for task
   throughput: cheap, O(1) state, and responsive to workload change. *)
module Ewma = struct
  type t = { alpha : float; mutable value : float; mutable primed : bool }

  let create ~alpha =
    if alpha <= 0.0 || alpha > 1.0 then invalid_arg "Ewma.create: alpha in (0,1]";
    { alpha; value = 0.0; primed = false }

  let observe t x =
    if t.primed then t.value <- (t.alpha *. x) +. ((1.0 -. t.alpha) *. t.value)
    else begin
      t.value <- x;
      t.primed <- true
    end

  let value t = t.value
  let primed t = t.primed
  let reset t = t.primed <- false
end

(* Bounded uniform sample of an unbounded observation stream (Vitter's
   Algorithm R) with exact running aggregates.  The benchmark harness keeps
   response times here so percentile reporting stays O(capacity) memory no
   matter how long a server run is.  Replacement indices come from a
   fixed-seed 64-bit LCG, so same-seed runs keep byte-identical samples. *)
module Reservoir = struct
  type t = {
    buf : float array;
    mutable n : int;  (* observations ever seen *)
    mutable len : int;  (* filled slots, <= capacity *)
    mutable sum : float;
    mutable min_v : float;
    mutable max_v : float;
    mutable state : int64;  (* LCG state *)
  }

  let default_capacity = 8192

  let create ?(capacity = default_capacity) ?(seed = 1) () =
    if capacity <= 0 then invalid_arg "Reservoir.create: capacity must be positive";
    {
      buf = Array.make capacity 0.0;
      n = 0;
      len = 0;
      sum = 0.0;
      min_v = infinity;
      max_v = neg_infinity;
      state = Int64.of_int seed;
    }

  (* Knuth's MMIX LCG; the high bits feed the bounded draw. *)
  let draw t bound =
    t.state <- Int64.add (Int64.mul t.state 6364136223846793005L) 1442695040888963407L;
    Int64.to_int (Int64.shift_right_logical t.state 17) mod bound

  let observe t x =
    t.n <- t.n + 1;
    t.sum <- t.sum +. x;
    if x < t.min_v then t.min_v <- x;
    if x > t.max_v then t.max_v <- x;
    let cap = Array.length t.buf in
    if t.len < cap then begin
      t.buf.(t.len) <- x;
      t.len <- t.len + 1
    end
    else begin
      let j = draw t t.n in
      if j < cap then t.buf.(j) <- x
    end

  let count t = t.n
  let sample_count t = t.len
  let capacity t = Array.length t.buf
  let sum t = t.sum
  let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n

  let samples t = Array.sub t.buf 0 t.len

  let percentile p t = percentile p (samples t)

  let min_max t =
    if t.n = 0 then invalid_arg "Stats.Reservoir.min_max: empty sample";
    (t.min_v, t.max_v)

  let reset t =
    t.n <- 0;
    t.len <- 0;
    t.sum <- 0.0;
    t.min_v <- infinity;
    t.max_v <- neg_infinity
end
