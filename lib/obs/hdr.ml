(* Fixed-precision streaming histogram with log-linear (HDR-style) buckets.

   Values are non-negative integers (nanoseconds on every current call
   site).  The value range [0, 2^m) is covered by one bucket per integer
   ("linear region"); above that, each power-of-two octave [2^k, 2^(k+1))
   is split into 2^m equal sub-buckets, so the bucket width at value v is
   at most v / 2^m and any quantile estimate carries a relative error of
   at most 1/2^m.  The resolution is fixed at m = 7: under 1% at ~57 KB
   of int array — no per-observation allocation, mergeable by
   bucket-count addition, and safe to read concurrently with writers
   (reads may see a torn *distribution* mid-update but never a torn
   bucket, which is all the quantile math needs). *)

let sub_bits = 7  (* m: relative error <= 1/2^m *)
let sub_count = 1 lsl sub_bits

type t = {
  counts : int array;  (* (64 - m) * 2^m buckets *)
  mutable count : int;  (* total observations *)
  mutable sum : int;  (* sum of observed values (clamped to >= 0 each) *)
  mutable max_v : int;  (* largest observed value, -1 when empty *)
}

let create () =
  { counts = Array.make ((64 - sub_bits) * sub_count) 0; count = 0; sum = 0; max_v = -1 }

(* Index of the most significant set bit of [v] (v > 0), by shift cascade:
   no dependency on any stdlib clz, and branch-predictable on the hot
   path because latencies cluster within a few octaves. *)
let msb v =
  let v = ref v and k = ref 0 in
  if !v lsr 32 <> 0 then begin
    k := !k + 32;
    v := !v lsr 32
  end;
  if !v lsr 16 <> 0 then begin
    k := !k + 16;
    v := !v lsr 16
  end;
  if !v lsr 8 <> 0 then begin
    k := !k + 8;
    v := !v lsr 8
  end;
  if !v lsr 4 <> 0 then begin
    k := !k + 4;
    v := !v lsr 4
  end;
  if !v lsr 2 <> 0 then begin
    k := !k + 2;
    v := !v lsr 2
  end;
  if !v lsr 1 <> 0 then k := !k + 1;
  !k

(* Bucket index for value [v] >= 0.  Linear below 2^m; above, octave k
   contributes 2^m sub-buckets of width 2^(k-m). *)
let index v =
  if v < sub_count then v
  else
    let shift = msb v - sub_bits in
    (shift * sub_count) + (v lsr shift)

(* Inclusive upper bound of bucket [idx] — the value reported for any
   quantile landing in that bucket, so estimates never undershoot. *)
let bucket_upper idx =
  if idx < sub_count then idx
  else
    let off = idx - sub_count in
    let shift = off / sub_count and sub = off mod sub_count in
    ((sub_count + sub) lsl shift) + (1 lsl shift) - 1

let observe t v =
  let v = if v < 0 then 0 else v in
  let i = index v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v > t.max_v then t.max_v <- v

let count t = t.count
let sum t = t.sum
let max_value t = if t.count = 0 then 0 else t.max_v
let mean t = if t.count = 0 then 0.0 else float_of_int t.sum /. float_of_int t.count

(* Quantile estimate: the inclusive upper bound of the bucket holding the
   rank-(ceil q*count) observation, clamped to the observed max so p100
   is exact and no estimate exceeds any observed value's octave bound. *)
let quantile t q =
  if t.count = 0 then 0
  else begin
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    let rank = int_of_float (ceil (q *. float_of_int t.count)) in
    let rank = if rank < 1 then 1 else rank in
    let acc = ref 0 and idx = ref (-1) and i = ref 0 in
    let n = Array.length t.counts in
    while !idx < 0 && !i < n do
      acc := !acc + t.counts.(!i);
      if !acc >= rank then idx := !i;
      incr i
    done;
    let v = if !idx < 0 then t.max_v else bucket_upper !idx in
    if v > t.max_v then t.max_v else v
  end

let merge ~into src =
  Array.iteri (fun i c -> if c > 0 then into.counts.(i) <- into.counts.(i) + c) src.counts;
  into.count <- into.count + src.count;
  into.sum <- into.sum + src.sum;
  if src.max_v > into.max_v then into.max_v <- src.max_v

let clear t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.count <- 0;
  t.sum <- 0;
  t.max_v <- -1
