(* Deterministic pseudo-random number generation for reproducible
   simulations.  The generator is splitmix64: a tiny, fast, statistically
   solid 64-bit generator that supports cheap splitting, which we use to give
   every simulated entity (load generator, per-task jitter, ...) an
   independent stream derived from one experiment seed. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* Core splitmix64 step: advance the state and scramble it into an output. *)
let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Derive an independent stream.  Mixing the parent's next output into a new
   state is the standard splitmix splitting construction. *)
let split t = { state = next_int64 t }

(* Uniform float in [0, 1).  Uses the top 53 bits so the result is an exactly
   representable dyadic rational. *)
let float t =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

(* Uniform int in [0, bound). *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the value fits OCaml's native non-negative int range. *)
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

(* Exponentially distributed draw with the given [rate] (mean 1/rate); used
   for Poisson inter-arrival times in the load generator. *)
let exponential t ~rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential: rate must be positive";
  let u = float t in
  (* 1 - u is in (0, 1], so log is finite. *)
  -.log (1.0 -. u) /. rate

(* Gaussian draw via Box-Muller; used for per-iteration work-time jitter. *)
let gaussian t ~mu ~sigma =
  let u1 = float t and u2 = float t in
  let u1 = if u1 < 1e-300 then 1e-300 else u1 in
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

(* Uniform float in [lo, hi). *)
let uniform t ~lo ~hi = lo +. ((hi -. lo) *. float t)

(* Fisher-Yates shuffle of an array, in place. *)
let shuffle t arr =
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
