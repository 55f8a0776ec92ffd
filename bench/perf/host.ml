(* Host-side measurements, taken from outside the library: the wall and
   process-CPU clocks, peak resident memory, and the order statistics every
   reported number goes through. *)

let wall_ns = Parcae_native.Calibrate.now_ns

(* User + system CPU of the whole process — every domain and systhread —
   so a native run's worker domains and the generator thread count too
   (OCaml's [Unix.times] reads getrusage, microsecond resolution). *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Host speed.  On a shared host, other tenants' work on the same physical
   cores slows this process down by up to 2x, in episodes from a fraction
   of a second to minutes, and the CPU clock charges all of it to the
   program: raw CPU per request spread 11-38% across ten runs.  [slowdown]
   times a fixed, allocation-free piece of work — 2^18 word stores streamed
   over a 1 MB buffer, which stresses the cache path the way minor-heap
   allocation does — and divides by what it takes on a quiet host.  Of the
   probes tried (pointer chasing in 2 and 8 MB, map and hash lookups,
   streams over 0.5-4 MB) this one tracked the sim workloads' own slowdown
   best: dividing 0.1 s slices of fixed ferret work by it cut their
   interquartile spread from 32% to 4%.  It allocates nothing, so it neither
   depends on nor changes the program's heap. *)
let probe_buf = Array.make (1 lsl 17) 0
let probe_words = 1 lsl 18

(* The probe's time in the quiet stretches of a 2.1 GHz Xeon VM (its 5th
   percentile over 1 500 samples): only a unit, it cancels in every spread. *)
let probe_quiet_s = 2.2e-4

let slowdown () =
  let mask = Array.length probe_buf - 1 in
  let c0 = cpu_s () in
  for i = 0 to probe_words - 1 do
    Array.unsafe_set probe_buf (i land mask) i
  done;
  (cpu_s () -. c0) /. probe_quiet_s

(* What [cost], timed between probes that read [before] and [after], would
   have been on a quiet host, for a workload whose cost grows as the
   probe's slowdown to the power [sensitivity] (Workloads.t). *)
let on_quiet_host ~sensitivity cost ~before ~after =
  cost /. (((before +. after) /. 2.0) ** sensitivity)

(* VmHWM, the process's peak resident set, in MB (10^6 bytes). *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "/proc/self/status has no VmHWM line"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb *. 1024.0 /. 1e6)
        | Some _ -> scan ()
      in
      scan ())

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Host.median: empty"
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartiles by the "exclusive" method of Python's
   [statistics.quantiles(xs, n=4)], so spreads printed here match the ones
   an external checker computes from the same values. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Host.quartiles: empty"
  else if n = 1 then (a.(0), a.(0))
  else begin
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 3)
  end

(* Interquartile distance as a share of the median: the run-to-run spread
   every bound is sized against. *)
let spread xs =
  let q1, q3 = quartiles xs in
  let m = median xs in
  if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m
