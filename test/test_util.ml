(* Unit and property tests for Parcae_util: RNG, statistics, priority queue,
   ring buffer, time series, table rendering. *)

open Parcae_util

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  int_of_float (Gc.minor_words () -. before)

(* ---------------------------- Rng ---------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_float "same stream" (Rng.float a) (Rng.float b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xa = Rng.float a and xb = Rng.float b in
  Alcotest.(check bool) "split streams differ" true (xa <> xb)

let test_rng_float_range () =
  let r = Rng.create 1 in
  for _ = 1 to 1000 do
    let x = Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_rng_int_range () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Rng.int r 17 in
    Alcotest.(check bool) "in [0,17)" true (x >= 0 && x < 17)
  done

let test_rng_exponential_mean () =
  let r = Rng.create 11 in
  let n = 20_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Rng.exponential r ~rate:2.0
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.3f close to 0.5" mean)
    true
    (abs_float (mean -. 0.5) < 0.02)

let test_rng_gaussian_moments () =
  let r = Rng.create 13 in
  let n = 20_000 in
  let xs = Array.init n (fun _ -> Rng.gaussian r ~mu:5.0 ~sigma:2.0) in
  Alcotest.(check bool) "mean ~5" true (abs_float (Stats.mean xs -. 5.0) < 0.1);
  Alcotest.(check bool) "stddev ~2" true (abs_float (Stats.stddev xs -. 2.0) < 0.1)

(* --------------------------- Stats --------------------------- *)

let test_stats_basic () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "mean" 2.5 (Stats.mean xs);
  check_float "median" 2.5 (Stats.median xs);
  check_float "p0" 1.0 (Stats.percentile 0.0 xs);
  check_float "p100" 4.0 (Stats.percentile 100.0 xs);
  let lo, hi = Stats.min_max xs in
  check_float "min" 1.0 lo;
  check_float "max" 4.0 hi

let test_stats_variance () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  (* Sample variance of this classic example is 32/7. *)
  check_float "variance" (32.0 /. 7.0) (Stats.variance xs)

let test_stats_geomean () =
  check_float "geomean" 2.0 (Stats.geomean [| 1.0; 2.0; 4.0 |])

let test_stats_empty_contract () =
  (* Aggregates degrade to 0.0 on empty input; order statistics raise. *)
  check_float "empty mean is 0" 0.0 (Stats.mean [||]);
  check_float "empty variance is 0" 0.0 (Stats.variance [||]);
  check_float "empty stddev is 0" 0.0 (Stats.stddev [||]);
  check_float "empty geomean is 0" 0.0 (Stats.geomean [||]);
  Alcotest.check_raises "empty percentile raises"
    (Invalid_argument "Stats.percentile: empty sample") (fun () ->
      ignore (Stats.percentile 50.0 [||]));
  Alcotest.check_raises "empty median raises"
    (Invalid_argument "Stats.percentile: empty sample") (fun () -> ignore (Stats.median [||]));
  Alcotest.check_raises "empty min_max raises"
    (Invalid_argument "Stats.min_max: empty sample") (fun () -> ignore (Stats.min_max [||]));
  Alcotest.check_raises "p out of range raises"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile 101.0 [| 1.0 |]))

let test_stats_single_element () =
  (* One sample is every percentile of itself. *)
  List.iter
    (fun p -> check_float (Printf.sprintf "p%.0f of singleton" p) 7.5
        (Stats.percentile p [| 7.5 |]))
    [ 0.0; 25.0; 50.0; 95.0; 100.0 ];
  check_float "singleton median" 7.5 (Stats.median [| 7.5 |]);
  let lo, hi = Stats.min_max [| 7.5 |] in
  check_float "singleton min" 7.5 lo;
  check_float "singleton max" 7.5 hi;
  check_float "singleton variance" 0.0 (Stats.variance [| 7.5 |])

let test_stats_nan_ordering () =
  (* Float.compare gives NaN a total order (before every number), so a
     NaN-polluted sample still sorts deterministically: the answer depends
     only on the multiset of values, not on their input order. *)
  let a = [| nan; 3.0; 1.0; 2.0 |] and b = [| 2.0; 1.0; nan; 3.0 |] in
  let pa = Stats.percentile 75.0 a and pb = Stats.percentile 75.0 b in
  check_float "input order irrelevant with NaN" pa pb;
  (* NaN sorts first, so p100 is still the largest real number. *)
  check_float "p100 ignores NaN position" 3.0 (Stats.percentile 100.0 a);
  Alcotest.(check bool) "p0 is the NaN" true (Float.is_nan (Stats.percentile 0.0 a))

let test_reservoir_exact_until_capacity () =
  let r = Stats.Reservoir.create ~capacity:8 () in
  check_float "empty reservoir mean is 0" 0.0 (Stats.Reservoir.mean r);
  Alcotest.check_raises "empty reservoir min_max raises"
    (Invalid_argument "Stats.Reservoir.min_max: empty sample") (fun () ->
      ignore (Stats.Reservoir.min_max r));
  List.iter (Stats.Reservoir.observe r) [ 4.0; 1.0; 3.0; 2.0 ];
  (* Below capacity the reservoir is the exact sample. *)
  check_int "count" 4 (Stats.Reservoir.count r);
  check_int "all retained" 4 (Stats.Reservoir.sample_count r);
  check_float "exact sum" 10.0 (Stats.Reservoir.sum r);
  check_float "exact mean" 2.5 (Stats.Reservoir.mean r);
  check_float "exact median" 2.5 (Stats.Reservoir.percentile 50.0 r);
  let lo, hi = Stats.Reservoir.min_max r in
  check_float "exact min" 1.0 lo;
  check_float "exact max" 4.0 hi

let test_reservoir_bounded_beyond_capacity () =
  let cap = 64 in
  let r = Stats.Reservoir.create ~capacity:cap ~seed:3 () in
  let n = 10_000 in
  for i = 1 to n do
    Stats.Reservoir.observe r (float_of_int i)
  done;
  check_int "sees every observation" n (Stats.Reservoir.count r);
  check_int "memory stays bounded" cap (Stats.Reservoir.sample_count r);
  (* Aggregates stay exact even after subsampling kicks in... *)
  check_float "sum exact" (float_of_int (n * (n + 1) / 2)) (Stats.Reservoir.sum r);
  check_float "mean exact" (float_of_int (n + 1) /. 2.0) (Stats.Reservoir.mean r);
  let lo, hi = Stats.Reservoir.min_max r in
  check_float "min exact" 1.0 lo;
  check_float "max exact" (float_of_int n) hi;
  (* ...while percentiles become estimates over a uniform subsample. *)
  let p50 = Stats.Reservoir.percentile 50.0 r in
  Alcotest.(check bool)
    (Printf.sprintf "median estimate %.0f within the data range" p50)
    true
    (p50 >= 1.0 && p50 <= float_of_int n);
  (* Same seed, same stream: byte-identical retained samples. *)
  let r2 = Stats.Reservoir.create ~capacity:cap ~seed:3 () in
  for i = 1 to n do
    Stats.Reservoir.observe r2 (float_of_int i)
  done;
  Alcotest.(check bool) "deterministic subsample" true
    (Stats.Reservoir.samples r = Stats.Reservoir.samples r2);
  Stats.Reservoir.reset r;
  check_int "reset forgets the stream" 0 (Stats.Reservoir.count r);
  check_int "reset empties the sample" 0 (Stats.Reservoir.sample_count r)

(* Vitter's Algorithm R is driven entirely by the reservoir's own RNG, so a
   fixed seed must make the whole observable surface — retained sample,
   every percentile, extremes — reproducible run to run.  The flight
   recorder's replay guarantee leans on this: percentiles recorded in a log
   can be regenerated offline from the same stream. *)
let test_reservoir_seeded_determinism () =
  let stream r =
    for i = 1 to 5_000 do
      Stats.Reservoir.observe r (float_of_int ((i * 7919) mod 1000))
    done
  in
  let make seed =
    let r = Stats.Reservoir.create ~capacity:32 ~seed () in
    stream r;
    r
  in
  let a = make 17 and b = make 17 in
  Alcotest.(check bool) "same seed: identical retained samples" true
    (Stats.Reservoir.samples a = Stats.Reservoir.samples b);
  List.iter
    (fun p ->
      check_float
        (Printf.sprintf "same seed: identical p%.0f" p)
        (Stats.Reservoir.percentile p a)
        (Stats.Reservoir.percentile p b))
    [ 0.0; 25.0; 50.0; 90.0; 99.0; 100.0 ];
  let lo_a, hi_a = Stats.Reservoir.min_max a and lo_b, hi_b = Stats.Reservoir.min_max b in
  check_float "same seed: identical min" lo_a lo_b;
  check_float "same seed: identical max" hi_a hi_b;
  (* A different seed keeps a different subsample of the same stream (the
     aggregates stay exact regardless). *)
  let c = make 18 in
  Alcotest.(check bool) "different seed: different subsample" true
    (Stats.Reservoir.samples a <> Stats.Reservoir.samples c);
  check_float "sum independent of seed" (Stats.Reservoir.sum a) (Stats.Reservoir.sum c)

let test_ewma () =
  let e = Stats.Ewma.create ~alpha:0.5 in
  Alcotest.(check bool) "not primed" false (Stats.Ewma.primed e);
  Stats.Ewma.observe e 10.0;
  check_float "first observation taken as-is" 10.0 (Stats.Ewma.value e);
  Stats.Ewma.observe e 20.0;
  check_float "decayed" 15.0 (Stats.Ewma.value e)

(* --------------------------- Pqueue -------------------------- *)

(* Drain [q], returning the payloads in pop order. *)
let pqueue_drain q =
  let k = { Pqueue.time = 0; push = 0; first = 0; seq = 0 } in
  let rec go acc = if Pqueue.is_empty q then List.rev acc else go (Pqueue.pop_into q k :: acc) in
  go []

let test_pqueue_order () =
  (* Time first, then push time, then first-boundary time descending,
     then sequence number; insertion order plays no part. *)
  let q = Pqueue.create () in
  let add (time, push, first, seq) v = Pqueue.push q ~time ~push ~first ~seq v in
  add (5, 0, 5, 0) 6;
  add (1, 0, 1, 9) 3;
  add (3, 1, 3, 1) 5;
  add (1, 0, 1, 2) 2;
  add (3, 0, 0, 7) 4;
  add (1, 0, 3, 8) 1;
  Alcotest.(check (list int)) "four-part key order" [ 1; 2; 3; 4; 5; 6 ] (pqueue_drain q)

let test_pqueue_peek () =
  let q = Pqueue.create () in
  Alcotest.(check bool) "empty" true (Pqueue.is_empty q);
  check_int "empty top_time" max_int (Pqueue.top_time q);
  Pqueue.push q ~time:9 ~push:0 ~first:9 ~seq:0 90;
  Pqueue.push q ~time:2 ~push:1 ~first:2 ~seq:1 20;
  check_int "min time" 2 (Pqueue.top_time q);
  check_int "length" 2 (Pqueue.length q);
  let r = Pqueue.create () in
  Alcotest.(check bool) "an empty queue loses" true (Pqueue.min_of r q == q);
  Pqueue.push r ~time:2 ~push:0 ~first:2 ~seq:5 25;
  Alcotest.(check bool) "min_of compares whole keys" true (Pqueue.min_of q r == r);
  let k = { Pqueue.time = 0; push = 0; first = 0; seq = 0 } in
  check_int "pop_into payload" 20 (Pqueue.pop_into q k);
  Alcotest.(check (list int)) "pop_into key" [ 2; 1; 2; 1 ] [ k.time; k.push; k.first; k.seq ]

(* The documented order, written independently of [Pqueue.key_before]. *)
let pq_cmp (t, p, f, s) (t', p', f', s') = compare (t, p, -f, s) (t', p', -f', s')

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue pops keys in nondecreasing order" ~count:200
    QCheck.(list (quad small_int small_int small_int small_int))
    (fun keys ->
      let q = Pqueue.create () in
      (* The index makes every key unique, as the simulator's keys are
         (lists run to about 10 000 entries), and is the entry's
         payload. *)
      let entries = List.mapi (fun i (t, p, f, s) -> ((t, p, f, (s * 1_000_000) + i), i)) keys in
      List.iter
        (fun ((time, push, first, seq), i) -> Pqueue.push q ~time ~push ~first ~seq i)
        entries;
      pqueue_drain q = List.map snd (List.sort (fun (a, _) (b, _) -> pq_cmp a b) entries))

type pq_op = Push_a | Push_b | Pop_a | Pop_b

(* Interleaved pushes and pops on two queues, [a] taking most of the
   traffic.  Each operation carries a key: the pushed key (made unique by
   the push index), or a probe for [before_top].  Every key part takes two
   or three values, so each tie-break decides some comparisons.  [a]
   climbs to a peak of 12 to 160 entries while popping, crossing the 16-,
   32-, 64- and 128-entry doublings on the larger peaks, and then both
   queues drain; a pop of an empty queue stays in the sequence. *)
let gen_pq_ops st =
  let peak = [| 12; 24; 48; 96; 160 |].(Random.State.int st 5) in
  let ops = ref [] and na = ref 0 and nb = ref 0 and climbing = ref true in
  while !climbing || !na > 0 || !nb > 0 do
    if !na >= peak then climbing := false;
    let r = Random.State.int st 10 in
    (* Cumulative odds out of 10: climbing favours pushes to [a]. *)
    let push_a, push_b, pop_a = if !climbing then (6, 7, 9) else (2, 3, 8) in
    let op =
      if r < push_a then Push_a
      else if r < push_b then Push_b
      else if r < pop_a then Pop_a
      else Pop_b
    in
    (match op with
    | Push_a -> incr na
    | Push_b -> incr nb
    | Pop_a -> na := max 0 (!na - 1)
    | Pop_b -> nb := max 0 (!nb - 1));
    let part n = Random.State.int st n in
    let key = (part 3, part 3, part 3, part 2) in
    ops := (op, key) :: !ops
  done;
  List.rev !ops

let print_pq_ops ops =
  String.concat " "
    (List.map
       (fun (op, (t, p, f, s)) ->
         let o = match op with Push_a -> "+a" | Push_b -> "+b" | Pop_a -> "-a" | Pop_b -> "-b" in
         Printf.sprintf "%s(%d,%d,%d,%d)" o t p f s)
       ops)

(* Run [ops] against sorted-list models of (key, payload) entries,
   checking after every operation each queue's length, top time and
   [before_top] on the operation's key, [key_before] against the model
   order, and which queue [min_of] picks; every pop must return the
   model's minimum key and its payload. *)
let pq_check_ops ops =
  let a = Pqueue.create () and b = Pqueue.create () in
  let ma = ref [] and mb = ref [] in
  let k = { Pqueue.time = 0; push = 0; first = 0; seq = 0 } in
  let pushed = ref 0 in
  let fail fmt = QCheck.Test.fail_reportf fmt in
  let head m = match m with [] -> None | (key, _) :: _ -> Some key in
  let by_key (a, _) (b, _) = pq_cmp a b in
  let step (op, ((t, p, f, s) as probe)) =
    (match op with
    | Push_a | Push_b ->
        let q, m = if op = Push_a then (a, ma) else (b, mb) in
        let seq = (s * 1000) + !pushed in
        (* The payload is the push index: distinct for every entry. *)
        let entry = ((t, p, f, seq), !pushed) in
        incr pushed;
        Pqueue.push q ~time:t ~push:p ~first:f ~seq (snd entry);
        m := List.merge by_key [ entry ] !m
    | Pop_a | Pop_b -> (
        let q, m = if op = Pop_a then (a, ma) else (b, mb) in
        match !m with
        | [] -> (
            match Pqueue.pop_into q k with
            | _ -> fail "pop_into of an empty queue returned"
            | exception Invalid_argument _ -> ())
        | (want, payload) :: rest ->
            let got = Pqueue.pop_into q k in
            if (k.time, k.push, k.first, k.seq) <> want then
              fail "popped key differs from the model";
            if got <> payload then fail "popped payload %d, model %d" got payload;
            m := rest));
    List.iter
      (fun (name, q, m) ->
        if Pqueue.length q <> List.length m then
          fail "%s: length %d, model %d" name (Pqueue.length q) (List.length m);
        if Pqueue.is_empty q <> (m = []) then fail "%s: is_empty" name;
        let top = match head m with None -> max_int | Some (t, _, _, _) -> t in
        if Pqueue.top_time q <> top then
          fail "%s: top_time %d, model %d" name (Pqueue.top_time q) top;
        let want = match head m with None -> true | Some h -> pq_cmp probe h < 0 in
        if Pqueue.before_top q t p f s <> want then fail "%s: before_top" name;
        match head m with
        | Some ((t', p', f', s') as h) ->
            if Pqueue.key_before t p f s t' p' f' s' <> (pq_cmp probe h < 0) then fail "key_before"
        | None -> ())
      [ ("a", a, !ma); ("b", b, !mb) ];
    let want =
      match (head !ma, head !mb) with
      | None, _ -> b
      | _, None -> a
      | Some ha, Some hb -> if pq_cmp ha hb < 0 then a else b
    in
    if Pqueue.min_of a b != want then fail "min_of picked the wrong queue"
  in
  List.iter step ops;
  true

let prop_pqueue_interleaved =
  QCheck.Test.make ~name:"pqueue: interleaved push/pop matches a sorted-list model" ~count:300
    (QCheck.make ~print:print_pq_ops ~shrink:QCheck.Shrink.list gen_pq_ops)
    pq_check_ops

let test_pqueue_alloc () =
  let k = { Pqueue.time = 0; push = 0; first = 0; seq = 0 } in
  let q = Pqueue.create () in
  for i = 0 to 63 do
    Pqueue.push q ~time:i ~push:0 ~first:i ~seq:i i
  done;
  (* Full at 64 entries: one pop leaves room for the pairs' pushes.
     Pseudo-random times: each push sifts up some levels, each pop down. *)
  ignore (Pqueue.pop_into q k : int);
  check_int "10 000 push/pop_into pairs after warm-up growth" 0
    (minor_words (fun () ->
         for i = 64 to 10_063 do
           let time = i * 7919 mod 1009 in
           Pqueue.push q ~time ~push:0 ~first:time ~seq:i i;
           ignore (Pqueue.pop_into q k : int)
         done));
  check_int "length" 63 (Pqueue.length q)

(* ---------------------------- Ring --------------------------- *)

let test_ring () =
  (* A fresh ring allocates its record (three fields and a header) and
     no slot buffer. *)
  let rings = Array.make 64 (Ring.create ()) in
  check_int "create allocates only the record" (4 * 64)
    (minor_words (fun () ->
         for i = 0 to 63 do
           rings.(i) <- Ring.create ()
         done));
  (* Every operation works on a ring that was never pushed to. *)
  let r : int Ring.t = Ring.create () in
  check_int "length" 0 (Ring.length r);
  Alcotest.(check bool) "is_empty" true (Ring.is_empty r);
  Ring.iter (fun _ -> Alcotest.fail "iter visited an element") r;
  Ring.clear r;
  check_int "filter_in_place drops nothing" 0 (Ring.filter_in_place (fun _ -> false) r);
  Alcotest.check_raises "pop" (Invalid_argument "Ring.pop: empty") (fun () -> ignore (Ring.pop r));
  Alcotest.check_raises "peek" (Invalid_argument "Ring.peek: empty") (fun () ->
      ignore (Ring.peek r));
  check_int "still empty" 0 (Ring.length r);
  (* The first push allocates one 16-slot buffer (and a header); the next
     fifteen reuse it, and the seventeenth doubles it. *)
  check_int "first push" 17 (minor_words (fun () -> Ring.push r 0));
  check_int "pushes up to capacity" 0
    (minor_words (fun () ->
         for i = 1 to 15 do
           Ring.push r i
         done));
  check_int "growth doubles" 33 (minor_words (fun () -> Ring.push r 16));
  (* FIFO order across the growth and a wrap of the doubled buffer. *)
  for i = 0 to 9 do
    check_int "pop in order" i (Ring.pop r)
  done;
  for i = 17 to 40 do
    Ring.push r i
  done;
  check_int "filter_in_place drops the odd" 15 (Ring.filter_in_place (fun v -> v mod 2 = 0) r);
  let seen = ref [] in
  Ring.iter (fun v -> seen := v :: !seen) r;
  Alcotest.(check (list int))
    "survivors in order"
    (List.init 16 (fun k -> 10 + (2 * k)))
    (List.rev !seen);
  Ring.clear r;
  Alcotest.(check bool) "cleared" true (Ring.is_empty r)

(* --------------------------- Series -------------------------- *)

let test_series () =
  let s = Series.create "throughput" in
  Series.add s ~time:0.0 ~value:1.0;
  Series.add s ~time:1.0 ~value:3.0;
  Series.add s ~time:2.0 ~value:5.0;
  check_int "length" 3 (Series.length s);
  let t, v = Series.get s 1 in
  check_float "time" 1.0 t;
  check_float "value" 3.0 v;
  match Series.last s with
  | Some (t, v) ->
      check_float "last time" 2.0 t;
      check_float "last value" 5.0 v
  | None -> Alcotest.fail "expected last"

let test_series_bucketed () =
  let s = Series.create "x" in
  for i = 0 to 9 do
    Series.add s ~time:(float_of_int i) ~value:(float_of_int i)
  done;
  let buckets = Series.bucketed s ~t0:0.0 ~t1:10.0 ~buckets:5 in
  check_int "bucket count" 5 (Array.length buckets);
  let _, v0 = buckets.(0) in
  check_float "first bucket mean" 0.5 v0

(* --------------------------- Table --------------------------- *)

let test_table_render () =
  let t = Table.create ~title:"demo" ~header:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1.5" ];
  Table.add_row t [ "beta"; "22.0" ];
  let s = Table.render t in
  Alcotest.(check bool) "contains title" true (String.length s > 0 && String.sub s 0 7 = "== demo");
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "contains row" true (contains s "alpha");
  Alcotest.(check bool) "contains value" true (contains s "22.0")

let suite =
  [
    Alcotest.test_case "rng: determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng: split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "rng: float range" `Quick test_rng_float_range;
    Alcotest.test_case "rng: int range" `Quick test_rng_int_range;
    Alcotest.test_case "rng: exponential mean" `Quick test_rng_exponential_mean;
    Alcotest.test_case "rng: gaussian moments" `Quick test_rng_gaussian_moments;
    Alcotest.test_case "stats: basic" `Quick test_stats_basic;
    Alcotest.test_case "stats: variance" `Quick test_stats_variance;
    Alcotest.test_case "stats: geomean" `Quick test_stats_geomean;
    Alcotest.test_case "stats: empty-input contract" `Quick test_stats_empty_contract;
    Alcotest.test_case "stats: single-element percentiles" `Quick test_stats_single_element;
    Alcotest.test_case "stats: NaN ordering is deterministic" `Quick test_stats_nan_ordering;
    Alcotest.test_case "stats: reservoir exact below capacity" `Quick
      test_reservoir_exact_until_capacity;
    Alcotest.test_case "stats: reservoir bounded beyond capacity" `Quick
      test_reservoir_bounded_beyond_capacity;
    Alcotest.test_case "stats: reservoir deterministic under fixed seed" `Quick
      test_reservoir_seeded_determinism;
    Alcotest.test_case "stats: ewma" `Quick test_ewma;
    Alcotest.test_case "pqueue: order" `Quick test_pqueue_order;
    Alcotest.test_case "pqueue: peek/length" `Quick test_pqueue_peek;
    QCheck_alcotest.to_alcotest prop_pqueue_sorted;
    QCheck_alcotest.to_alcotest prop_pqueue_interleaved;
    Alcotest.test_case "pqueue: steady push/pop allocates nothing" `Quick test_pqueue_alloc;
    Alcotest.test_case "ring: never-pushed ring, first push, FIFO" `Quick test_ring;
    Alcotest.test_case "series: basic" `Quick test_series;
    Alcotest.test_case "series: bucketed" `Quick test_series_bucketed;
    Alcotest.test_case "table: render" `Quick test_table_render;
  ]
