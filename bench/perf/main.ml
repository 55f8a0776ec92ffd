(* Host-cost serving benchmark: entry point.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
       runs one workload in this process and prints, as its last line,
       {"correct", "attempted", "failed", "metrics"}: the gated end-to-end
       metrics with --trace 0, the per-layer metrics with --trace 1.

     main.exe [--seed N] [--seconds S] [--trace] [--repeat K]
              [--compare FILE] [--out FILE] [--append FILE] [--label TEXT]
       runs every workload, each in a fresh process (no heap, pool or
       domain state is shared), prints each metric's median and quartiles
       over the K repeats, and exits non-zero if any correctness check
       failed.  --trace adds the per-layer pass after the plain one.

     main.exe --smoke [--schema BENCHMARK.json]
       every workload at 1/100 size, both passes, checks (and schema) only.

   See README.md in this directory for the workloads, metrics and bounds. *)

module Json = Parcae_obs.Json
module W = Workloads

type result = {
  workload : string;
  trace : bool;
  attempted : int;
  failed : int;
  metrics : (string * string * float) list;  (* name, unit, value: the contract metrics *)
  extra : (string * string * float) list;  (* ungated end-to-end figures *)
  fingerprints : string list;  (* digest of each round's virtual-time results *)
  checks : (string * bool) list;
}

let correct r = List.for_all snd r.checks

(* ------------------------------------------------------------------ *)
(* One workload, in-process                                            *)
(* ------------------------------------------------------------------ *)

let run_workload (w : W.t) ~seed ~seconds ~trace ~smoke =
  let scale = if smoke then 100 else 1 in
  let rounds =
    if smoke then 1
    else max 1 (int_of_float (Float.round (float_of_int w.W.rounds *. seconds /. 15.0)))
  in
  let is_sim = match w.W.kind with W.Serve s -> not s.W.native | W.Nona _ -> true in
  let gated, bare, traced, costs =
    if not trace then begin
      let mode = if w.W.observed then W.Observed { span_capacity = 4096 } else W.Plain in
      (W.run w ~seed ~rounds ~scale ~mode, [], [], None)
    end
    else begin
      let rounds = max 1 (rounds / 5) in
      let bare = W.run w ~seed ~rounds ~scale ~mode:W.Plain in
      (* A span ring as large as a round keeps every record, so the
         exactly-once check can see each request id. *)
      let span_capacity =
        match w.W.kind with W.Serve s -> max 1 (s.W.requests / scale) | W.Nona _ -> 1
      in
      let traced = W.run w ~seed ~rounds ~scale ~mode:(W.Observed { span_capacity }) in
      let costs = Layers.measure ~quota:(if smoke then 0.002 else 0.1) in
      ((if w.W.observed then traced else bare), bare, traced, Some costs)
    end
  in
  let ctx = { Report.w; gated; bare; traced; costs; rss_mb = Host.peak_rss_mb () } in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 (if trace then bare @ traced else gated) in
  let failed = sum (fun s -> s.W.failed) in
  let metrics =
    if trace then List.map (fun (n, u, _, f) -> (n, u, f ctx)) Report.per_layer
    else List.map (fun (n, u, _, _, f) -> (n, u, f ctx)) Report.end_to_end
  in
  let extra =
    if trace then []
    else
      List.filter_map
        (fun (n, u, _, _, f) -> Option.map (fun v -> (n, u, v)) (f ctx))
        Report.ungated
  in
  let traced_ok f =
    List.for_all (fun s -> match s.W.traced with Some t -> f t | None -> false) traced
  in
  let pass_checks =
    if trace then
      [
        ("span phases sum to the total", traced_ok (fun t -> t.W.phase_sum_ok));
        ("each request id finishes exactly once", traced_ok (fun t -> t.W.exactly_once_ok));
      ]
    else if is_sim then begin
      let same, unperturbed = W.probe w ~seed ~scale in
      [
        ("virtual time repeats exactly", same);
        ("observers leave virtual time unchanged", unperturbed);
      ]
    end
    else []
  in
  let checks =
    [
      ( (match w.W.kind with
        | W.Nona _ -> "every launch completes and preserves semantics"
        | W.Serve _ -> "every request completes"),
        failed = 0 );
      ( "every metric is a finite number",
        List.for_all (fun (_, _, v) -> Float.is_finite v) (metrics @ extra) );
    ]
    @ pass_checks
  in
  {
    workload = w.W.name;
    trace;
    attempted = sum (fun s -> s.W.attempted);
    failed;
    metrics;
    extra;
    fingerprints =
      (if is_sim then List.map (fun s -> Digest.to_hex (Digest.string s.W.virt)) gated else []);
    checks;
  }

(* ------------------------------------------------------------------ *)
(* Wire formats                                                        *)
(* ------------------------------------------------------------------ *)

let metric_obj ms =
  Json.Obj
    (List.map
       (fun (n, u, v) ->
         let v = if Float.is_finite v then v else 0.0 in
         (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str u) ]))
       ms)

let contract_line r =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (correct r));
         ("attempted", Json.Int r.attempted);
         ("failed", Json.Int r.failed);
         ("metrics", metric_obj r.metrics);
       ])

(* The full result on one line, read back by the all-workload mode. *)
let detail_prefix = "detail "

let detail_line r =
  detail_prefix
  ^ Json.to_string
      (Json.Obj
         [
           ("workload", Json.Str r.workload);
           ("trace", Json.Bool r.trace);
           ("attempted", Json.Int r.attempted);
           ("failed", Json.Int r.failed);
           ("metrics", metric_obj r.metrics);
           ("extra", metric_obj r.extra);
           ("fingerprints", Json.List (List.map (fun s -> Json.Str s) r.fingerprints));
           ("checks", Json.Obj (List.map (fun (n, ok) -> (n, Json.Bool ok)) r.checks));
         ])

let number = function
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let metrics_of = function
  | Some (Json.Obj fields) ->
      List.map
        (fun (n, m) ->
          (n, Json.get_str "unit" m, Option.value (number (Json.member "value" m)) ~default:nan))
        fields
  | _ -> []

let result_of_detail s =
  let j = Json.parse s in
  {
    workload = Json.get_str "workload" j;
    trace = Json.get_bool "trace" j;
    attempted = Json.get_int "attempted" j;
    failed = Json.get_int "failed" j;
    metrics = metrics_of (Json.member "metrics" j);
    extra = metrics_of (Json.member "extra" j);
    fingerprints =
      List.map (function Json.Str s -> s | _ -> "") (Json.get_list "fingerprints" j);
    checks =
      (match Json.member "checks" j with
      | Some (Json.Obj cs) -> List.map (fun (n, v) -> (n, v = Json.Bool true)) cs
      | _ -> []);
  }

let verdict ok = if ok then "ok" else "FAILED"

let print_result r =
  Printf.printf "%s (%s pass): %d attempted, %d failed\n" r.workload
    (if r.trace then "per-layer" else "end-to-end")
    r.attempted r.failed;
  List.iter (fun (n, u, v) -> Printf.printf "  %-30s %14.6g %s\n" n v u) r.metrics;
  List.iter (fun (n, u, v) -> Printf.printf "  %-30s %14.6g %s  (not gated)\n" n v u) r.extra;
  List.iter (fun (n, ok) -> Printf.printf "  check: %-46s %s\n" n (verdict ok)) r.checks

(* ------------------------------------------------------------------ *)
(* All workloads, each in a fresh process                              *)
(* ------------------------------------------------------------------ *)

type opts = {
  mutable single : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable layers : bool;
  mutable repeat : int;
  mutable compare : string option;
  mutable out : string option;
  mutable append : string option;
  mutable label : string;
  mutable smoke : bool;
  mutable schema : string option;
}

let spawn_child o (w : W.t) ~trace =
  let args =
    [
      Sys.executable_name; "--workload"; w.W.name; "--seed"; string_of_int o.seed;
      "--seconds"; Printf.sprintf "%g" o.seconds; "--trace"; (if trace then "1" else "0");
    ]
    @ if o.smoke then [ "--smoke" ] else []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let lines = In_channel.input_lines ic in
  let status = Unix.close_process_in ic in
  let n = String.length detail_prefix in
  let detail =
    List.find_map
      (fun l ->
        if String.starts_with ~prefix:detail_prefix l then
          Some (String.sub l n (String.length l - n))
        else None)
      lines
  in
  match (status, detail) with
  | Unix.WEXITED (0 | 1), Some d -> Ok (result_of_detail d)
  | Unix.WEXITED c, _ -> Error (Printf.sprintf "%s: child exited with code %d" w.W.name c)
  | (Unix.WSIGNALED s | Unix.WSTOPPED s), _ ->
      Error (Printf.sprintf "%s: child stopped by signal %d" w.W.name s)

(* Per workload, per metric: its unit and its values over the repeats. *)
let collect results =
  List.map
    (fun (w : W.t) ->
      let rs = List.filter (fun r -> r.workload = w.W.name) results in
      let all r = r.metrics @ r.extra in
      let names =
        List.sort_uniq compare
          (List.concat_map (fun r -> List.map (fun (n, u, _) -> (n, u)) (all r)) rs)
      in
      let value n r = List.find_map (fun (n', _, v) -> if n' = n then Some v else None) (all r) in
      let values n = List.filter_map (value n) rs in
      (w.W.name, List.map (fun (n, u) -> (n, u, values n)) names))
    W.all

let table_json table =
  Json.Obj
    (List.map
       (fun (wname, ms) ->
         let row (n, u, vs) =
           let q1, q3 = Host.quartiles vs in
           ( n,
             Json.Obj
               [
                 ("median", Json.Float (Host.median vs));
                 ("q1", Json.Float q1);
                 ("q3", Json.Float q3);
                 ("unit", Json.Str u);
               ] )
         in
         (wname, Json.Obj (List.map row (List.filter (fun (_, _, vs) -> vs <> []) ms))))
       table)

let print_table table =
  Printf.printf "\n%-20s %-30s %13s %13s %13s %7s %s\n" "workload" "metric" "median" "q1" "q3"
    "spread" "unit";
  List.iter
    (fun (wname, ms) ->
      List.iter
        (fun (n, u, vs) ->
          if vs <> [] then begin
            let q1, q3 = Host.quartiles vs in
            Printf.printf "%-20s %-30s %13.6g %13.6g %13.6g %6.2f%% %s\n" wname n
              (Host.median vs) q1 q3 (100.0 *. Host.spread vs) u
          end)
        ms)
    table

let direction name =
  List.find_map
    (fun (n, _, b, bound, _) -> if n = name then Some (b, bound) else None)
    Report.end_to_end
  |> function
  | Some d -> Some d
  | None ->
      List.find_map
        (fun (n, _, b, bound, _) -> if n = name then Some (b, bound) else None)
        Report.ungated

(* Delta of each end-to-end median against a baseline summary, positive =
   worse.  A metric whose own spread over the repeats exceeds its bound
   cannot be judged either way: "unresolved". *)
let compare_to o table file =
  let base = Json.parse (In_channel.with_open_text file In_channel.input_all) in
  let base_median w n =
    Option.bind (Json.member "workloads" base) (fun ws ->
        Option.bind (Json.member w ws) (fun m ->
            Option.bind (Json.member n m) (fun x -> number (Json.member "median" x))))
  in
  Printf.printf "\ncompared with %s (seed %d, %gs, %d repeats):\n" file o.seed o.seconds o.repeat;
  Printf.printf "  %-20s %-18s %13s %13s %8s %7s  %s\n" "workload" "metric" "baseline" "now"
    "delta" "bound" "verdict";
  List.iter
    (fun (wname, ms) ->
      List.iter
        (fun (n, _, vs) ->
          match (direction n, base_median wname n, vs) with
          | Some (better, bound), Some b, _ :: _ ->
              let m = Host.median vs in
              let delta =
                if b = 0.0 then if m = 0.0 then 0.0 else infinity
                else
                  match better with
                  | Report.Lower -> (m -. b) /. b
                  | Report.Higher -> (b -. m) /. b
              in
              let verdict =
                if List.length vs > 1 && Host.spread vs > bound then "unresolved"
                else if delta > bound then "REGRESSED"
                else "ok"
              in
              Printf.printf "  %-20s %-18s %13.6g %13.6g %+7.2f%% %6.1f%%  %s\n" wname n b m
                (100.0 *. delta) (100.0 *. bound) verdict
          | _ -> ())
        ms)
    table

(* BENCHMARK.json must name exactly the workloads and metrics this
   program emits, with the same units, directions and bounds. *)
let schema_checks file results =
  let j = Json.parse (In_channel.with_open_text file In_channel.input_all) in
  let entries key fields =
    List.map (fun m -> List.map (fun f -> f m) fields) (Json.get_list key j)
  in
  let str k m = Json.get_str k m and num k m = Printf.sprintf "%g" (Json.get_float k m) in
  let expect_e2e =
    List.map
      (fun (n, u, b, bound, _) -> [ n; u; Report.better_name b; Printf.sprintf "%g" bound ])
      Report.end_to_end
  in
  let expect_layer =
    List.map (fun (n, u, b, _) -> [ n; u; Report.better_name b ]) Report.per_layer
  in
  let emitted trace =
    let expect = if trace then expect_layer else expect_e2e in
    let names = List.map (fun e -> (List.nth e 0, List.nth e 1)) expect in
    List.for_all
      (fun r -> r.trace <> trace || List.map (fun (n, u, _) -> (n, u)) r.metrics = names)
      results
  in
  [
    ( "BENCHMARK.json workloads match",
      entries "workloads" [ str "name"; str "why" ] = List.map (fun w -> [ w.W.name; w.W.why ]) W.all
    );
    ( "BENCHMARK.json end_to_end matches",
      entries "end_to_end" [ str "name"; str "unit"; str "better"; num "bound" ] = expect_e2e );
    ( "BENCHMARK.json per_layer matches",
      entries "per_layer" [ str "name"; str "unit"; str "better" ] = expect_layer );
    ("end-to-end pass emits exactly the end_to_end metrics", emitted false);
    ("per-layer pass emits exactly the per_layer metrics", emitted true);
  ]

let orchestrate o =
  let passes = if o.layers || o.smoke then [ false; true ] else [ false ] in
  let errors = ref [] in
  (* The smoke test only reports what fails. *)
  let show r = if (not o.smoke) || not (correct r) then print_result r in
  let run trace (w : W.t) =
    match spawn_child o w ~trace with
    | Ok r ->
        show r;
        Some r
    | Error e ->
        prerr_endline e;
        errors := e :: !errors;
        None
  in
  let results =
    List.concat_map
      (fun trace ->
        List.concat_map
          (fun w -> List.filter_map (fun _ -> run trace w) (List.init o.repeat Fun.id))
          W.all)
      passes
  in
  let plain = collect (List.filter (fun r -> not r.trace) results) in
  let layers = collect (List.filter (fun r -> r.trace) results) in
  if not o.smoke then begin
    print_table plain;
    if List.exists (fun r -> r.trace) results then print_table layers
  end;
  let fps name =
    List.filter_map
      (fun r -> if r.workload = name && not r.trace then Some r.fingerprints else None)
      results
  in
  let repeat_ok =
    List.for_all
      (fun (w : W.t) ->
        match fps w.W.name with [] -> true | f :: rest -> List.for_all (( = ) f) rest)
      W.all
  in
  (* Equal seeds give ferret-sim and ferret-sim-observed the same inputs
     round for round, so their virtual-time results must agree wherever
     both ran a round. *)
  let observed_ok =
    match (fps "ferret-sim", fps "ferret-sim-observed") with
    | a :: _, b :: _ ->
        let rec agree x y =
          match (x, y) with h :: t, h' :: t' -> h = h' && agree t t' | _ -> true
        in
        agree a b
    | _ -> true
  in
  let checks =
    [
      ("every child ran and reported", !errors = []);
      ("every in-process check passed", List.for_all correct results);
      ("sim virtual-time results identical across repeats", repeat_ok);
      ("ferret-sim-observed virtual time equals ferret-sim", observed_ok);
    ]
    @ match o.schema with Some f -> schema_checks f results | None -> []
  in
  List.iter (fun (n, ok) -> Printf.printf "check: %-55s %s\n" n (verdict ok)) checks;
  Option.iter (compare_to o plain) o.compare;
  let header =
    [
      ("label", Json.Str o.label);
      ("seed", Json.Int o.seed);
      ("seconds", Json.Float o.seconds);
      ("repeat", Json.Int o.repeat);
      ("ocaml", Json.Str Sys.ocaml_version);
    ]
  in
  let write flags f fields =
    Out_channel.with_open_gen flags 0o644 f (fun oc ->
        output_string oc (Json.to_string (Json.Obj (header @ fields)) ^ "\n"))
  in
  Option.iter
    (fun f ->
      write [ Open_wronly; Open_creat; Open_trunc; Open_text ] f
        [ ("workloads", table_json plain); ("layers", table_json layers) ])
    o.out;
  (* A trajectory line keeps only each end-to-end median. *)
  let median (n, _, vs) = if vs = [] then None else Some (n, Json.Float (Host.median vs)) in
  let medians =
    Json.Obj (List.map (fun (wname, ms) -> (wname, Json.Obj (List.filter_map median ms))) plain)
  in
  Option.iter
    (fun f -> write [ Open_append; Open_creat; Open_text ] f [ ("medians", medians) ])
    o.append;
  if List.for_all snd checks then 0 else 1

(* ------------------------------------------------------------------ *)
(* Arguments                                                           *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--repeat K]\n\
    \                [--compare FILE] [--out FILE] [--append FILE] [--label TEXT]\n\
    \                [--smoke] [--schema BENCHMARK.json]";
  prerr_endline ("workloads: " ^ String.concat ", " (List.map (fun w -> w.W.name) W.all));
  exit 2

let parse argv =
  let o =
    {
      single = None;
      seed = 42;
      seconds = 15.0;
      layers = false;
      repeat = 1;
      compare = None;
      out = None;
      append = None;
      label = "";
      smoke = false;
      schema = None;
    }
  in
  let int_of s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        o.single <- Some v;
        go rest
    | "--seed" :: v :: rest ->
        o.seed <- int_of v;
        go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with Some f when f > 0.0 -> o.seconds <- f | _ -> usage ());
        go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        o.layers <- v = "1";
        go rest
    | "--trace" :: rest ->
        o.layers <- true;
        go rest
    | "--repeat" :: v :: rest ->
        o.repeat <- int_of v;
        if o.repeat < 1 then usage ();
        go rest
    | "--compare" :: v :: rest ->
        o.compare <- Some v;
        go rest
    | "--out" :: v :: rest ->
        o.out <- Some v;
        go rest
    | "--append" :: v :: rest ->
        o.append <- Some v;
        go rest
    | "--label" :: v :: rest ->
        o.label <- v;
        go rest
    | "--smoke" :: rest ->
        o.smoke <- true;
        go rest
    | "--schema" :: v :: rest ->
        o.schema <- Some v;
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  o

let () =
  let o = parse Sys.argv in
  match o.single with
  | None -> exit (orchestrate o)
  | Some name ->
      let w = match W.find name with Some w -> w | None -> usage () in
      let r = run_workload w ~seed:o.seed ~seconds:o.seconds ~trace:o.layers ~smoke:o.smoke in
      print_result r;
      print_endline (detail_line r);
      print_endline (contract_line r);
      exit (if correct r then 0 else 1)
