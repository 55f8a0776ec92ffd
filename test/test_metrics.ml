(* Tests for the metrics registry (Obs.Metrics), its Prometheus/JSON
   exposition, the folded-stack profiler, and the instrumentation wired
   through the simulator and runtime: format validity, counter
   monotonicity across a run, zero-perturbation of results with metrics
   on vs off, byte-identical same-seed snapshots, and exact agreement
   between the folded profile and Decima's per-task compute totals. *)

open Parcae_sim

(* Engine/value types come from the platform dispatch layer (the runtime's
   own types); [Machine]/[Power]/etc. remain from [Parcae_sim] above. *)
module Engine = Parcae_platform.Engine
module Chan = Parcae_platform.Chan
module Lock = Parcae_platform.Lock
open Parcae_workloads
module Obs = Parcae_obs
module Metrics = Obs.Metrics
module Profile = Obs.Profile
module Json = Obs.Json
module R = Parcae_runtime
module Task = Parcae_core.Task

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_float = Alcotest.(check (float 0.0))

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* --------------------------- registry unit -------------------------- *)

let test_instruments () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "c_total" in
  Metrics.inc c;
  Metrics.inc_by c 4;
  check_int "counter accumulates" 5 (Metrics.counter_value c);
  (* Re-requesting the same (name, labels) yields the same instrument. *)
  Metrics.inc (Metrics.counter reg "c_total");
  check_int "same series, same cell" 6 (Metrics.counter_value c);
  let g = Metrics.gauge reg "g" in
  Metrics.set_gauge g 2.5;
  Metrics.add_gauge g 0.5;
  check_float "gauge settles" 3.0 (Metrics.gauge_value g);
  let s = Metrics.summary reg "s_ns" in
  List.iter (Metrics.observe_summary s) [ 5; 10; 11; 99; 5000 ];
  check_int "summary count" 5 (Metrics.summary_count s);
  check_int "summary sum" 5125 (Metrics.summary_sum s);
  check_bool "same series, same summary" true (Metrics.summary reg "s_ns" == s);
  (* Labeled series are independent. *)
  let a = Metrics.counter reg "lab_total" ~labels:[ ("k", "a") ] in
  let b = Metrics.counter reg "lab_total" ~labels:[ ("k", "b") ] in
  Metrics.inc a;
  check_int "labels split series" 0 (Metrics.counter_value b)

let test_family_conflicts () =
  let reg = Metrics.create () in
  ignore (Metrics.counter reg "x_total");
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument "Metrics: x_total registered as counter, requested as gauge")
    (fun () -> ignore (Metrics.gauge reg "x_total"));
  ignore (Metrics.counter reg "y_total" ~labels:[ ("a", "1") ]);
  Alcotest.check_raises "label arity mismatch rejected"
    (Invalid_argument "Metrics: y_total label arity mismatch") (fun () ->
      ignore (Metrics.counter reg "y_total"))

let test_null_registry_inert () =
  check_bool "disabled by default" false (Metrics.enabled ());
  check_bool "current is null" true (Metrics.is_null (Metrics.current ()));
  (* Stray unguarded emitters against the null registry are harmless and
     leave nothing behind. *)
  let c = Metrics.counter Metrics.null "stray_total" in
  Metrics.inc c;
  Metrics.observe_summary (Metrics.summary Metrics.null "stray_ns") 1;
  check_int "null registry never exposes series" 0 (List.length (Metrics.snapshot Metrics.null));
  let reg = Metrics.create () in
  Metrics.with_registry reg (fun () ->
      check_bool "enabled inside with_registry" true (Metrics.enabled ());
      Metrics.inc (Metrics.counter (Metrics.current ()) "in_total"));
  check_bool "with_registry restores" false (Metrics.enabled ());
  check_int "event landed in installed registry" 1 (List.length (Metrics.snapshot reg))

(* ------------------- Prometheus format validation ------------------- *)

(* Minimal validator for the text exposition format 0.0.4: every family
   has TYPE (and HELP when non-empty help was given) before its samples;
   every sample line parses; counters are nonnegative integers; every
   summary series has quantile values that do not decrease as q grows,
   then one _sum and one _count. *)

let parse_sample line =
  match String.rindex_opt line ' ' with
  | None -> Alcotest.fail ("sample line has no value: " ^ line)
  | Some i ->
      let head = String.sub line 0 i in
      let v = String.sub line (i + 1) (String.length line - i - 1) in
      let value =
        match float_of_string_opt v with
        | Some f -> f
        | None -> Alcotest.fail ("unparsable value in: " ^ line)
      in
      let name, labels =
        match String.index_opt head '{' with
        | None -> (head, [])
        | Some j ->
            if head.[String.length head - 1] <> '}' then
              Alcotest.fail ("unterminated label block: " ^ line);
            let body = String.sub head (j + 1) (String.length head - j - 2) in
            let pairs =
              if body = "" then []
              else
                List.map
                  (fun kv ->
                    match String.index_opt kv '=' with
                    | None -> Alcotest.fail ("malformed label in: " ^ line)
                    | Some e ->
                        let k = String.sub kv 0 e in
                        let v = String.sub kv (e + 1) (String.length kv - e - 1) in
                        if String.length v < 2 || v.[0] <> '"' || v.[String.length v - 1] <> '"'
                        then Alcotest.fail ("unquoted label value in: " ^ line);
                        (k, String.sub v 1 (String.length v - 2)))
                  (String.split_on_char ',' body)
            in
            (String.sub head 0 j, pairs)
      in
      (name, labels, value)

let strip_suffix name =
  let try_one suf =
    if Filename.check_suffix name suf then Some (Filename.chop_suffix name suf) else None
  in
  match (try_one "_sum", try_one "_count") with
  | Some b, _ -> b
  | _, Some b -> b
  | _ -> name

let validate_prometheus text =
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> l <> "") in
  let types = Hashtbl.create 16 and helps = Hashtbl.create 16 in
  (* (family, labels sans quantile) -> quantile samples (latest first),
     and which of _sum/_count the series exposed. *)
  let quantiles = Hashtbl.create 16 and tails = Hashtbl.create 16 in
  List.iter
    (fun line ->
      if String.length line > 0 && line.[0] = '#' then begin
        match String.split_on_char ' ' line with
        | "#" :: "HELP" :: name :: _ -> Hashtbl.replace helps name true
        | "#" :: "TYPE" :: name :: [ kind ] ->
            check_bool ("known TYPE in: " ^ line) true
              (List.mem kind [ "counter"; "gauge"; "summary" ]);
            check_bool ("TYPE only once for " ^ name) false (Hashtbl.mem types name);
            Hashtbl.replace types name kind
        | _ -> Alcotest.fail ("malformed comment line: " ^ line)
      end
      else begin
        let name, labels, value = parse_sample line in
        let base =
          let stripped = strip_suffix name in
          if Hashtbl.find_opt types stripped = Some "summary" then stripped else name
        in
        (match Hashtbl.find_opt types base with
        | Some _ -> ()
        | None -> Alcotest.fail ("sample before TYPE: " ^ line));
        check_bool ("HELP present for " ^ base) true (Hashtbl.mem helps base);
        match Hashtbl.find_opt types base with
        | Some "counter" ->
            check_bool ("counter is a nonnegative integer: " ^ line) true
              (Float.is_integer value && value >= 0.0)
        | Some "summary" ->
            let key = (base, List.filter (fun (k, _) -> k <> "quantile") labels) in
            if base = name then begin
              let q =
                match List.assoc_opt "quantile" labels with
                | Some q -> float_of_string q
                | None -> Alcotest.fail ("summary sample without quantile: " ^ line)
              in
              check_bool ("quantile before _sum/_count: " ^ line) false
                (Hashtbl.mem tails key);
              let prev = Option.value ~default:[] (Hashtbl.find_opt quantiles key) in
              (match prev with
              | (last_q, last_v) :: _ ->
                  check_bool ("quantile labels increase: " ^ line) true (q > last_q);
                  check_bool ("quantile values nondecreasing: " ^ line) true
                    (value >= last_v)
              | [] -> ());
              Hashtbl.replace quantiles key ((q, value) :: prev)
            end
            else begin
              let suffix = if Filename.check_suffix name "_sum" then "_sum" else "_count" in
              let seen = Option.value ~default:[] (Hashtbl.find_opt tails key) in
              check_bool (suffix ^ " once per series: " ^ line) false (List.mem suffix seen);
              if suffix = "_count" then
                check_bool ("_count is a nonnegative integer: " ^ line) true
                  (Float.is_integer value && value >= 0.0);
              Hashtbl.replace tails key (suffix :: seen)
            end
        | _ -> ()
      end)
    lines;
  (* Every summary series: quantiles, then both _sum and _count. *)
  Hashtbl.iter
    (fun ((base, _) as key) seen ->
      check_bool ("summary series has quantiles: " ^ base) true (Hashtbl.mem quantiles key);
      check_bool ("summary series has _sum and _count: " ^ base) true
        (List.mem "_sum" seen && List.mem "_count" seen))
    tails;
  Hashtbl.iter
    (fun ((base, _) as key) _ ->
      check_bool ("summary series has _sum/_count: " ^ base) true (Hashtbl.mem tails key))
    quantiles;
  check_bool "validated at least one family" true (Hashtbl.length types > 0)

(* ------------------------- instrumented runs ------------------------ *)

let machine = Machine.xeon_x7460

(* A short ferret batch under a static even configuration: no mechanism,
   so Decima is never reset and per-task compute attribution is exact. *)
let ferret_batch ?on_start () =
  Experiments.run_batch ~m:25 ~seed:11 ~machine ~config:(`Named "even") ?on_start
    (fun ~budget eng -> Ferret.make ~budget eng)

let with_fresh_registry f =
  let reg = Metrics.create () in
  let r = Metrics.with_registry reg f in
  (reg, r)

let test_real_run_prometheus_valid () =
  let reg, (r, _, _) = with_fresh_registry (fun () -> ferret_batch ()) in
  check_int "all requests completed" r.Experiments.submitted r.Experiments.completed;
  let text = Metrics.to_prometheus reg in
  check_bool "exposition non-trivial" true (String.length text > 500);
  check_bool "response times export as a summary" true
    (contains text "# TYPE parcae_response_ns summary\n");
  validate_prometheus text

let test_real_run_json_parses () =
  let reg, _ = with_fresh_registry (fun () -> ferret_batch ()) in
  let j = Json.parse (Metrics.to_json_string reg) in
  let fams = Json.get_list "families" j in
  check_bool "families present" true (fams <> []);
  List.iter
    (fun f ->
      check_bool "family has a name" true (Json.get_str "name" f <> "");
      let kind = Json.get_str "kind" f in
      check_bool "known kind" true (List.mem kind [ "counter"; "gauge"; "summary" ]);
      let series = Json.get_list "series" f in
      check_bool "series list present" true (series <> []);
      if kind = "summary" then
        List.iter
          (fun sr ->
            let v = Option.get (Json.member "value" sr) in
            let qs =
              match Json.member "quantiles" v with
              | Some (Json.Obj qs as o) -> List.map (fun (q, _) -> Json.get_float q o) qs
              | _ -> Alcotest.fail "summary value without quantiles"
            in
            check_int "four exported quantiles" 4 (List.length qs);
            check_bool "quantiles nondecreasing" true (List.sort compare qs = qs);
            check_bool "summary count nonnegative" true (Json.get_int "count" v >= 0);
            ignore (Json.get_float "sum" v))
          series)
    fams;
  check_bool "a summary family is present" true
    (List.exists (fun f -> Json.get_str "kind" f = "summary") fams)

(* Counter samples from a snapshot as ((family, label values), value). *)
let counter_values reg =
  List.concat_map
    (fun (f : Metrics.fam_snapshot) ->
      List.filter_map
        (fun { Metrics.labels; value } ->
          match value with
          | Metrics.Counter_v n -> Some ((f.Metrics.name, labels), n)
          | _ -> None)
        f.Metrics.samples)
    (Metrics.snapshot reg)

let test_counters_monotone_mid_to_end () =
  let mid = ref [] in
  let on_start (a : App.t) _region =
    ignore
      (Engine.spawn a.App.eng ~name:"mid-sampler" (fun () ->
           Engine.sleep 100_000_000;
           mid := counter_values (Metrics.current ())))
  in
  let reg, _ = with_fresh_registry (fun () -> ferret_batch ~on_start ()) in
  check_bool "mid-run snapshot captured series" true (!mid <> []);
  let final = counter_values reg in
  List.iter
    (fun (key, v_mid) ->
      match List.assoc_opt key final with
      | None -> Alcotest.fail ("counter series vanished: " ^ fst key)
      | Some v_end ->
          check_bool
            (Printf.sprintf "%s monotone (%d -> %d)" (fst key) v_mid v_end)
            true (v_end >= v_mid))
    !mid

let test_metrics_do_not_perturb_run () =
  let run () =
    let r, _, _ = ferret_batch () in
    r
  in
  let off = run () in
  let reg_a, on_a = with_fresh_registry run in
  let reg_b, _on_b = with_fresh_registry run in
  (* Identical virtual-time results with metrics on vs off... *)
  check_float "sim end time unchanged" off.Experiments.sim_end_s on_a.Experiments.sim_end_s;
  check_int "completions unchanged" off.Experiments.completed on_a.Experiments.completed;
  check_float "throughput unchanged" off.Experiments.throughput_rps
    on_a.Experiments.throughput_rps;
  check_float "energy unchanged" off.Experiments.energy_j on_a.Experiments.energy_j;
  (* ...and byte-identical snapshots between two same-seed metered runs. *)
  check_string "same seed, byte-identical Prometheus text"
    (Metrics.to_prometheus reg_a) (Metrics.to_prometheus reg_b);
  check_string "same seed, byte-identical JSON" (Metrics.to_json_string reg_a)
    (Metrics.to_json_string reg_b)

(* -------------------------- channel metrics ------------------------- *)

(* The [chan="cm"] series of [family] in [reg], as (count of series,
   summed _count). *)
let block_series reg family =
  List.fold_left
    (fun (n, c) (f : Metrics.fam_snapshot) ->
      if f.Metrics.name <> family then (n, c)
      else
        List.fold_left
          (fun (n, c) { Metrics.labels; value } ->
            match value with
            | Metrics.Summary_v { count; _ } when labels = [ ("chan", "cm") ] ->
                (n + 1, c + count)
            | _ -> (n, c))
          (n, c) f.Metrics.samples)
    (0, 0) (Metrics.snapshot reg)

(* A receiver that finds every item already queued never blocks, so no
   block series exists; one that finds the channel empty [k] times gets
   exactly one series holding [k] observations.  The sender never blocks
   (unbounded channel) either way. *)
let chan_block_run eng ~k ~receiver_waits =
  let reg = Metrics.create () in
  Metrics.with_registry reg (fun () ->
      let ch = Chan.create eng "cm" in
      let send_all () =
        for i = 1 to k do
          if receiver_waits then Engine.sleep 1_000;
          Chan.send ch i
        done
      and recv_all () =
        for _ = 1 to k do
          ignore (Chan.recv ch : int)
        done
      in
      if receiver_waits then begin
        (* The receiver runs first and finds the channel empty before
           each of the sender's k sends (sim scheduling is FIFO). *)
        ignore (Engine.spawn eng ~name:"recv" recv_all);
        ignore (Engine.spawn eng ~name:"send" send_all)
      end
      else
        (* One thread sends everything, then receives it: no receive can
           find the channel empty, on either backend. *)
        ignore
          (Engine.spawn eng ~name:"send-recv" (fun () ->
               send_all ();
               recv_all ()));
      ignore (Engine.run ~until:10_000_000_000 eng);
      Engine.shutdown eng);
  let sends =
    List.assoc_opt ("parcae_chan_sends_total", [ ("chan", "cm") ]) (counter_values reg)
  in
  check_bool "sends counted" true (sends = Some k);
  check_bool "no send block series" true
    (block_series reg "parcae_chan_send_block_ns" = (0, 0));
  block_series reg "parcae_chan_recv_block_ns"

let test_chan_block_series_sim () =
  let k = 5 in
  let eng () = Engine.create (Machine.test_machine ~cores:2 ()) in
  check_bool "receiver that never waits: no block series" true
    (chan_block_run (eng ()) ~k ~receiver_waits:false = (0, 0));
  check_bool "receiver that waits k times: one series, _count k" true
    (chan_block_run (eng ()) ~k ~receiver_waits:true = (1, k))

let test_chan_block_series_native () =
  check_bool "receiver that never waits: no block series" true
    (chan_block_run (Engine.create_native ~pool:2 ()) ~k:5 ~receiver_waits:false = (0, 0))

(* One script on each backend with a registry and a trace sink installed:
   the channel families and the channel trace events must be the same.
   An empty batch moves nothing, so the channel that only sees one
   reports nothing. *)
let chan_observation eng =
  let reg = Metrics.create () and sink = Obs.Sink.create ~capacity:256 () in
  Metrics.with_registry reg (fun () ->
      Obs.Trace.with_sink sink (fun () ->
          let ch = Chan.create eng "obs" and idle = Chan.create eng "idle" in
          ignore
            (Engine.spawn eng ~name:"script" (fun () ->
                 Chan.send_batch idle [];
                 Chan.send ch 1;
                 Chan.force_send ch 2;
                 Chan.send_batch ch [ 3; 4; 5 ];
                 ignore (Chan.recv ch : int);
                 ignore (Chan.recv_batch ~max:2 ch : int list);
                 ignore (Chan.filter ch (fun v -> v <> 5) : int);
                 ignore (Chan.drain ch : int)));
          ignore (Engine.run ~until:10_000_000_000 eng);
          Engine.shutdown eng));
  let values =
    List.concat_map
      (fun (f : Metrics.fam_snapshot) ->
        if not (String.starts_with ~prefix:"parcae_chan_" f.Metrics.name) then []
        else
          List.map
            (fun { Metrics.labels; value } ->
              let v =
                match value with
                | Metrics.Counter_v n -> string_of_int n
                | Metrics.Gauge_v g -> string_of_float g
                | _ -> "summary"
              in
              Printf.sprintf "%s{%s} %s" f.Metrics.name (String.concat "," (List.map snd labels)) v)
            f.Metrics.samples)
      (Metrics.snapshot reg)
  in
  let events =
    List.filter_map
      (fun (e : Obs.Event.t) ->
        match e.Obs.Event.kind with
        | Obs.Event.Chan_send_ev { chan; seq; _ } -> Some (Printf.sprintf "send %s %d" chan seq)
        | Obs.Event.Chan_recv_ev { chan; seq; _ } -> Some (Printf.sprintf "recv %s %d" chan seq)
        | Obs.Event.Chan_flush { chan; dropped } -> Some (Printf.sprintf "flush %s %d" chan dropped)
        | _ -> None)
      (Obs.Sink.events sink)
  in
  (values, events)

let test_chan_observation_backends () =
  let sim_values, sim_events =
    chan_observation (Engine.create (Machine.test_machine ~cores:2 ()))
  in
  let nat_values, nat_events = chan_observation (Engine.create_native ~pool:1 ()) in
  let check_list = Alcotest.(check (list string)) in
  check_list "sim families"
    [
      "parcae_chan_depth{obs} 0.";
      "parcae_chan_flushed_total{obs} 2";
      "parcae_chan_recvs_total{obs} 3";
      "parcae_chan_sends_total{obs} 5";
    ]
    sim_values;
  check_list "native families equal sim's" sim_values nat_values;
  check_list "sim channel events"
    [
      "send obs 0"; "send obs 1"; "send obs 2"; "send obs 3"; "send obs 4";
      "recv obs 0"; "recv obs 1"; "recv obs 2"; "flush obs 1"; "flush obs 1";
    ]
    sim_events;
  check_list "native channel events equal sim's" sim_events nat_events

(* A sim receive that blocks charges its wait, as Chan_wait, to the lane
   of the core the receiving thread last ran on, and to no other lane.  A
   hog holds the other core throughout; which core each gets follows the
   spawn order, so the two orders put the receiver on different lanes. *)
let test_chan_wait_lane_sim () =
  let run ~hog_first =
    let eng = Engine.create (Machine.test_machine ~cores:2 ()) in
    let tl = Obs.Timeline.create ~lanes:2 ~now:0 () in
    let lane = ref (-1) in
    let until =
      Obs.Timeline.with_timeline tl (fun () ->
          let ch = Chan.create eng "tw" in
          let hog () = ignore (Engine.spawn eng ~name:"hog" (fun () -> Engine.compute 200_000)) in
          if hog_first then hog ();
          ignore
            (Engine.spawn eng ~name:"recv" (fun () ->
                 Engine.compute 1_000;
                 ignore (Chan.recv ch : int);
                 lane := Option.value (Engine.current_lane ()) ~default:(-1)));
          if not hog_first then hog ();
          ignore
            (Engine.spawn eng ~name:"send" (fun () ->
                 Engine.sleep 50_000;
                 Chan.send ch 1));
          Engine.run eng)
    in
    let b = Obs.Timeline.breakdown tl ~until in
    let wait l = b.(l).Obs.Timeline.by_state.(Obs.Timeline.state_index Obs.Timeline.Chan_wait) in
    check_bool "the receiver ran on a core" true (!lane = 0 || !lane = 1);
    check_bool (Printf.sprintf "Chan_wait %d ns on lane %d" (wait !lane) !lane) true
      (wait !lane >= 40_000);
    check_int "no Chan_wait on the hog's lane" 0 (wait (1 - !lane));
    !lane
  in
  check_bool "the spawn orders give the receiver different lanes" true
    (run ~hog_first:true <> run ~hog_first:false)

(* A crc32 launch builds a PS-DSWP plan with thousands of channels, few of
   which ever block.  Block series are created on a channel's first
   block, so the registry stays small; one eager HDR summary per channel
   would hold about 25 000 000 words. *)
let test_crc32_registry_bounded () =
  let open Parcae_nona in
  let c = Compiler.compile (Parcae_ir.Kernels.crc32 ~n:60_000 ()) in
  let reg, h =
    with_fresh_registry (fun () ->
        let eng = Engine.create machine in
        let h = Compiler.launch ~budget:24 eng c in
        let params =
          {
            R.Controller.default_params with
            R.Controller.npar_factor = 16;
            monitor_ns = 50_000_000;
          }
        in
        ignore (R.Controller.spawn eng (R.Controller.create ~params h.Compiler.region));
        ignore (Engine.run ~until:600_000_000_000 eng);
        h)
  in
  check_bool "run finished" true (R.Region.is_done h.Compiler.region);
  let words = Obj.reachable_words (Obj.repr reg) in
  check_bool (Printf.sprintf "registry holds %d words (< 2 000 000)" words) true
    (words < 2_000_000)

(* --------------------------- folded profile ------------------------- *)

let test_profile_matches_decima () =
  let run () =
    let captured = ref None in
    let reg, _ =
      with_fresh_registry (fun () ->
          ferret_batch ~on_start:(fun _ region -> captured := Some region) ())
    in
    (reg, Option.get !captured)
  in
  let reg, region = run () in
  let folded = Profile.folded reg in
  check_bool "profile non-empty" true (folded <> "");
  (* Determinism: a second same-seed run folds to the same bytes. *)
  let reg2, _ = run () in
  check_string "profile deterministic" folded (Profile.folded reg2);
  (* Exact agreement with Decima's per-task compute totals. *)
  let d = R.Region.decima region in
  let names =
    List.map (fun (tk : Task.t) -> tk.Task.name) (R.Region.scheme region).Task.tasks
  in
  let rows = Profile.parse folded in
  List.iteri
    (fun i name ->
      let total = R.Decima.compute_ns d i in
      let in_profile =
        List.filter_map
          (fun (frames, v) ->
            match frames with
            | [ _; _; task ] when task = name -> Some v
            | _ -> None)
          rows
      in
      if total > 0 then check_bool ("stage " ^ name ^ " profiled") true (in_profile <> []);
      check_int ("stage " ^ name ^ " compute ns") total (List.fold_left ( + ) 0 in_profile))
    names;
  (* Every row maps back to a known stage of this run. *)
  List.iter
    (fun (frames, v) ->
      check_bool "positive sample" true (v > 0);
      match frames with
      | [ region_f; scheme_f; task ] ->
          check_string "region frame" region.R.Region.name region_f;
          check_string "scheme frame" (R.Region.scheme_name region) scheme_f;
          check_bool ("known task " ^ task) true (List.mem task names)
      | _ -> Alcotest.fail "profile row must have region;scheme;task frames")
    rows

let test_profile_parse_roundtrip () =
  let reg = Metrics.create () in
  let c name =
    Metrics.counter reg Profile.default_family
      ~labels:[ ("region", "r 1"); ("scheme", "s;2"); ("task", name) ]
  in
  Metrics.inc_by (c "a") 10;
  Metrics.inc_by (c "b") 20;
  ignore (c "zero");  (* zero-valued series are skipped *)
  let folded = Profile.folded reg in
  check_bool "frames sanitized" true
    (Profile.parse folded = [ ([ "r_1"; "s_2"; "a" ], 10); ([ "r_1"; "s_2"; "b" ], 20) ])

(* ----------------------------- dashboard ---------------------------- *)

let test_dashboard_render () =
  let reg = Metrics.create () in
  check_bool "empty registry renders placeholder" true
    (String.length (Dashboard.render ~now_s:0.0 reg) > 0);
  Metrics.inc_by (Metrics.counter reg "parcae_x_total" ~labels:[ ("k", "v") ]) 3;
  Metrics.set_gauge (Metrics.gauge reg "parcae_depth") 4.5;
  Metrics.observe_summary (Metrics.summary reg "parcae_s_ns") 1000;
  let out = Dashboard.render ~now_s:1.25 reg in
  List.iter
    (fun needle ->
      check_bool ("render mentions " ^ needle) true (contains out needle))
    [ "parcae_x_total{k=v}"; "parcae_depth"; "parcae_s_ns"; "p999" ];
  check_bool "no latency panel without a collector" false
    (contains out "latency (request spans)");
  (* A span collector holding completions adds the latency panel. *)
  let sc = Obs.Span.create () in
  Obs.Span.with_collector sc (fun () ->
      let sp = Obs.Span.make_span () in
      Obs.Span.reset sp ~id:1 ~arrival_ns:0;
      Obs.Span.finish sp ~now:1_000;
      check_bool "render has the latency panel" true
        (contains (Dashboard.render ~now_s:1.25 reg) "latency (request spans)"))

let suite =
  [
    Alcotest.test_case "registry: instruments and series identity" `Quick test_instruments;
    Alcotest.test_case "registry: family conflicts rejected" `Quick test_family_conflicts;
    Alcotest.test_case "registry: null registry is inert" `Quick test_null_registry_inert;
    Alcotest.test_case "prometheus: real run passes format validation" `Quick
      test_real_run_prometheus_valid;
    Alcotest.test_case "json: real run snapshot parses" `Quick test_real_run_json_parses;
    Alcotest.test_case "counters monotone from mid-run to end" `Quick
      test_counters_monotone_mid_to_end;
    Alcotest.test_case "metrics on/off: identical results, deterministic snapshots" `Quick
      test_metrics_do_not_perturb_run;
    Alcotest.test_case "chan metrics: block series only after a block (sim)" `Quick
      test_chan_block_series_sim;
    Alcotest.test_case "chan metrics: no block series without a block (native)" `Quick
      test_chan_block_series_native;
    Alcotest.test_case "chan metrics: crc32 registry stays small" `Quick
      test_crc32_registry_bounded;
    Alcotest.test_case "chan observation: sim and native report the same" `Quick
      test_chan_observation_backends;
    Alcotest.test_case "chan observation: a blocked recv charges its core's lane (sim)" `Quick
      test_chan_wait_lane_sim;
    Alcotest.test_case "profile: folded stacks match Decima totals" `Quick
      test_profile_matches_decima;
    Alcotest.test_case "profile: sanitize and parse round-trip" `Quick
      test_profile_parse_roundtrip;
    Alcotest.test_case "dashboard: renders all instrument kinds" `Quick test_dashboard_render;
  ]
