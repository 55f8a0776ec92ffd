(* Trace exporters.

   JSONL: one event per line, the canonical machine format; [parse_jsonl]
   is its exact inverse, which the round-trip tests and the determinism
   regression rely on.

   Chrome trace_event: the JSON object format understood by
   chrome://tracing and Perfetto (https://ui.perfetto.dev).  Regions map to
   threads of one "parcae" process; region lifetimes and pause windows
   become duration (B/E) slices, controller state / DoP / cores / features
   become counter tracks, and the remaining protocol events become instants
   with their payload in [args].  Timestamps are microseconds as the format
   requires. *)

(* ------------------------------------------------------------------ *)
(* JSONL.                                                              *)
(* ------------------------------------------------------------------ *)

let jsonl_to_buf buf events =
  List.iter
    (fun ev ->
      Json.to_buf buf (Event.to_json ev);
      Buffer.add_char buf '\n')
    events

let jsonl events =
  let buf = Buffer.create 4096 in
  jsonl_to_buf buf events;
  Buffer.contents buf

let parse_jsonl s =
  String.split_on_char '\n' s
  |> List.filter (fun line -> String.trim line <> "")
  |> List.map (fun line -> Event.of_json (Json.parse line))

(* ------------------------------------------------------------------ *)
(* Chrome trace_event.                                                 *)
(* ------------------------------------------------------------------ *)

(* Fixed tids for the non-region tracks. *)
let tid_daemon = 1000
let tid_decima = 1001
let tid_platform = 1002
let tid_channels = 1003
let tid_scheduler = 1004

(* All internal timestamps are integer nanoseconds; the trace_event format
   wants microseconds, so this is the single conversion point. *)
let us_of_ns ns = float_of_int ns /. 1000.0
let ts_us ns = Json.Float (us_of_ns ns)

let chrome events =
  (* Assign region tids in order of first appearance so the layout is
     stable across runs of the same experiment. *)
  let region_tids = Hashtbl.create 7 in
  let next_tid = ref 0 in
  let tid_of_region r =
    match Hashtbl.find_opt region_tids r with
    | Some tid -> tid
    | None ->
        incr next_tid;
        Hashtbl.add region_tids r !next_tid;
        !next_tid
  in
  let out = ref [] in
  let push e = out := e :: !out in
  let record ?(args = []) ~name ~ph ~tid t =
    let base =
      [ ("name", Json.Str name); ("ph", Json.Str ph); ("ts", ts_us t);
        ("pid", Json.Int 1); ("tid", Json.Int tid) ]
    in
    let args = match args with [] -> [] | a -> [ ("args", Json.Obj a) ] in
    push (Json.Obj (base @ args))
  in
  let counter ~name ~tid t v =
    record ~args:[ ("value", v) ] ~name ~ph:"C" ~tid t
  in
  List.iter
    (fun { Event.t; kind } ->
      match kind with
      | Event.Region_start { region; scheme; threads; budget } ->
          let tid = tid_of_region region in
          record ~name:("region " ^ scheme) ~ph:"B" ~tid t
            ~args:[ ("threads", Json.Int threads); ("budget", Json.Int budget) ];
          counter ~name:("dop:" ^ region) ~tid t (Json.Int threads)
      | Event.Region_stop { region } ->
          record ~name:"region" ~ph:"E" ~tid:(tid_of_region region) t
      | Event.Ctrl_state { region; state } ->
          counter ~name:("ctrl:" ^ region) ~tid:(tid_of_region region) t
            (Json.Int (Event.ctrl_state_code state))
      | Event.Dop_change { region; scheme; old_dop; new_dop; budget; light } ->
          let tid = tid_of_region region in
          record ~name:"dop-change" ~ph:"i" ~tid t
            ~args:
              [ ("scheme", Json.Str scheme); ("old", Json.Int old_dop);
                ("new", Json.Int new_dop); ("budget", Json.Int budget);
                ("light", Json.Bool light) ];
          counter ~name:("dop:" ^ region) ~tid t (Json.Int new_dop)
      | Event.Pause { region } ->
          record ~name:"paused" ~ph:"B" ~tid:(tid_of_region region) t
      | Event.Resume { region; scheme; threads } ->
          record ~name:"paused" ~ph:"E" ~tid:(tid_of_region region) t
            ~args:[ ("scheme", Json.Str scheme); ("threads", Json.Int threads) ]
      | Event.Chan_flush { chan; dropped } ->
          record ~name:"chan-flush" ~ph:"i" ~tid:tid_channels t
            ~args:[ ("chan", Json.Str chan); ("dropped", Json.Int dropped) ]
      | Event.Budget_grant { region; budget } ->
          counter ~name:("budget:" ^ region) ~tid:(tid_of_region region) t
            (Json.Int budget)
      | Event.Daemon_repartition { shares; total } ->
          record ~name:"repartition" ~ph:"i" ~tid:tid_daemon t
            ~args:
              (("total", Json.Int total)
              :: List.map (fun (n, b) -> (n, Json.Int b)) shares)
      | Event.Hook_sample { task; dt_ns } ->
          counter ~name:(Printf.sprintf "exec-ns:task%d" task) ~tid:tid_decima t
            (Json.Int dt_ns)
      | Event.Feature_sample { name; value } ->
          counter ~name ~tid:tid_decima t (Json.Float value)
      | Event.Cores_online { cores } ->
          counter ~name:"online-cores" ~tid:tid_platform t (Json.Int cores)
      | Event.Trace_overflow { dropped } ->
          record ~name:"trace-overflow" ~ph:"i" ~tid:tid_platform t
            ~args:[ ("dropped", Json.Int dropped) ]
      | Event.Span_overflow { dropped } ->
          record ~name:"span-overflow" ~ph:"i" ~tid:tid_platform t
            ~args:[ ("dropped", Json.Int dropped) ]
      | Event.Task_spawn { task; parent; name } ->
          record ~name:("spawn " ^ name) ~ph:"i" ~tid:tid_scheduler t
            ~args:[ ("task", Json.Int task); ("parent", Json.Int parent) ]
      | Event.Task_done { task; busy_ns } ->
          record ~name:"task-done" ~ph:"i" ~tid:tid_scheduler t
            ~args:[ ("task", Json.Int task); ("busy_ns", Json.Int busy_ns) ]
      | Event.Chan_send_ev { chan; seq; task; _ } ->
          (* Flow-event arrows: one send (s) to one recv (f) per (chan, seq). *)
          record ~name:("send " ^ chan) ~ph:"s" ~tid:tid_channels t
            ~args:[ ("seq", Json.Int seq); ("task", Json.Int task) ]
      | Event.Chan_recv_ev { chan; seq; task; _ } ->
          record ~name:("recv " ^ chan) ~ph:"f" ~tid:tid_channels t
            ~args:[ ("seq", Json.Int seq); ("task", Json.Int task) ]
      | Event.Steal_ev { task; from_lane; to_lane } ->
          record ~name:"steal" ~ph:"i" ~tid:tid_scheduler t
            ~args:
              [ ("task", Json.Int task); ("from", Json.Int from_lane);
                ("to", Json.Int to_lane) ])
    events;
  (* Metadata: process and track names make the Perfetto view readable. *)
  let meta name tid label =
    Json.Obj
      [ ("name", Json.Str name); ("ph", Json.Str "M"); ("pid", Json.Int 1);
        ("tid", Json.Int tid); ("args", Json.Obj [ ("name", Json.Str label) ]) ]
  in
  let metas =
    meta "process_name" 0 "parcae"
    :: Hashtbl.fold (fun r tid acc -> meta "thread_name" tid r :: acc) region_tids []
    @ [ meta "thread_name" tid_daemon "daemon"; meta "thread_name" tid_decima "decima";
        meta "thread_name" tid_platform "platform"; meta "thread_name" tid_channels "channels";
        meta "thread_name" tid_scheduler "scheduler" ]
  in
  Json.to_string
    (Json.Obj
       [ ("traceEvents", Json.List (metas @ List.rev !out));
         ("displayTimeUnit", Json.Str "ms") ])

(* ------------------------------------------------------------------ *)
(* Sink-aware wrappers: drops are reported, never silent.              *)
(* ------------------------------------------------------------------ *)

let events_of_sink sink =
  let events = Sink.events sink in
  let d = Sink.dropped sink in
  if d = 0 then events
  else
    (* Stamp the overflow marker at the oldest retained time so it sorts
       first: everything before it was lost. *)
    let t0 = match events with e :: _ -> e.Event.t | [] -> 0 in
    Event.make ~t:t0 (Event.Trace_overflow { dropped = d }) :: events

let jsonl_of_sink sink = jsonl (events_of_sink sink)
let chrome_of_sink sink = chrome (events_of_sink sink)

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)
