(* The typed trace-event vocabulary of the runtime protocol.

   Every event is stamped with the simulated time (virtual nanoseconds) at
   which it was emitted.  The vocabulary mirrors the observable protocol of
   the paper: region lifecycle (launch/termination), the closed-loop
   controller's FSM transitions (Figure 6.3), the pause/reconfigure/resume
   sequence (Section 6.2) with its channel flushes (Section 4.5), the
   barrier-less DoP resizes (Section 7.2), the daemon's platform-wide
   thread partitioning (Section 6.4.3), and Decima's hook and feature
   samples (Section 4.7).  [Oracle] replays a trace and checks the protocol
   invariants; [Export] renders timelines (Figure 8.8) for Perfetto. *)

(* Controller FSM states (Figure 6.3).  Defined here, below the runtime in
   the dependency order, so traces stay decodable without the runtime;
   [Controller.state] re-exports this type. *)
type ctrl_state = Init | Calibrate | Optimize | Monitor

let ctrl_state_to_string = function
  | Init -> "INIT"
  | Calibrate -> "CALIB"
  | Optimize -> "OPT"
  | Monitor -> "MONITOR"

let ctrl_state_of_string = function
  | "INIT" -> Init
  | "CALIB" -> Calibrate
  | "OPT" -> Optimize
  | "MONITOR" -> Monitor
  | s -> invalid_arg ("Event.ctrl_state_of_string: " ^ s)

let ctrl_state_code = function Init -> 0 | Calibrate -> 1 | Optimize -> 2 | Monitor -> 3

type kind =
  | Region_start of { region : string; scheme : string; threads : int; budget : int }
      (* a managed region launched its worker teams *)
  | Region_stop of { region : string }
      (* the region reached Done (master completed or terminated) *)
  | Ctrl_state of { region : string; state : ctrl_state }
      (* the closed-loop controller entered an FSM state *)
  | Dop_change of {
      region : string;
      scheme : string;
      old_dop : int;  (* total threads before the change *)
      new_dop : int;  (* total threads after the change *)
      budget : int;  (* region budget at the moment of the change *)
      light : bool;  (* barrier-less resize (Section 7.2) vs pause/resume *)
    }
  | Pause of { region : string }
      (* pause signalled; workers are draining toward the park barrier *)
  | Resume of { region : string; scheme : string; threads : int }
      (* region relaunched (possibly under a new configuration) *)
  | Chan_flush of { chan : string; dropped : int }
      (* a channel was drained / stripped of sentinels during reset *)
  | Budget_grant of { region : string; budget : int }
      (* the platform daemon (or an operator) changed the region's budget *)
  | Daemon_repartition of { shares : (string * int) list; total : int }
      (* the daemon re-partitioned the platform across programs *)
  | Hook_sample of { task : int; dt_ns : int }
      (* one begin/end hook pair measured [dt_ns] of task compute *)
  | Feature_sample of { name : string; value : float }
      (* a platform feature callback ("SystemPower", ...) was read *)
  | Cores_online of { cores : int }
      (* the platform changed the number of available cores *)
  | Trace_overflow of { dropped : int }
      (* the sink ring filled and overwrote [dropped] older events; the
         exporters prepend this so consumers see the loss explicitly *)
  | Span_overflow of { dropped : int }
      (* the completed-span ring filled and began overwriting exemplars;
         quantiles stay exact (aggregates absorbed every span), only
         per-request timelines are lost *)
  | Task_spawn of { task : int; parent : int; name : string }
      (* a scheduler task/fiber was created; [parent] is the spawning
         task id, or -1 when spawned from outside the engine *)
  | Task_done of { task : int; busy_ns : int }
      (* a task completed having accumulated [busy_ns] of compute *)
  | Chan_send_ev of { chan : string; seq : int; task : int; busy_ns : int }
      (* task [task] enqueued the [seq]-th item (0-based) into [chan],
         with [busy_ns] cumulative compute at the send *)
  | Chan_recv_ev of { chan : string; seq : int; task : int; busy_ns : int }
      (* task [task] dequeued the [seq]-th item of [chan]; FIFO order
         makes (chan, seq) the send->recv causal edge *)
  | Steal_ev of { task : int; from_lane : int; to_lane : int }
      (* a task migrated between execution lanes via a successful steal *)

type t = { t : int; kind : kind }

let make ~t kind = { t; kind }

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)
(* ------------------------------------------------------------------ *)

let kind_name = function
  | Region_start _ -> "region_start"
  | Region_stop _ -> "region_stop"
  | Ctrl_state _ -> "ctrl_state"
  | Dop_change _ -> "dop_change"
  | Pause _ -> "pause"
  | Resume _ -> "resume"
  | Chan_flush _ -> "chan_flush"
  | Budget_grant _ -> "budget_grant"
  | Daemon_repartition _ -> "daemon_repartition"
  | Hook_sample _ -> "hook_sample"
  | Feature_sample _ -> "feature_sample"
  | Cores_online _ -> "cores_online"
  | Trace_overflow _ -> "trace_overflow"
  | Span_overflow _ -> "span_overflow"
  | Task_spawn _ -> "task_spawn"
  | Task_done _ -> "task_done"
  | Chan_send_ev _ -> "chan_send"
  | Chan_recv_ev _ -> "chan_recv"
  | Steal_ev _ -> "steal"

let to_json { t; kind } =
  let fields =
    match kind with
    | Region_start { region; scheme; threads; budget } ->
        [ ("region", Json.Str region); ("scheme", Json.Str scheme);
          ("threads", Json.Int threads); ("budget", Json.Int budget) ]
    | Region_stop { region } -> [ ("region", Json.Str region) ]
    | Ctrl_state { region; state } ->
        [ ("region", Json.Str region); ("state", Json.Str (ctrl_state_to_string state)) ]
    | Dop_change { region; scheme; old_dop; new_dop; budget; light } ->
        [ ("region", Json.Str region); ("scheme", Json.Str scheme);
          ("old_dop", Json.Int old_dop); ("new_dop", Json.Int new_dop);
          ("budget", Json.Int budget); ("light", Json.Bool light) ]
    | Pause { region } -> [ ("region", Json.Str region) ]
    | Resume { region; scheme; threads } ->
        [ ("region", Json.Str region); ("scheme", Json.Str scheme);
          ("threads", Json.Int threads) ]
    | Chan_flush { chan; dropped } ->
        [ ("chan", Json.Str chan); ("dropped", Json.Int dropped) ]
    | Budget_grant { region; budget } ->
        [ ("region", Json.Str region); ("budget", Json.Int budget) ]
    | Daemon_repartition { shares; total } ->
        [ ("total", Json.Int total);
          ("shares",
           Json.List
             (List.map (fun (n, b) -> Json.List [ Json.Str n; Json.Int b ]) shares)) ]
    | Hook_sample { task; dt_ns } -> [ ("task", Json.Int task); ("dt_ns", Json.Int dt_ns) ]
    | Feature_sample { name; value } ->
        [ ("name", Json.Str name); ("value", Json.Float value) ]
    | Cores_online { cores } -> [ ("cores", Json.Int cores) ]
    | Trace_overflow { dropped } -> [ ("dropped", Json.Int dropped) ]
    | Span_overflow { dropped } -> [ ("dropped", Json.Int dropped) ]
    | Task_spawn { task; parent; name } ->
        [ ("task", Json.Int task); ("parent", Json.Int parent);
          ("name", Json.Str name) ]
    | Task_done { task; busy_ns } ->
        [ ("task", Json.Int task); ("busy_ns", Json.Int busy_ns) ]
    | Chan_send_ev { chan; seq; task; busy_ns } ->
        [ ("chan", Json.Str chan); ("seq", Json.Int seq);
          ("task", Json.Int task); ("busy_ns", Json.Int busy_ns) ]
    | Chan_recv_ev { chan; seq; task; busy_ns } ->
        [ ("chan", Json.Str chan); ("seq", Json.Int seq);
          ("task", Json.Int task); ("busy_ns", Json.Int busy_ns) ]
    | Steal_ev { task; from_lane; to_lane } ->
        [ ("task", Json.Int task); ("from_lane", Json.Int from_lane);
          ("to_lane", Json.Int to_lane) ]
  in
  Json.Obj (("t", Json.Int t) :: ("ev", Json.Str (kind_name kind)) :: fields)

let of_json j =
  let t = Json.get_int "t" j in
  let kind =
    match Json.get_str "ev" j with
    | "region_start" ->
        Region_start
          { region = Json.get_str "region" j; scheme = Json.get_str "scheme" j;
            threads = Json.get_int "threads" j; budget = Json.get_int "budget" j }
    | "region_stop" -> Region_stop { region = Json.get_str "region" j }
    | "ctrl_state" ->
        Ctrl_state
          { region = Json.get_str "region" j;
            state = ctrl_state_of_string (Json.get_str "state" j) }
    | "dop_change" ->
        Dop_change
          { region = Json.get_str "region" j; scheme = Json.get_str "scheme" j;
            old_dop = Json.get_int "old_dop" j; new_dop = Json.get_int "new_dop" j;
            budget = Json.get_int "budget" j; light = Json.get_bool "light" j }
    | "pause" -> Pause { region = Json.get_str "region" j }
    | "resume" ->
        Resume
          { region = Json.get_str "region" j; scheme = Json.get_str "scheme" j;
            threads = Json.get_int "threads" j }
    | "chan_flush" ->
        Chan_flush { chan = Json.get_str "chan" j; dropped = Json.get_int "dropped" j }
    | "budget_grant" ->
        Budget_grant { region = Json.get_str "region" j; budget = Json.get_int "budget" j }
    | "daemon_repartition" ->
        Daemon_repartition
          { total = Json.get_int "total" j;
            shares =
              List.map
                (function
                  | Json.List [ Json.Str n; Json.Int b ] -> (n, b)
                  | _ -> raise (Json.Parse_error "bad share entry"))
                (Json.get_list "shares" j) }
    | "hook_sample" ->
        Hook_sample { task = Json.get_int "task" j; dt_ns = Json.get_int "dt_ns" j }
    | "feature_sample" ->
        Feature_sample { name = Json.get_str "name" j; value = Json.get_float "value" j }
    | "cores_online" -> Cores_online { cores = Json.get_int "cores" j }
    | "trace_overflow" -> Trace_overflow { dropped = Json.get_int "dropped" j }
    | "span_overflow" -> Span_overflow { dropped = Json.get_int "dropped" j }
    | "task_spawn" ->
        Task_spawn
          { task = Json.get_int "task" j; parent = Json.get_int "parent" j;
            name = Json.get_str "name" j }
    | "task_done" ->
        Task_done { task = Json.get_int "task" j; busy_ns = Json.get_int "busy_ns" j }
    | "chan_send" ->
        Chan_send_ev
          { chan = Json.get_str "chan" j; seq = Json.get_int "seq" j;
            task = Json.get_int "task" j; busy_ns = Json.get_int "busy_ns" j }
    | "chan_recv" ->
        Chan_recv_ev
          { chan = Json.get_str "chan" j; seq = Json.get_int "seq" j;
            task = Json.get_int "task" j; busy_ns = Json.get_int "busy_ns" j }
    | "steal" ->
        Steal_ev
          { task = Json.get_int "task" j; from_lane = Json.get_int "from_lane" j;
            to_lane = Json.get_int "to_lane" j }
    | s -> raise (Json.Parse_error ("unknown event kind " ^ s))
  in
  { t; kind }

let to_string e = Json.to_string (to_json e)
