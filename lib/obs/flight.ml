(* Flight recorder: decision log, overhead entries, JSONL codec, and the
   offline replayer.  See flight.mli for the model. *)

type task_obs = { task : string; iters : int; ips : float; exec_ns : float }

type decision = {
  epoch : int;
  t : int;
  actor : string;
  region : string;
  state : Event.ctrl_state option;
  reason : string;
  tasks : task_obs list;
  probes : (int * float) list;
  gradient : float option;
  inputs : (string * float) list;
  candidate : int;
  chosen : int;
  threads : int;
  budget : int;
  slack : (string * int) list;
}

type overhead = { o_t : int; o_region : string; o_phase : string; o_ns : int }
type entry = Decision of decision | Overhead of overhead

(* ------------------------------------------------------------------ *)
(* The recorder.                                                      *)

type t = {
  mutable entries : entry list;  (* newest first *)
  mutable count : int;
  mutable next_epoch : int;
}

let create () = { entries = []; count = 0; next_epoch = 0 }
let null = create ()
let cell = Atomic.make null
let enabled () = Atomic.get Observed.word land Observed.flight <> 0
let with_recorder r f = Observed.install cell Observed.flight ~live:(fun r -> r != null) r f

let entries r = List.rev r.entries
let count r = r.count

let push r e =
  r.entries <- e :: r.entries;
  r.count <- r.count + 1

let decision ~t ~actor ~region ?state ~reason ?(tasks = []) ?(probes = []) ?gradient
    ?(inputs = []) ?(slack = []) ~candidate ~chosen ~threads ~budget () =
  let r = Atomic.get cell in
  if r != null then begin
    let epoch = r.next_epoch in
    r.next_epoch <- epoch + 1;
    push r
      (Decision
         {
           epoch;
           t;
           actor;
           region;
           state;
           reason;
           tasks;
           probes;
           gradient;
           inputs;
           candidate;
           chosen;
           threads;
           budget;
           slack;
         })
  end

let overhead ~t ~region ~phase ~ns =
  let r = Atomic.get cell in
  if r != null then push r (Overhead { o_t = t; o_region = region; o_phase = phase; o_ns = ns })

(* ------------------------------------------------------------------ *)
(* JSONL codec.                                                       *)

let num = function
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | _ -> raise (Json.Parse_error "expected a number")

let task_to_json o =
  Json.List [ Json.Str o.task; Json.Int o.iters; Json.Float o.ips; Json.Float o.exec_ns ]

let task_of_json = function
  | Json.List [ Json.Str task; Json.Int iters; ips; exec_ns ] ->
      { task; iters; ips = num ips; exec_ns = num exec_ns }
  | _ -> raise (Json.Parse_error "bad task entry")

let pair_if name l = if l = [] then [] else [ (name, Json.List l) ]

let decision_to_json d =
  Json.Obj
    ([ ("rec", Json.Str "decision"); ("epoch", Json.Int d.epoch); ("t", Json.Int d.t);
       ("actor", Json.Str d.actor); ("region", Json.Str d.region) ]
    @ (match d.state with
      | None -> []
      | Some s -> [ ("state", Json.Str (Event.ctrl_state_to_string s)) ])
    @ [ ("reason", Json.Str d.reason) ]
    @ pair_if "tasks" (List.map task_to_json d.tasks)
    @ pair_if "probes"
        (List.map (fun (dop, f) -> Json.List [ Json.Int dop; Json.Float f ]) d.probes)
    @ (match d.gradient with None -> [] | Some g -> [ ("gradient", Json.Float g) ])
    @ pair_if "inputs" (List.map (fun (k, v) -> Json.List [ Json.Str k; Json.Float v ]) d.inputs)
    @ pair_if "slack" (List.map (fun (n, b) -> Json.List [ Json.Str n; Json.Int b ]) d.slack)
    @ [ ("candidate", Json.Int d.candidate); ("chosen", Json.Int d.chosen);
        ("threads", Json.Int d.threads); ("budget", Json.Int d.budget) ])

let opt_list name of_item j =
  match Json.member name j with
  | None -> []
  | Some (Json.List l) -> List.map of_item l
  | Some _ -> raise (Json.Parse_error (name ^ " must be a list"))

let decision_of_json j =
  {
    epoch = Json.get_int "epoch" j;
    t = Json.get_int "t" j;
    actor = Json.get_str "actor" j;
    region = Json.get_str "region" j;
    state =
      (match Json.member "state" j with
      | Some (Json.Str s) -> Some (Event.ctrl_state_of_string s)
      | Some _ -> raise (Json.Parse_error "state must be a string")
      | None -> None);
    reason = Json.get_str "reason" j;
    tasks = opt_list "tasks" task_of_json j;
    probes =
      opt_list "probes"
        (function
          | Json.List [ Json.Int dop; f ] -> (dop, num f)
          | _ -> raise (Json.Parse_error "bad probe entry"))
        j;
    gradient = (match Json.member "gradient" j with None -> None | Some g -> Some (num g));
    inputs =
      opt_list "inputs"
        (function
          | Json.List [ Json.Str k; v ] -> (k, num v)
          | _ -> raise (Json.Parse_error "bad input entry"))
        j;
    candidate = Json.get_int "candidate" j;
    chosen = Json.get_int "chosen" j;
    threads = Json.get_int "threads" j;
    budget = Json.get_int "budget" j;
    slack =
      opt_list "slack"
        (function
          | Json.List [ Json.Str n; Json.Int b ] -> (n, b)
          | _ -> raise (Json.Parse_error "bad slack entry"))
        j;
  }

let overhead_to_json o =
  Json.Obj
    [ ("rec", Json.Str "overhead"); ("t", Json.Int o.o_t); ("region", Json.Str o.o_region);
      ("phase", Json.Str o.o_phase); ("ns", Json.Int o.o_ns) ]

let overhead_of_json j =
  {
    o_t = Json.get_int "t" j;
    o_region = Json.get_str "region" j;
    o_phase = Json.get_str "phase" j;
    o_ns = Json.get_int "ns" j;
  }

let entry_to_json = function
  | Decision d -> decision_to_json d
  | Overhead o -> overhead_to_json o

let entry_of_json j =
  match Json.member "rec" j with
  | Some (Json.Str "decision") -> Decision (decision_of_json j)
  | Some (Json.Str "overhead") -> Overhead (overhead_of_json j)
  | _ -> raise (Json.Parse_error "flight entry without a rec tag")

let to_jsonl es =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Json.to_buf buf (entry_to_json e);
      Buffer.add_char buf '\n')
    es;
  Buffer.contents buf

let parse_jsonl s =
  String.split_on_char '\n' s
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" then None else Some (entry_of_json (Json.parse line)))

(* ------------------------------------------------------------------ *)
(* The pure gradient-ascent rule (Algorithm 4).                       *)

module Ascent = struct
  type outcome = { probes : (int * float) list; chosen : int; fitness : float; reason : string }

  let climb ~measure ~d0 ~cap =
    let acc = ref [] in
    let probe d =
      match measure d with
      | None -> None
      | Some f ->
          acc := (d, f) :: !acc;
          Some f
    in
    match probe d0 with
    | None -> None
    | Some f0 -> (
        let up = if d0 + 1 <= cap then probe (d0 + 1) else None in
        let down = if d0 - 1 >= 1 then probe (d0 - 1) else None in
        (* Direction choice ties break upward: more parallelism at equal
           throughput is preferred while climbing, the reverse while
           descending (fewer threads at equal throughput). *)
        let dir, d1, f1 =
          match (up, down) with
          | Some fu, Some fd when fu >= f0 && fu >= fd -> (1, d0 + 1, fu)
          | Some fu, None when fu >= f0 -> (1, d0 + 1, fu)
          | _, Some fd when fd > f0 -> (-1, d0 - 1, fd)
          | _ -> (0, d0, f0)
        in
        let finish chosen fitness reason =
          Some { probes = List.rev !acc; chosen; fitness; reason }
        in
        if dir = 0 then finish d0 f0 "gradient_flat"
        else
          let reason = if dir = 1 then "gradient_positive" else "gradient_negative" in
          let rec go d_prev f_prev =
            let d_next = d_prev + dir in
            if d_next < 1 || d_next > cap then finish d_prev f_prev reason
            else
              match probe d_next with
              | None -> None
              | Some f_next ->
                  let keep = if dir = 1 then f_next > f_prev else f_next >= f_prev in
                  if keep then go d_next f_next else finish d_prev f_prev reason
          in
          go d1 f1)

  let gradient ~d0 probes =
    match
      (List.assoc_opt d0 probes, List.assoc_opt (d0 + 1) probes, List.assoc_opt (d0 - 1) probes)
    with
    | Some f0, Some fu, _ -> Some (fu -. f0)
    | Some f0, None, Some fd -> Some (f0 -. fd)
    | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Offline replay.                                                    *)

type replay_result = {
  decisions : int;
  mismatches : (int * string) list;
  moves : (string * int list) list;
}

let is_gradient = function
  | "gradient_positive" | "gradient_negative" | "gradient_flat" -> true
  | _ -> false

let input d k = List.assoc_opt k d.inputs

(* Replaying one decision yields the thread total of the configuration it
   applies ([None] when it applies nothing) plus an optional mismatch. *)
let replay_decision d : int option * string option =
  if is_gradient d.reason then
    let cap = match input d "cap" with Some c -> int_of_float c | None -> max_int in
    match
      Ascent.climb ~measure:(fun dop -> List.assoc_opt dop d.probes) ~d0:d.candidate ~cap
    with
    | None -> (Some d.threads, Some "gradient replay hit a DoP missing from the calibration table")
    | Some oc ->
        let move = Some (d.threads - d.chosen + oc.chosen) in
        if oc.chosen <> d.chosen then
          ( move,
            Some
              (Printf.sprintf "gradient replay chose DoP %d where the log says %d" oc.chosen
                 d.chosen) )
        else if oc.reason <> d.reason then
          (move, Some (Printf.sprintf "gradient replay took direction %s, log says %s" oc.reason d.reason))
        else (move, None)
  else
    match d.reason with
    | "adopt_best" -> (
        match d.probes with
        | [] -> (Some d.threads, Some "adopt_best carries an empty scheme table")
        | (c0, f0) :: rest -> (
            (* First maximum wins, mirroring the controller's [bt >= thr]
               keep rule: a later scheme replaces the best only when
               strictly better. *)
            let win, _ =
              List.fold_left (fun (bc, bf) (c, f) -> if f > bf then (c, f) else (bc, bf)) (c0, f0)
                rest
            in
            match input d "choice" with
            | Some ch when int_of_float ch = win -> (Some d.threads, None)
            | Some ch ->
                ( Some d.threads,
                  Some
                    (Printf.sprintf "adopt_best replay picked scheme %d, log says %d" win
                       (int_of_float ch)) )
            | None -> (Some d.threads, Some "adopt_best decision lacks its chosen scheme")))
    | "baseline" | "calibration_point" | "cache_hit" ->
        if d.chosen = d.candidate then (Some d.threads, None)
        else (Some d.threads, Some "applied configuration differs from its candidate")
    | "workload_slowed" | "workload_sped_up" -> (
        match (input d "base", input d "thr", input d "change_frac") with
        | Some base, Some thr, Some frac when base > 0.0 ->
            let drift = abs_float (thr -. base) /. base in
            if drift <= frac then (None, Some "recorded drift does not exceed the change threshold")
            else if d.reason = "workload_slowed" <> (thr < base) then
              (None, Some "drift direction contradicts the reason")
            else (None, None)
        | _ -> (None, Some "workload-change decision lacks base/thr/change_frac"))
    | "resources_grew" | "resources_shrank" -> (
        match (input d "old_budget", input d "new_budget") with
        | Some ob, Some nb ->
            if d.reason = "resources_grew" = (nb > ob) then (None, None)
            else (None, Some "budget delta contradicts the reason")
        | _ -> (None, Some "resource-change decision lacks old/new budgets"))
    | "rounds_exhausted" | "finished" -> (None, None)
    | "equal_share" | "slack_reclaimed" ->
        if List.exists (fun (_, b) -> b < 1) d.slack then
          (None, Some "daemon granted a program no threads")
        else if
          List.length d.slack <= d.budget
          && List.fold_left (fun a (_, b) -> a + b) 0 d.slack > d.budget
        then (None, Some "daemon shares exceed the platform total")
        else (None, None)
    | _ ->
        (* Mechanism proposals: the move is the proposal itself. *)
        if d.chosen = d.candidate then (Some d.chosen, None)
        else (Some d.chosen, Some "mechanism move differs from its proposal")

let collect_moves move_of es =
  let tbl : (string, int list ref) Hashtbl.t = Hashtbl.create 7 in
  let order = ref [] in
  List.iter
    (function
      | Overhead _ -> ()
      | Decision d -> (
          match move_of d with
          | None -> ()
          | Some threads -> (
              match Hashtbl.find_opt tbl d.region with
              | Some l -> l := threads :: !l
              | None ->
                  Hashtbl.add tbl d.region (ref [ threads ]);
                  order := d.region :: !order)))
    es;
  List.rev_map (fun r -> (r, List.rev !(Hashtbl.find tbl r))) !order

let recorded_move d =
  let applies =
    is_gradient d.reason
    ||
    match d.reason with
    | "adopt_best" | "baseline" | "calibration_point" | "cache_hit" -> true
    | "workload_slowed" | "workload_sped_up" | "resources_grew" | "resources_shrank"
    | "rounds_exhausted" | "finished" | "equal_share" | "slack_reclaimed" ->
        false
    | _ -> d.actor = "morta"
  in
  if applies then Some d.threads else None

let recorded_moves es = collect_moves recorded_move es

let replay es =
  let decisions = ref 0 and mismatches = ref [] in
  let replayed : (decision, int option) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (function
      | Overhead _ -> ()
      | Decision d ->
          incr decisions;
          let move, err = replay_decision d in
          Hashtbl.replace replayed d move;
          (match err with
          | None -> ()
          | Some what -> mismatches := (d.epoch, what) :: !mismatches))
    es;
  let moves =
    collect_moves (fun d -> match Hashtbl.find_opt replayed d with Some m -> m | None -> None) es
  in
  { decisions = !decisions; mismatches = List.rev !mismatches; moves }
