(* FastTrack-style happens-before tracking over IR array cells.

   Vector clocks are sparse hashtables keyed by task id; each task also
   keeps a scalar release clock.  A task's logical clock vector is its
   table plus the implicit binding [tid -> clk].  Release-type events
   (lock release, channel send, park, spawn, completion)
   publish that vector into a sync object and then bump the scalar, so an
   access epoch [(tid, c)] happens-before a task iff the task has acquired
   a publication with [vc(tid) >= c].

   Shadow memory keeps, per (array, index) cell, the last write epoch and
   the last read epoch per (task, node).  Writes are checked against the
   last write and every recorded read; reads against the last write.  A
   successful (race-free) write resets the read set — the checked reads
   are ordered before it, so later accesses ordered after the write are
   transitively ordered after them (the FastTrack read-set reset).

   Every check is also recorded as an observed collision between the two
   IR nodes involved, whether ordered or not: ordered collisions are
   dynamically-materialized dependences (the differential auditor compares
   them against the static PDG), raced ones are candidate soundness
   violations.

   One mutex guards the whole tracker: the sanitizer is an opt-in audit
   mode, so cross-domain contention on the native backend is an accepted
   cost, not a hot path. *)

type epoch = { e_task : int; e_clk : int; e_node : int }

type task_state = {
  vc : (int, int) Hashtbl.t;  (* acquired clocks, excluding self *)
  mutable clk : int;  (* own release clock *)
}

type cell = {
  mutable w : epoch option;  (* last write *)
  mutable w_was_write : bool;
  mutable readers : ((int * int) * epoch) list;  (* (task, node) -> last read *)
}

type pair_key = { pk_arr : string; pk_src : int; pk_dst : int }

type pair_stat = {
  mutable s_count : int;
  mutable s_raced : int;
  mutable s_src_write : bool;
  mutable s_dst_write : bool;
  mutable s_idx : int;
  mutable s_task_src : int;
  mutable s_task_dst : int;
}

type t = {
  mu : Mutex.t;
  tasks : (int, task_state) Hashtbl.t;
  cells : (string * int, cell) Hashtbl.t;
  syncs : (string, (int, int) Hashtbl.t) Hashtbl.t;  (* cumulative per key *)
  msgs : (string * int, (int, int) Hashtbl.t) Hashtbl.t;  (* (chan, seq) snapshots *)
  pair_stats : (pair_key, pair_stat) Hashtbl.t;
  mutable accesses : int;
  mutable race_occurrences : int;
}

let create () =
  {
    mu = Mutex.create ();
    tasks = Hashtbl.create 64;
    cells = Hashtbl.create 1024;
    syncs = Hashtbl.create 32;
    msgs = Hashtbl.create 256;
    pair_stats = Hashtbl.create 64;
    accesses = 0;
    race_occurrences = 0;
  }

(* ------------------------------------------------------------------ *)
(* Installation (the Trace scoped-cell pattern).                       *)
(* ------------------------------------------------------------------ *)

let cell : t option Atomic.t = Atomic.make None

let get () = Atomic.get cell
let enabled () = Atomic.get Observed.word land Observed.hb <> 0
let with_tracker tr f = Observed.install cell Observed.hb ~live:Option.is_some (Some tr) f

let locked tr f =
  Mutex.lock tr.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock tr.mu) f

(* ------------------------------------------------------------------ *)
(* Vector-clock plumbing.                                              *)
(* ------------------------------------------------------------------ *)

let task_state tr tid =
  match Hashtbl.find_opt tr.tasks tid with
  | Some st -> st
  | None ->
      let st = { vc = Hashtbl.create 8; clk = 0 } in
      Hashtbl.replace tr.tasks tid st;
      st

(* The task's full clock vector as a fresh table (self entry included). *)
let snapshot_of tid (st : task_state) =
  let s = Hashtbl.copy st.vc in
  Hashtbl.replace s tid st.clk;
  s

let join_into dst src =
  Hashtbl.iter
    (fun k v ->
      match Hashtbl.find_opt dst k with
      | Some v0 when v0 >= v -> ()
      | _ -> Hashtbl.replace dst k v)
    src

let sync_table tr key =
  match Hashtbl.find_opt tr.syncs key with
  | Some s -> s
  | None ->
      let s = Hashtbl.create 8 in
      Hashtbl.replace tr.syncs key s;
      s

let release_locked tr ~task ~key =
  let st = task_state tr task in
  join_into (sync_table tr key) (snapshot_of task st);
  st.clk <- st.clk + 1

let acquire_locked tr ~task ~key =
  match Hashtbl.find_opt tr.syncs key with
  | None -> ()
  | Some s ->
      let st = task_state tr task in
      join_into st.vc s

(* Did epoch [e] happen before the current state of [task]? *)
let ordered st ~task (e : epoch) =
  e.e_task = task
  ||
  match Hashtbl.find_opt st.vc e.e_task with
  | Some v -> e.e_clk <= v
  | None -> false

(* ------------------------------------------------------------------ *)
(* Causal-event hooks.                                                 *)
(* ------------------------------------------------------------------ *)

let on_spawn ~parent ~child =
  match Atomic.get cell with
  | None -> ()
  | Some tr ->
      locked tr (fun () ->
          let pst = task_state tr parent in
          let cst = task_state tr child in
          join_into cst.vc (snapshot_of parent pst);
          pst.clk <- pst.clk + 1)

let done_key tid = "task-done:" ^ string_of_int tid

let on_task_done ~task =
  match Atomic.get cell with
  | None -> ()
  | Some tr -> locked tr (fun () -> release_locked tr ~task ~key:(done_key task))

let on_join ~task ~joined =
  match Atomic.get cell with
  | None -> ()
  | Some tr -> locked tr (fun () -> acquire_locked tr ~task ~key:(done_key joined))

let on_release ~task ~key =
  match Atomic.get cell with
  | None -> ()
  | Some tr -> locked tr (fun () -> release_locked tr ~task ~key)

let on_acquire ~task ~key =
  match Atomic.get cell with
  | None -> ()
  | Some tr -> locked tr (fun () -> acquire_locked tr ~task ~key)

let on_send ~task ~chan ~seq =
  match Atomic.get cell with
  | None -> ()
  | Some tr ->
      locked tr (fun () ->
          let st = task_state tr task in
          Hashtbl.replace tr.msgs (chan, seq) (snapshot_of task st);
          st.clk <- st.clk + 1)

let on_recv ~task ~chan ~seq =
  match Atomic.get cell with
  | None -> ()
  | Some tr ->
      locked tr (fun () ->
          let st = task_state tr task in
          match Hashtbl.find_opt tr.msgs (chan, seq) with
          | Some snap ->
              Hashtbl.remove tr.msgs (chan, seq);
              join_into st.vc snap
          | None -> ())

(* ------------------------------------------------------------------ *)
(* Shadow-memory accesses.                                             *)
(* ------------------------------------------------------------------ *)

(* Sanitizer throughput counters; handle cached against the installed
   registry like every other instrumented module. *)
type san_metrics = { sm_accesses : Metrics.counter; sm_races : Metrics.counter }

let san_handles =
  Metrics.cached (fun reg ->
      {
        sm_accesses =
          Metrics.counter reg "parcae_sanitizer_accesses_total"
            ~help:"Array loads/stores checked by the race sanitizer.";
        sm_races =
          Metrics.counter reg "parcae_sanitizer_races_total"
            ~help:"Unordered conflicting access pairs the sanitizer observed.";
      })

let find_cell tr arr idx =
  let key = (arr, idx) in
  match Hashtbl.find_opt tr.cells key with
  | Some c -> c
  | None ->
      let c = { w = None; w_was_write = false; readers = [] } in
      Hashtbl.replace tr.cells key c;
      c

(* Record the collision (prior -> current) and return whether it raced. *)
let note_pair tr ~arr ~idx ~(prior : epoch) ~prior_write ~task ~node ~write ~is_ordered =
  let key = { pk_arr = arr; pk_src = prior.e_node; pk_dst = node } in
  let s =
    match Hashtbl.find_opt tr.pair_stats key with
    | Some s -> s
    | None ->
        let s =
          {
            s_count = 0;
            s_raced = 0;
            s_src_write = false;
            s_dst_write = false;
            s_idx = idx;
            s_task_src = prior.e_task;
            s_task_dst = task;
          }
        in
        Hashtbl.replace tr.pair_stats key s;
        s
  in
  s.s_count <- s.s_count + 1;
  s.s_src_write <- s.s_src_write || prior_write;
  s.s_dst_write <- s.s_dst_write || write;
  if not is_ordered then begin
    (* Prefer a raced occurrence as the reported example. *)
    s.s_idx <- idx;
    s.s_task_src <- prior.e_task;
    s.s_task_dst <- task;
    s.s_raced <- s.s_raced + 1;
    tr.race_occurrences <- tr.race_occurrences + 1;
    if Metrics.enabled () then Metrics.inc (san_handles ()).sm_races
  end

let on_access ~task ~arr ~idx ~node ~write =
  match Atomic.get cell with
  | None -> ()
  | Some tr ->
      locked tr (fun () ->
          tr.accesses <- tr.accesses + 1;
          if Metrics.enabled () then Metrics.inc (san_handles ()).sm_accesses;
          let st = task_state tr task in
          let cell = find_cell tr arr idx in
          (* Check against the last write (conflicts for both reads and
             writes). *)
          (match cell.w with
          | Some e ->
              note_pair tr ~arr ~idx ~prior:e ~prior_write:cell.w_was_write ~task ~node
                ~write ~is_ordered:(ordered st ~task e)
          | None -> ());
          if write then begin
            (* A write also conflicts with every recorded read. *)
            List.iter
              (fun ((rt, _), e) ->
                if not (rt = task && e.e_node = node) then
                  note_pair tr ~arr ~idx ~prior:e ~prior_write:false ~task ~node ~write
                    ~is_ordered:(ordered st ~task e))
              cell.readers;
            cell.w <- Some { e_task = task; e_clk = st.clk; e_node = node };
            cell.w_was_write <- true;
            cell.readers <- []
          end
          else begin
            let k = (task, node) in
            let e = { e_task = task; e_clk = st.clk; e_node = node } in
            cell.readers <- (k, e) :: List.remove_assoc k cell.readers
          end)

(* ------------------------------------------------------------------ *)
(* Results.                                                            *)
(* ------------------------------------------------------------------ *)

type pair = {
  p_arr : string;
  p_src : int;
  p_dst : int;
  p_src_write : bool;
  p_dst_write : bool;
  p_count : int;
  p_raced : int;
  p_idx : int;
  p_task_src : int;
  p_task_dst : int;
}

let pairs tr =
  locked tr (fun () ->
      Hashtbl.fold
        (fun k (s : pair_stat) acc ->
          {
            p_arr = k.pk_arr;
            p_src = k.pk_src;
            p_dst = k.pk_dst;
            p_src_write = s.s_src_write;
            p_dst_write = s.s_dst_write;
            p_count = s.s_count;
            p_raced = s.s_raced;
            p_idx = s.s_idx;
            p_task_src = s.s_task_src;
            p_task_dst = s.s_task_dst;
          }
          :: acc)
        tr.pair_stats [])
  |> List.sort (fun a b ->
         match compare a.p_arr b.p_arr with
         | 0 -> compare (a.p_src, a.p_dst) (b.p_src, b.p_dst)
         | c -> c)

let races tr = List.filter (fun p -> p.p_raced > 0) (pairs tr)
let access_count tr = locked tr (fun () -> tr.accesses)
let race_count tr = locked tr (fun () -> tr.race_occurrences)
let task_count tr = locked tr (fun () -> Hashtbl.length tr.tasks)
