(* Builder for single-level pipeline servers (ferret, dedup — Figure 6.2).

   The first (sequential) stage pulls requests off the external work queue;
   middle stages are parallel; the last (sequential) stage completes the
   request.  Two schemes are registered:

   - choice 0: the full pipeline, one task per stage;
   - choice 1: the fused pipeline, with all parallel stages collapsed into a
     single parallel task (Figure 6.2(b)) — the task-fusion alternative the
     TBF mechanism switches to when stage throughputs are badly unbalanced.

   Fusion eliminates the inter-stage channel hops, which is precisely its
   benefit over FDP's time-multiplexed emulation (Section 6.3.2). *)

module Engine = Parcae_platform.Engine
module Chan = Parcae_platform.Chan
module Config = Parcae_core.Config
module Task = Parcae_core.Task
module Task_status = Parcae_core.Task_status
module Pipeline = Parcae_core.Pipeline

type stage_spec = {
  s_name : string;
  s_cost : int;  (* per-request ns *)
  s_par : bool;
}

let spec ~name ~cost ~par = { s_name = name; s_cost = cost; s_par = par }

(* Build the app.  [stages] must start and end with sequential stages. *)
let make ?(alpha = 0.05) ?(dpmax = 24) ~name ~stages ~budget eng =
  let specs = Array.of_list stages in
  let n = Array.length specs in
  if n < 3 then invalid_arg "Flat_pipeline.make: need at least 3 stages";
  if specs.(0).s_par || specs.(n - 1).s_par then
    invalid_arg "Flat_pipeline.make: first and last stages must be sequential";
  let queue = Chan.create eng "work-queue" in
  let metrics = Metrics.create eng in
  (* Alpha converted to fixed point once; every stage burst then runs
     all-integer (App.compute_scaled_fp). *)
  let alpha_fp = App.alpha_fp alpha in
  let work req cost = App.compute_scaled_fp eng ~alpha_fp req cost in
  (* Every drain stage stamps the request's span: item -> span projection
     plus a non-allocating clock read (Engine.time, not the ambient-now
     effect), so per-stage compute and inter-stage waits are attributed
     whenever a collector is installed (DESIGN.md section 15). *)
  let span_of (r : Request.t) = r.Request.span in
  let span_clock () = Engine.time eng in

  (* A pipeline over [stages], its channels named [prefix ^ "q%d"]; the
     head polls the work queue and stamps each request's start, the tail
     completes it.  Every stage is a batch drain (DESIGN.md section 14):
     one recv_batch claims what is queued, one send_batch forwards the
     same message cells downstream, and the tail frees each completed
     request back to the pool — the steady-state request flow allocates
     nothing. *)
  let pipeline ~prefix ~scheme stages =
    let last = List.length stages - 1 in
    let q =
      Array.init last (fun i -> Chan.create ~capacity:8 eng (prefix ^ "q" ^ string_of_int i))
    in
    let stage i s =
      let cost = s.s_cost and input = if i = 0 then queue else q.(i - 1) in
      let next = if i = last then None else Some q.(i) in
      let body =
        if i = 0 then (fun _ctx req ->
          Request.note_start req ~now:(Engine.time eng);
          work req cost;
          Task_status.Iterating)
        else if i = last then (fun _ctx req ->
          work req cost;
          Metrics.note_complete metrics req;
          Request.free req;
          Task_status.Iterating)
        else (fun ctx req ->
          ctx.Task.hook_begin ();
          work req cost;
          ctx.Task.hook_end ();
          Task_status.Iterating)
      in
      Pipeline.drain_stage ~poll:(i = 0)
        ~ttype:(if s.s_par then Task.Par else Task.Seq)
        ~name:s.s_name ~input ~load:(Pipeline.load input) ?next ~span_of ~span_clock
        ~forward:(match next with Some c -> Pipeline.forward_to c | None -> fun _ -> ())
        body
    in
    let handles = List.mapi stage stages in
    let pd = Task.descriptor ~name:(name ^ scheme) (List.map (fun h -> h.Pipeline.task) handles) in
    (q, handles, pd)
  in
  (* Scheme 0 runs [stages]; scheme 1 fuses the parallel ones into one
     task between copies of the head and the tail. *)
  let q, pipe_stages, pipe_pd = pipeline ~prefix:"" ~scheme:"-pipe" stages in
  let fused_cost =
    Array.to_list specs |> List.filteri (fun i _ -> i > 0 && i < n - 1)
    |> List.fold_left (fun acc s -> acc + s.s_cost) 0
  in
  let copy s = { s with s_name = s.s_name ^ "-f" } in
  let fq, fused_stages, fused_pd =
    pipeline ~prefix:"f" ~scheme:"-fused"
      [ copy specs.(0); spec ~name:"combined" ~cost:fused_cost ~par:true; copy specs.(n - 1) ]
  in

  (* ---- Configurations. ---- *)
  let n_par = Array.length (Array.of_list (List.filter (fun s -> s.s_par) stages)) in
  let seqs = n - n_par in
  let even_share = max 1 (((budget - seqs) + n_par - 1) / max 1 n_par) in
  let cfg_of per_stage =
    Config.make
      (List.map
         (fun s -> if s.s_par then Config.task per_stage else Config.seq_task)
         stages)
  in
  let cfg_even = cfg_of even_share in
  let cfg_oversub = cfg_of budget in
  let cfg_single = cfg_of 1 in
  let cfg_fused =
    { (Config.make [ Config.seq_task; Config.task (max 1 (budget - 2)); Config.seq_task ]) with
      Config.choice = 1
    }
  in
  let loads =
    Array.init n (fun i ->
        if not specs.(i).s_par then None
        else Some (Pipeline.load q.(i - 1)))
  in
  {
    App.name;
    eng;
    queue;
    schemes = [ pipe_pd; fused_pd ];
    on_pause = (fun () -> Pipeline.inject_flush queue);
    on_reset =
      Pipeline.make_reset ~stages:(pipe_stages @ fused_stages)
        ~channels:((queue :: Array.to_list q) @ Array.to_list fq);
    metrics;
    wq_load = Pipeline.load queue;
    inner_dop_config = None;
    per_task_loads = loads;
    fused_choice = Some 1;
    dpmax;
    configs =
      [
        ("even", cfg_even);
        ("oversubscribed", cfg_oversub);
        ("single", cfg_single);
        ("fused", cfg_fused);
      ];
    default_config = cfg_even;
    seq_request_ns = Array.fold_left (fun acc s -> acc + s.s_cost) 0 specs;
  }
