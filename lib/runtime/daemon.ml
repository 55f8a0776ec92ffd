(* Platform-wide control (Section 6.4.3, Algorithm 5).

   The daemon partitions the platform's hardware threads across the flexible
   parallel programs currently executing.  Each program runs under its own
   controller; the daemon:

   - grants each newly registered program an equal share of the platform
     (N / P threads) and notifies every controller of the change;
   - collects the optimized thread usage each controller reports on reaching
     its Monitor state, and redistributes the slack N - sum(N'_p) to
     programs that saturated their budget;
   - reclaims threads when programs terminate.

   The daemon runs as a simulated thread, mirroring the paper's daemon
   launched at system boot. *)

module Engine = Parcae_platform.Engine
module Trace = Parcae_obs.Trace
module Event = Parcae_obs.Event
module Metrics = Parcae_obs.Metrics
module Flight = Parcae_obs.Flight

type program = {
  region : Region.t;
  controller : Controller.t;
  mutable usage : int option;  (* optimized usage reported by controller *)
}

type t = {
  eng : Engine.t;
  total : int;  (* platform thread budget *)
  mutable programs : program list;
  mutable generation : int;  (* bumped on membership change *)
  period_ns : int;
  mutable stop : bool;
}

let create ?(period_ns = 10_000_000) eng ~total_threads =
  { eng; total = total_threads; programs = []; generation = 0; period_ns; stop = false }

let active t = List.filter (fun p -> not (Region.is_done p.region)) t.programs

(* Record the post-change partitioning of the platform.  [reason] is the
   flight-recorder tag: "equal_share" for membership-driven repartitions,
   "slack_reclaimed" for usage-driven redistributions (Algorithm 5). *)
let trace_shares t ~reason act =
  let shares = List.map (fun p -> (p.region.Region.name, Region.budget p.region)) act in
  if Trace.enabled () then
    Trace.emit ~t:(Engine.time t.eng) (Event.Daemon_repartition { total = t.total; shares });
  if Flight.enabled () then begin
    let granted = List.fold_left (fun acc (_, b) -> acc + b) 0 shares in
    Flight.decision ~t:(Engine.time t.eng) ~actor:"daemon" ~region:"platform" ~reason
      ~slack:shares ~candidate:granted ~chosen:granted ~threads:granted ~budget:t.total ()
  end;
  if Metrics.enabled () then begin
    let reg = Metrics.current () in
    Metrics.inc
      (Metrics.counter reg "parcae_daemon_repartitions_total"
         ~help:"Platform-wide budget repartitions/redistributions applied.");
    List.iter
      (fun p ->
        Metrics.set_gauge_int
          (Metrics.gauge reg "parcae_daemon_share"
             ~labels:[ ("program", p.region.Region.name) ]
             ~help:"Current thread budget granted to each program.")
          (Region.budget p.region))
      act
  end

(* Re-partition budgets equally among active programs and notify their
   controllers that resources changed. *)
let repartition t =
  let act = active t in
  let n = List.length act in
  if n > 0 then begin
    let share = max 1 (t.total / n) in
    List.iter
      (fun p ->
        p.usage <- None;
        if Region.budget p.region <> share then begin
          Region.set_budget p.region share;
          Controller.notify_resource_change p.controller
        end)
      act;
    trace_shares t ~reason:"equal_share" act
  end

(* Redistribute slack once every active program has reported its optimized
   usage.  Programs that used strictly less than their budget release the
   difference; programs that saturated their budget split the slack. *)
let redistribute t =
  let act = active t in
  if act <> [] && List.for_all (fun p -> p.usage <> None) act then begin
    let used p = match p.usage with Some u -> u | None -> Region.budget p.region in
    let total_used = List.fold_left (fun acc p -> acc + used p) 0 act in
    let slack = t.total - total_used in
    let saturated = List.filter (fun p -> used p >= Region.budget p.region) act in
    if slack > 0 && saturated <> [] then begin
      let share = slack / List.length saturated in
      if share > 0 then begin
        (* A program below its budget releases the difference: its grant
           becomes the usage it reported, so outstanding grants never sum
           above the platform total.  No notification — the new grant is
           exactly what the program said it needs. *)
        List.iter
          (fun p ->
            if used p < Region.budget p.region then Region.set_budget p.region (used p))
          act;
        List.iter
          (fun p ->
            Region.set_budget p.region (Region.budget p.region + share);
            p.usage <- None;
            Controller.notify_resource_change p.controller)
          saturated;
        trace_shares t ~reason:"slack_reclaimed" act
      end
    end
  end

(* Register a launched program: give every program a fresh equal share. *)
let register t region controller =
  let p = { region; controller; usage = None } in
  Controller.set_usage_callback controller (fun used ->
      p.usage <- Some used;
      redistribute t);
  t.programs <- p :: t.programs;
  t.generation <- t.generation + 1;
  repartition t

(* Daemon main loop: watch for program terminations and re-partition.
   Run as the body of a simulated thread. *)
let run t =
  let last_active = ref (List.length (active t)) in
  while not t.stop do
    Engine.sleep t.period_ns;
    let n = List.length (active t) in
    if n <> !last_active then begin
      last_active := n;
      if n > 0 then repartition t
    end;
    if n = 0 && t.programs <> [] then t.stop <- true
  done

let spawn eng t = Engine.spawn eng ~name:"parcae-daemon" (fun () -> run t)
