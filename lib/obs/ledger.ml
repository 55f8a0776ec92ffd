(* Reconfiguration overhead ledger: per-(region, phase) accumulators with
   fan-out to Metrics and Flight.  See ledger.mli. *)

let phases = [ "signal"; "barrier"; "flush"; "restart" ]

type t = { table : (string * string, int ref) Hashtbl.t }

let create () = { table = Hashtbl.create 17 }
let null = { table = Hashtbl.create 0 }
let cell = Atomic.make null

let with_ledger l f = Observed.install cell Observed.ledger ~live:(fun l -> l != null) l f

let active () =
  Atomic.get Observed.word land (Observed.ledger lor Observed.metrics lor Observed.flight) <> 0

let note ~t ~region ~phase ns =
  let ns = max 0 ns in
  let l = Atomic.get cell in
  if l != null then begin
    let key = (region, phase) in
    match Hashtbl.find_opt l.table key with
    | Some r -> r := !r + ns
    | None -> Hashtbl.add l.table key (ref ns)
  end;
  if Metrics.enabled () then
    Metrics.inc_by
      (Metrics.counter (Metrics.current ()) "parcae_reconfig_phase_ns_total"
         ~labels:[ ("region", region); ("phase", phase) ]
         ~help:"Reconfiguration time attributed to phases (signal, barrier, flush, restart, total)")
      ns;
  if Flight.enabled () then Flight.overhead ~t ~region ~phase ~ns

let phase_ns l ~region ~phase =
  match Hashtbl.find_opt l.table (region, phase) with Some r -> !r | None -> 0

let snapshot l =
  Hashtbl.fold (fun (region, phase) r acc -> (region, phase, !r) :: acc) l.table []
  |> List.sort compare
