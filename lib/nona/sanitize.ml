(* The static↔dynamic differential auditor over the happens-before race
   sanitizer.

   Each emitted scheme is executed once under an installed Hb tracker;
   the tracker's observed collisions (same-cell access pairs with at
   least one write, attributed to IR nodes) are then compared against the
   static story:

     dynamic race      + verifier passed the plan  -> S701 soundness error
     dynamic collision + no PDG memory dependence  -> S702 soundness error
     PDG May-dependence + no dynamic collision     -> G711 precision gap

   S701 is the headline check: Nona's whole reconfiguration premise rests
   on the verifier's legality judgments, so a single unordered conflicting
   pair under a passed plan means the static alias classification lied.
   S702 catches the same lie even when the backend's schedule happened to
   order the accesses.  G711 measures the opposite failure — conservatism
   — and is the input for future legal-if-monitored speculative plans. *)

open Parcae_ir
open Parcae_analysis
open Parcae_pdg
module Engine = Parcae_platform.Engine
module Machine = Parcae_sim.Machine
module Executor = Parcae_runtime.Executor
module Region = Parcae_runtime.Region
module Hb = Parcae_obs.Hb
module Json = Parcae_obs.Json

type backend = Sim_backend | Native_backend of int option

type scheme_run = {
  sr_scheme : string;
  sr_dop : int;
  sr_accesses : int;
  sr_tasks : int;
  sr_races : Hb.pair list;
  sr_collisions : Hb.pair list;
  sr_iterations : int;
  sr_semantics_ok : bool;
}

type report = {
  loop : Loop.t;
  compiled : Compiler.compiled;
  backend : string;
  schemes : string list;
  runs : scheme_run list;
  diags : Diag.t list;
}

(* ------------------------------------------------------------------ *)
(* Fault injection.                                                    *)
(* ------------------------------------------------------------------ *)

let inject_unsound (c : Compiler.compiled) =
  let pdg = c.Compiler.pdg in
  let deps =
    List.filter
      (fun (d : Dep.t) -> not (d.Dep.kind = Dep.Mem_data && d.Dep.carried))
      pdg.Pdg.deps
  in
  let pdg = { pdg with Pdg.deps } in
  (* Rebuild the plans the lying analysis would produce.  The verifier
     re-derives legality from this same doctored PDG, so the racy DOANY
     passes — exactly the failure mode the sanitizer exists to catch. *)
  { c with Compiler.pdg; doany = Doany.make_plan pdg; pipeline = None; doacross = None }

(* ------------------------------------------------------------------ *)
(* Source attribution.                                                 *)
(* ------------------------------------------------------------------ *)

let loc_str (pdg : Pdg.t) id =
  match Loop.loc_of pdg.Pdg.loop id with
  | Some l -> Printf.sprintf " (%s)" (Loop.loc_to_string l)
  | None -> ""

let node_str (pdg : Pdg.t) id = Loop.node_to_string pdg.Pdg.nodes.(id) ^ loc_str pdg id

let access_of (pdg : Pdg.t) id =
  match pdg.Pdg.nodes.(id) with
  | Loop.Instr_node (Instr.Load { arr; idx; _ }) -> Some (arr, idx)
  | Loop.Instr_node (Instr.Store { arr; idx; _ }) -> Some (arr, idx)
  | _ -> None

(* The static alias verdict for a pair of access nodes. *)
let static_verdict (pdg : Pdg.t) a b =
  match (access_of pdg a, access_of pdg b) with
  | Some (_, i1), Some (_, i2) ->
      let loop = pdg.Pdg.loop in
      let classify = Alias.classify_index ~facts:pdg.Pdg.facts loop pdg.Pdg.inductions in
      let trip = match loop.Loop.trip with Loop.Count n -> Some n | Loop.While -> None in
      Some (Alias.conflict ?trip pdg.Pdg.inductions (classify i1) (classify i2))
  | _ -> None

let verdict_str = function
  | Some Alias.No_conflict -> "no-conflict"
  | Some Alias.Same_iteration -> "same-iteration"
  | Some (Alias.Cross_iteration k) -> Printf.sprintf "cross-iteration(%d)" k
  | Some Alias.May_conflict -> "may-conflict"
  | None -> "not-an-access"

(* ------------------------------------------------------------------ *)
(* One scheme under the tracker.                                       *)
(* ------------------------------------------------------------------ *)

let run_one ~backend ~dop compiled scheme_name =
  let eng =
    match backend with
    | Sim_backend -> Engine.create Machine.xeon_x7460
    | Native_backend pool -> Engine.create_native ?pool ()
  in
  let dop = if scheme_name = "SEQ" then 1 else dop in
  let tr = Hb.create () in
  let h, semantics_ok =
    Hb.with_tracker tr (fun () ->
        let h = Compiler.launch ~budget:(max 8 dop) eng compiled in
        let cfg = Compiler.config_for h ~dop scheme_name in
        let _driver =
          Engine.spawn eng ~name:"sanitize-driver" (fun () ->
              Executor.reconfigure h.Compiler.region cfg;
              Executor.await h.Compiler.region)
        in
        ignore (Engine.run eng : int);
        Engine.shutdown eng;
        (h, Compiler.preserves_semantics h))
  in
  assert (Region.is_done h.Compiler.region);
  let pairs = Hb.pairs tr in
  {
    sr_scheme = scheme_name;
    sr_dop = dop;
    sr_accesses = Hb.access_count tr;
    sr_tasks = Hb.task_count tr;
    sr_races = List.filter (fun (p : Hb.pair) -> p.Hb.p_raced > 0) pairs;
    sr_collisions = pairs;
    sr_iterations = h.Compiler.rs.Flex.next_iter;
    sr_semantics_ok = semantics_ok;
  }

(* ------------------------------------------------------------------ *)
(* The differential.                                                   *)
(* ------------------------------------------------------------------ *)

let pair_key (p : Hb.pair) = (min p.Hb.p_src p.Hb.p_dst, max p.Hb.p_src p.Hb.p_dst)

let diagnose (compiled : Compiler.compiled) runs =
  let pdg = compiled.Compiler.pdg in
  (* Unordered node pairs the PDG connects with a memory dependence. *)
  let mem_pairs = Hashtbl.create 16 in
  List.iter
    (fun (d : Dep.t) ->
      if d.Dep.kind = Dep.Mem_data then
        Hashtbl.replace mem_pairs (min d.Dep.src d.Dep.dst, max d.Dep.src d.Dep.dst) ())
    pdg.Pdg.deps;
  let has_mem_dep a b = Hashtbl.mem mem_pairs (min a b, max a b) in
  let verified scheme =
    Diag.count_errors (Verify.pdg_integrity pdg @ Verify.plan pdg scheme) = 0
  in
  let scheme_of_name name =
    List.find_opt
      (fun s -> Verify.scheme_name s = name)
      (Compiler.schemes compiled)
  in
  let seen = Hashtbl.create 16 in
  let once key d = if Hashtbl.mem seen key then None else (Hashtbl.replace seen key (); Some d) in
  (* S701: raced pair under a verifier-passed plan. *)
  let s701 =
    List.concat_map
      (fun r ->
        let passed =
          match scheme_of_name r.sr_scheme with Some s -> verified s | None -> false
        in
        if not passed then []
        else
          List.filter_map
            (fun (p : Hb.pair) ->
              once
                ("S701", r.sr_scheme, p.Hb.p_arr, pair_key p)
                (Diag.error
                   ?loc:(Loop.loc_of pdg.Pdg.loop p.Hb.p_src)
                   "S701"
                   "soundness violation: %s and %s race on %s[%d] under \
                    verifier-passed %s (tasks %d/%d, %d of %d occurrence(s) \
                    unordered)"
                   (node_str pdg p.Hb.p_src) (node_str pdg p.Hb.p_dst) p.Hb.p_arr
                   p.Hb.p_idx r.sr_scheme p.Hb.p_task_src p.Hb.p_task_dst p.Hb.p_raced
                   p.Hb.p_count))
            r.sr_races)
      runs
  in
  (* S702: observed collision the PDG claims cannot exist. *)
  let s702 =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun (p : Hb.pair) ->
            if has_mem_dep p.Hb.p_src p.Hb.p_dst then None
            else
              once
                ("S702", "", p.Hb.p_arr, pair_key p)
                (Diag.error
                   ?loc:(Loop.loc_of pdg.Pdg.loop p.Hb.p_src)
                   "S702"
                   "soundness violation: %s and %s touched %s[%d] in the same \
                    run (%d time(s) under %s) but the PDG records no memory \
                    dependence between them (static verdict: %s)"
                   (node_str pdg p.Hb.p_src) (node_str pdg p.Hb.p_dst) p.Hb.p_arr
                   p.Hb.p_idx p.Hb.p_count r.sr_scheme
                   (verdict_str (static_verdict pdg p.Hb.p_src p.Hb.p_dst))))
          r.sr_collisions)
      runs
  in
  (* G711: a May-dependence no sanitized run ever saw materialize. *)
  let observed = Hashtbl.create 16 in
  List.iter
    (fun r -> List.iter (fun p -> Hashtbl.replace observed (pair_key p) ()) r.sr_collisions)
    runs;
  let g711 =
    List.filter_map
      (fun (d : Dep.t) ->
        if d.Dep.kind <> Dep.Mem_data then None
        else if static_verdict pdg d.Dep.src d.Dep.dst <> Some Alias.May_conflict then None
        else if Hashtbl.mem observed (min d.Dep.src d.Dep.dst, max d.Dep.src d.Dep.dst)
        then None
        else
          once
            ("G711", "", "", (min d.Dep.src d.Dep.dst, max d.Dep.src d.Dep.dst))
            (Diag.info
               ?loc:(Loop.loc_of pdg.Pdg.loop d.Dep.dst)
               "G711"
               "precision gap: may-dependence between %s and %s never \
                materialized in any sanitized run — a candidate for a \
                legal-if-monitored speculative plan"
               (node_str pdg d.Dep.src) (node_str pdg d.Dep.dst)))
      pdg.Pdg.deps
  in
  Diag.sort (s701 @ s702 @ g711)

(* ------------------------------------------------------------------ *)
(* Entry points.                                                       *)
(* ------------------------------------------------------------------ *)

let backend_name = function Sim_backend -> "sim" | Native_backend _ -> "native"

(* Default DoP 3: deliberately coprime to the power-of-two strides common
   in kernels, so colliding iterations land on different lanes under the
   deterministic simulator's round-robin claims (64 apart with 4 lanes
   means the same lane touches both cells and the collision is trivially
   ordered). *)
let run_compiled ?(backend = Sim_backend) ?(dop = 3) (compiled : Compiler.compiled) =
  let names = Compiler.scheme_names compiled in
  let runs = List.map (run_one ~backend ~dop compiled) names in
  {
    loop = compiled.Compiler.loop;
    compiled;
    backend = backend_name backend;
    schemes = names;
    runs;
    diags = diagnose compiled runs;
  }

let run ?backend ?dop ?(inject = false) (loop : Loop.t) =
  let c = Compiler.compile ~verify:(not inject) loop in
  let c = if inject then inject_unsound c else c in
  run_compiled ?backend ?dop c

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)
(* ------------------------------------------------------------------ *)

let render r =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "%s: sanitized schemes (%s backend): %s\n" r.loop.Loop.name r.backend
       (String.concat ", " r.schemes));
  List.iter
    (fun sr ->
      Buffer.add_string b
        (Printf.sprintf
           "  %-9s dop=%-2d iters=%-6d accesses=%-8d tasks=%-3d collisions=%-4d \
            races=%-4d semantics=%s\n"
           sr.sr_scheme sr.sr_dop sr.sr_iterations sr.sr_accesses sr.sr_tasks
           (List.length sr.sr_collisions)
           (List.length sr.sr_races)
           (if sr.sr_semantics_ok then "ok" else "VIOLATED")))
    r.runs;
  Buffer.add_string b (Diag.render r.diags);
  Buffer.contents b

let to_json r =
  let run_json sr =
    Json.Obj
      [
        ("scheme", Json.Str sr.sr_scheme);
        ("dop", Json.Int sr.sr_dop);
        ("iterations", Json.Int sr.sr_iterations);
        ("accesses", Json.Int sr.sr_accesses);
        ("tasks", Json.Int sr.sr_tasks);
        ("collision_pairs", Json.Int (List.length sr.sr_collisions));
        ("race_pairs", Json.Int (List.length sr.sr_races));
        ("semantics_ok", Json.Bool sr.sr_semantics_ok);
      ]
  in
  Json.Obj
    [
      ("loop", Json.Str r.loop.Loop.name);
      ("backend", Json.Str r.backend);
      ("schemes", Json.List (List.map (fun s -> Json.Str s) r.schemes));
      ("runs", Json.List (List.map run_json r.runs));
      ("errors", Json.Int (Diag.count_errors r.diags));
      ("diagnostics", Json.List (List.map Diag.to_json r.diags));
    ]
