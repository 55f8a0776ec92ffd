(* The `check` diagnostics pass: everything Nona can tell a programmer
   about one loop without running it.

   Combines three sources into one coded, located report:
     - the legality verifier, run over every scheme the compiler emitted
       (clean on a healthy compiler; anything here is a compiler bug);
     - N4xx explanations of why DOANY does not apply, phrased in source
       terms (which access, which array, what reuse distance);
     - the W6xx lints.

   Exit-code contract for the CLI: errors mean the loop (or compiler) is
   broken; warnings and infos are advice. *)

open Parcae_ir
open Parcae_analysis
open Parcae_pdg
module Json = Parcae_obs.Json

type report = {
  loop : Loop.t;
  compiled : Compiler.compiled;
  schemes : string list;
  diags : Diag.t list;
}

let loc_str (pdg : Pdg.t) id =
  match Loop.loc_of pdg.Pdg.loop id with
  | Some l -> Printf.sprintf " (%s)" (Loop.loc_to_string l)
  | None -> ""

let node_str (pdg : Pdg.t) id =
  Loop.node_to_string pdg.Pdg.nodes.(id) ^ loc_str pdg id

(* The array access of a node, if it is one. *)
let access_of (pdg : Pdg.t) id =
  match pdg.Pdg.nodes.(id) with
  | Loop.Instr_node (Instr.Load { arr; idx; _ }) -> Some (arr, idx)
  | Loop.Instr_node (Instr.Store { arr; idx; _ }) -> Some (arr, idx)
  | _ -> None

(* Re-run the index analysis on a memory dependence to recover the reuse
   distance for the explanation. *)
let mem_detail (pdg : Pdg.t) (d : Dep.t) =
  match (access_of pdg d.Dep.src, access_of pdg d.Dep.dst) with
  | Some (arr, i1), Some (_, i2) -> (
      let loop = pdg.Pdg.loop in
      let classify = Alias.classify_index ~facts:pdg.Pdg.facts loop pdg.Pdg.inductions in
      let trip = match loop.Loop.trip with Loop.Count n -> Some n | Loop.While -> None in
      match Alias.conflict ?trip pdg.Pdg.inductions (classify i1) (classify i2) with
      | Alias.Cross_iteration k ->
          Some (arr, Printf.sprintf "%d iteration(s) later" (abs k))
      | _ -> Some (arr, "in some later iteration"))
  | _ -> None

(* Explain one DOANY inhibitor in source terms. *)
let explain_dep (pdg : Pdg.t) (d : Dep.t) =
  let loc = Loop.loc_of pdg.Pdg.loop d.Dep.dst in
  match d.Dep.kind with
  | Dep.Mem_data -> (
      match mem_detail pdg d with
      | Some (arr, dist) ->
          Diag.info ?loc "N401"
            "carried memory dependence on %s[]: %s writes a cell that %s \
             touches %s"
            arr (node_str pdg d.Dep.src) (node_str pdg d.Dep.dst) dist
      | None ->
          Diag.info ?loc "N401" "carried memory dependence from %s to %s"
            (node_str pdg d.Dep.src) (node_str pdg d.Dep.dst))
  | Dep.Call_order ->
      let fn =
        match pdg.Pdg.nodes.(d.Dep.src) with
        | Loop.Instr_node (Instr.Call { fn; _ }) -> fn
        | _ -> "?"
      in
      Diag.info ?loc "N402"
        "calls to '%s'%s must stay in iteration order; mark them commutative \
         if any order is acceptable"
        fn (loc_str pdg d.Dep.src)
  | Dep.Control ->
      let loc = Loop.loc_of pdg.Pdg.loop d.Dep.src in
      Diag.info ?loc "N403"
        "%s makes every later iteration control-dependent on it; only \
         pipeline schemes can tolerate a data-dependent exit"
        (node_str pdg d.Dep.src)
  | Dep.Reg_data ->
      let what =
        if d.Dep.dst < pdg.Pdg.nphis then
          match List.nth_opt pdg.Pdg.loop.Loop.phis d.Dep.dst with
          | Some p -> Printf.sprintf "phi r%d" p.Instr.pdst
          | None -> "a phi"
        else "a register"
      in
      Diag.info ?loc "N404"
        "value recurrence through %s: each iteration consumes the previous \
         iteration's value from %s"
        what (node_str pdg d.Dep.src)

(* Inhibitor edges come in carried pairs (both directions) plus intra
   copies; collapse to one explanation per unordered endpoint pair and
   kind.  A break is control-dependence source for every node, so those
   collapse further to one explanation per break. *)
let dedup_inhibitors deps =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun (d : Dep.t) ->
      let key =
        match d.Dep.kind with
        | Dep.Control -> (d.Dep.src, -1, d.Dep.kind)
        | _ -> (min d.Dep.src d.Dep.dst, max d.Dep.src d.Dep.dst, d.Dep.kind)
      in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.replace seen key ();
        true
      end)
    deps

let run (loop : Loop.t) =
  let c = Compiler.compile ~verify:false loop in
  let pdg = c.Compiler.pdg in
  let verifier =
    Verify.pdg_integrity pdg
    @ List.concat_map (Verify.plan pdg) (Compiler.schemes c)
  in
  let inhibitors =
    if c.Compiler.doany = None then
      List.map (explain_dep pdg) (dedup_inhibitors (Doany.inhibitors pdg))
    else []
  in
  let lints = Lint.run ~summary:pdg.Pdg.facts loop in
  {
    loop;
    compiled = c;
    schemes = Compiler.scheme_names c;
    diags = Diag.sort (verifier @ lints @ inhibitors);
  }

let render r =
  Printf.sprintf "%s: applicable schemes: %s\n" r.loop.Loop.name
    (String.concat ", " r.schemes)
  ^ Diag.render r.diags

let to_json r =
  Json.Obj
    [
      ("loop", Json.Str r.loop.Loop.name);
      ("schemes", Json.List (List.map (fun s -> Json.Str s) r.schemes));
      ("diagnostics", Json.List (List.map Diag.to_json r.diags));
    ]
