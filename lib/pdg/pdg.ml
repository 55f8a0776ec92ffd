(* Program Dependence Graph construction (Section 4.1).

   Nodes are the loop's phis and body instructions (numbered phis first,
   matching [Loop.nodes]); edges are register data dependencies (computed
   exactly from def-use chains), memory data dependencies (from the index
   analysis in [Alias]), control dependencies (from [Break_if]), and call
   ordering dependencies (relaxed when the programmer marked the calls
   commutative).  Induction and reduction phi cycles are recognized and
   their carried edges marked relaxable. *)

open Parcae_ir
open Parcae_analysis

type reduction = {
  red_phi : Instr.reg;  (* the accumulator phi *)
  red_node : int;  (* node id of the phi *)
  red_combine : int;  (* node id of the combining binop *)
  red_op : Instr.binop;
  red_init : int;  (* initial accumulator value *)
}

type t = {
  loop : Loop.t;
  nodes : Loop.node array;
  nphis : int;
  deps : Dep.t list;
  inductions : Alias.induction_info list;
  reductions : reduction list;
  facts : Dataflow.summary;  (* register value facts used by the alias queries *)
}

let associative_commutative = function
  | Instr.Add | Instr.Mul | Instr.Min | Instr.Max | Instr.Xor | Instr.And | Instr.Or -> true
  | _ -> false

(* Detect reduction phis: acc = phi [c, acc `op` x] where op is
   associative-commutative and acc's only consumer is the combining op
   (so no instruction observes intermediate accumulator values). *)
let detect_reductions (loop : Loop.t) (inds : Alias.induction_info list) =
  let nphis = List.length loop.Loop.phis in
  let body = Array.of_list loop.Loop.body in
  loop.Loop.phis
  |> List.mapi (fun pi p -> (pi, p))
  |> List.filter_map (fun (pi, (p : Instr.phi)) ->
         if List.exists (fun ii -> ii.Alias.ind_phi = p.Instr.pdst) inds then None
         else begin
           let init =
             match p.Instr.init with Instr.Const c -> Some c | Instr.Reg _ -> None
           in
           let combine_idx =
             let found = ref None in
             Array.iteri
               (fun bi instr ->
                 match Instr.defs instr with
                 | Some d when d = p.Instr.carry -> found := Some bi
                 | _ -> ())
               body;
             !found
           in
           match (init, combine_idx) with
           | Some red_init, Some bi -> (
               match body.(bi) with
               | Instr.Binop { op; a; b; _ }
                 when associative_commutative op
                      && (a = Instr.Reg p.Instr.pdst || b = Instr.Reg p.Instr.pdst) ->
                   (* acc must not be read anywhere else. *)
                   let other_uses =
                     Array.exists
                       (fun instr ->
                         instr != body.(bi) && List.mem p.Instr.pdst (Instr.uses instr))
                       body
                   in
                   if other_uses then None
                   else
                     Some
                       {
                         red_phi = p.Instr.pdst;
                         red_node = pi;
                         red_combine = nphis + bi;
                         red_op = op;
                         red_init;
                       }
               | _ -> None)
           | _ -> None
         end)

let build (loop : Loop.t) =
  Loop.validate loop;
  let nodes = Loop.nodes loop in
  let nphis = List.length loop.Loop.phis in
  let body = Array.of_list loop.Loop.body in
  let inds = Alias.inductions loop in
  let reds = detect_reductions loop inds in
  let facts = Dataflow.analyze loop in
  let deps = ref [] in
  let add src dst kind carried relax =
    if src <> dst || carried then
      deps := { Dep.src; dst; kind; carried; relax } :: !deps
  in
  (* Map register -> defining node id. *)
  let def_node = Hashtbl.create 32 in
  Array.iteri
    (fun id n -> match Loop.node_defs n with Some r -> Hashtbl.replace def_node r id | None -> ())
    nodes;
  let is_induction_phi r = List.exists (fun ii -> ii.Alias.ind_phi = r) inds in
  let reduction_of_phi r = List.find_opt (fun red -> red.red_phi = r) reds in

  (* 1. Intra-iteration register dependencies (def-use). *)
  Array.iteri
    (fun id n ->
      List.iter
        (fun r ->
          match Hashtbl.find_opt def_node r with
          | Some d -> add d id Dep.Reg_data false Dep.Hard
          | None -> ())
        (Loop.node_uses n))
    nodes;

  (* 2. Loop-carried register dependencies through phis, classified. *)
  List.iteri
    (fun pi (p : Instr.phi) ->
      match Hashtbl.find_opt def_node p.Instr.carry with
      | None -> ()
      | Some carry_def ->
          let relax =
            if is_induction_phi p.Instr.pdst then Dep.Induction
            else if reduction_of_phi p.Instr.pdst <> None then Dep.Reduction
            else Dep.Hard
          in
          add carry_def pi Dep.Reg_data true relax)
    loop.Loop.phis;

  (* 3. Memory dependencies. *)
  let accesses =
    Array.to_list body
    |> List.mapi (fun bi instr -> (nphis + bi, instr))
    |> List.filter_map (fun (id, instr) ->
           match instr with
           | Instr.Load { arr; idx; _ } -> Some (id, arr, idx, false)
           | Instr.Store { arr; idx; _ } -> Some (id, arr, idx, true)
           | _ -> None)
  in
  let idx_class = Alias.classify_index ~facts loop inds in
  let trip = match loop.Loop.trip with Loop.Count n -> Some n | Loop.While -> None in
  let step_of ind =
    match List.find_opt (fun ii -> ii.Alias.ind_phi = ind) inds with
    | Some ii -> ii.Alias.ind_step
    | None -> 1
  in
  List.iter
    (fun (id1, arr1, idx1, st1) ->
      List.iter
        (fun (id2, arr2, idx2, st2) ->
          if arr1 = arr2 && (st1 || st2) && id1 <= id2 then begin
            let c1 = idx_class idx1 and c2 = idx_class idx2 in
            match Alias.conflict ?trip inds c1 c2 with
            | Alias.No_conflict -> ()
            | Alias.Same_iteration -> if id1 < id2 then add id1 id2 Dep.Mem_data false Dep.Hard
            | Alias.Cross_iteration _ -> (
                (* Direction: the access whose offset maps an element to the
                   earlier iteration is the source of the carried dep. *)
                match (c1, c2) with
                | Alias.Affine { ind; scale; offset = o1; _ }, Alias.Affine { offset = o2; _ } ->
                    (* iteration touching element e: (e - o) / (scale *
                       step); larger offset means earlier iteration when
                       the per-iteration advance is positive. *)
                    let advance = scale * step_of ind in
                    let first_is_1 = (o1 - o2) * (if advance > 0 then 1 else -1) > 0 in
                    if first_is_1 then add id1 id2 Dep.Mem_data true Dep.Hard
                    else add id2 id1 Dep.Mem_data true Dep.Hard
                | _ ->
                    add id1 id2 Dep.Mem_data true Dep.Hard;
                    add id2 id1 Dep.Mem_data true Dep.Hard)
            | Alias.May_conflict ->
                if id1 < id2 then add id1 id2 Dep.Mem_data false Dep.Hard;
                add id1 id2 Dep.Mem_data true Dep.Hard;
                add id2 id1 Dep.Mem_data true Dep.Hard
          end)
        accesses)
    accesses;

  (* 4. Control dependencies from Break_if: later instructions in the same
     iteration, and everything in subsequent iterations. *)
  Array.iteri
    (fun bi instr ->
      match instr with
      | Instr.Break_if _ ->
          let bid = nphis + bi in
          Array.iteri
            (fun id _ ->
              if id > bid then add bid id Dep.Control false Dep.Hard;
              add bid id Dep.Control true Dep.Hard)
            nodes
      | _ -> ())
    body;

  (* 5. Call ordering dependencies per target function. *)
  let calls =
    Array.to_list body
    |> List.mapi (fun bi instr -> (nphis + bi, instr))
    |> List.filter_map (fun (id, instr) ->
           match instr with
           | Instr.Call { fn; commutative; _ } -> Some (id, fn, commutative)
           | _ -> None)
  in
  List.iter
    (fun (id1, fn1, comm1) ->
      List.iter
        (fun (id2, fn2, comm2) ->
          if fn1 = fn2 && id1 <= id2 then begin
            let relax = if comm1 && comm2 then Dep.Commutative else Dep.Hard in
            if id1 < id2 then add id1 id2 Dep.Call_order false relax;
            add id1 id2 Dep.Call_order true relax;
            add id2 id1 Dep.Call_order true relax
          end)
        calls)
    calls;

  { loop; nodes; nphis; deps = !deps; inductions = inds; reductions = reds; facts }

(* All carried dependencies. *)
let carried t = List.filter (fun d -> d.Dep.carried) t.deps

(* The dependencies that inhibit DOANY: carried and not relaxable
   (Section 4.3.1).  Nona reports these to the programmer. *)
let doany_inhibitors t = List.filter (fun d -> d.Dep.carried && not (Dep.is_relaxable d)) t.deps

let node_count t = Array.length t.nodes

let pp fmt t =
  Format.fprintf fmt "PDG of %s (%d nodes):@." t.loop.Loop.name (Array.length t.nodes);
  Array.iteri (fun i n -> Format.fprintf fmt "  [%d] %s@." i (Loop.node_to_string n)) t.nodes;
  List.iter (fun d -> Format.fprintf fmt "  %s@." (Dep.to_string d)) (List.rev t.deps)
