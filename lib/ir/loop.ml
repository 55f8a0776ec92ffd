(* A compilable parallel region: one loop with phi-carried state, a
   straight-line body, and either a counted or a data-dependent trip. *)

type trip =
  | Count of int  (* execute exactly n iterations *)
  | While  (* run until some Break_if in the body fires *)

(* A source position carried from the .loop frontend; regions built
   programmatically (Builder/Kernels) have none. *)
type loc = { loc_file : string; loc_line : int }

let loc_to_string l = Printf.sprintf "%s:%d" l.loc_file l.loc_line

type t = {
  name : string;
  phis : Instr.phi list;
  body : Instr.t list;
  trip : trip;
  arrays : (string * int array) list;
      (* named arrays with their initial contents; a run works on
         [working_arrays], and their final contents are part of the
         observable result *)
  live_out : Instr.reg list;
      (* registers whose final (last-iteration) values the surrounding code
         consumes, e.g. reduction results; must be phi destinations *)
  locs : loc option array;
      (* per-node source locations, indexed like [nodes] (phis first);
         [||] when the region was not parsed from source *)
}

let create ?(phis = []) ?(arrays = []) ?(live_out = []) ?(locs = [||]) ~name ~trip body =
  { name; phis; body; trip; arrays; live_out; locs }

(* The arrays one run works on: a private copy of each array the body
   stores to, and the loop's own array for each it only loads, so a run
   never changes [t.arrays] and copies no read-only input. *)
let working_arrays t =
  let stored name =
    List.exists (function Instr.Store { arr; _ } -> arr = name | _ -> false) t.body
  in
  List.map (fun ((name, a) as entry) -> if stored name then (name, Array.copy a) else entry) t.arrays

(* Source location of node [id], if the frontend recorded one. *)
let loc_of t id = if id >= 0 && id < Array.length t.locs then t.locs.(id) else None

(* All instruction-level nodes of the region, phis first.  Node ids index
   into this array everywhere downstream (PDG, SCCs, task partitions). *)
type node = Phi_node of Instr.phi | Instr_node of Instr.t

let nodes t =
  Array.of_list
    (List.map (fun p -> Phi_node p) t.phis @ List.map (fun i -> Instr_node i) t.body)

let node_to_string = function
  | Phi_node { Instr.pdst; init; carry } ->
      Printf.sprintf "r%d = phi [%s, r%d]" pdst (Instr.operand_to_string init) carry
  | Instr_node i -> Instr.to_string i

let node_defs = function
  | Phi_node { Instr.pdst; _ } -> Some pdst
  | Instr_node i -> Instr.defs i

let node_uses = function
  | Phi_node _ -> []  (* the carry is a loop-carried use, handled separately *)
  | Instr_node i -> Instr.uses i

(* Validation: single assignment per register, all uses defined, carries
   defined, live-outs are phi destinations. *)
let validate t =
  let defined = Hashtbl.create 16 in
  let define ctx r =
    if Hashtbl.mem defined r then
      invalid_arg (Printf.sprintf "%s: r%d defined twice (%s)" t.name r ctx);
    Hashtbl.replace defined r ()
  in
  List.iter (fun (p : Instr.phi) -> define "phi" p.Instr.pdst) t.phis;
  List.iter
    (fun i -> match Instr.defs i with Some r -> define (Instr.to_string i) r | None -> ())
    t.body;
  let check_use ctx r =
    if not (Hashtbl.mem defined r) then
      invalid_arg (Printf.sprintf "%s: r%d used but never defined (%s)" t.name r ctx)
  in
  List.iter (fun i -> List.iter (check_use (Instr.to_string i)) (Instr.uses i)) t.body;
  List.iter (fun (p : Instr.phi) -> check_use "phi carry" p.Instr.carry) t.phis;
  List.iter
    (fun r ->
      if not (List.exists (fun (p : Instr.phi) -> p.Instr.pdst = r) t.phis) then
        invalid_arg (Printf.sprintf "%s: live-out r%d is not a phi destination" t.name r))
    t.live_out;
  (match t.trip with
  | Count n when n < 0 -> invalid_arg (t.name ^ ": negative trip count")
  | Count _ -> ()
  | While ->
      if not (List.exists (function Instr.Break_if _ -> true | _ -> false) t.body) then
        invalid_arg (t.name ^ ": While loop without Break_if"));
  (* Arrays referenced by loads/stores must be declared. *)
  let declared a = List.mem_assoc a t.arrays in
  List.iter
    (fun i ->
      match i with
      | Instr.Load { arr; _ } | Instr.Store { arr; _ } ->
          if not (declared arr) then invalid_arg (t.name ^ ": undeclared array " ^ arr)
      | _ -> ())
    t.body

let pp fmt t =
  Format.fprintf fmt "loop %s:@." t.name;
  List.iter
    (fun (p : Instr.phi) ->
      Format.fprintf fmt "  r%d = phi [%s, r%d]@." p.Instr.pdst
        (Instr.operand_to_string p.Instr.init)
        p.Instr.carry)
    t.phis;
  List.iter (fun i -> Format.fprintf fmt "  %s@." (Instr.to_string i)) t.body;
  match t.trip with
  | Count n -> Format.fprintf fmt "  (count %d)@." n
  | While -> Format.fprintf fmt "  (while)@."
