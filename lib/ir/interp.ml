(* Reference sequential interpreter.

   Defines the ground-truth semantics of a loop: the state it leaves in its
   arrays, externals, and live-out registers, and the total compute cost in
   ns (the "sequential execution time" every speedup in Chapter 8 is
   measured against).  Parallel executions produced by Nona are checked for
   semantics preservation against this interpreter. *)

type result = {
  arrays : (string * int array) list;
  live_out : (Instr.reg * int) list;
  externals : Externals.observation;
  iterations : int;  (* completed iterations *)
  work_ns : int;  (* total instruction cost, sequential *)
}

let operand_value env = function Instr.Const c -> c | Instr.Reg r -> Hashtbl.find env r

(* Run [loop] against fresh externals.  [max_iters] bounds While loops
   against non-termination in tests.  When [profile] is given (an array
   sized to [Loop.nodes]), per-node execution cost is accumulated into it
   — the execution profile weights Nona's partitioner uses (Section
   4.3.2). *)
let run ?profile ?(max_iters = 10_000_000) (loop : Loop.t) =
  let ext = Externals.create () in
  let arrays = Loop.working_arrays loop in
  let env : (Instr.reg, int) Hashtbl.t = Hashtbl.create 64 in
  let phi_vals : (Instr.reg, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (p : Instr.phi) ->
      let v = match p.Instr.init with Instr.Const c -> c | Instr.Reg _ -> invalid_arg "phi init must be const" in
      Hashtbl.replace phi_vals p.Instr.pdst v)
    loop.Loop.phis;
  let nphis = List.length loop.Loop.phis in
  let note_cost pos c =
    match profile with
    | Some p -> p.(nphis + pos) <- p.(nphis + pos) +. float_of_int c
    | None -> ()
  in
  let work = ref 0 in
  let iterations = ref 0 in
  let exited = ref false in
  let trip_limit = match loop.Loop.trip with Loop.Count n -> n | Loop.While -> max_iters in
  while (not !exited) && !iterations < trip_limit do
    Hashtbl.reset env;
    List.iter
      (fun (p : Instr.phi) -> Hashtbl.replace env p.Instr.pdst (Hashtbl.find phi_vals p.Instr.pdst))
      loop.Loop.phis;
    let broke = ref false in
    let rec exec pos = function
      | [] -> ()
      | instr :: rest ->
          work := !work + Instr.base_cost instr;
          note_cost pos (Instr.base_cost instr);
          (match instr with
          | Instr.Binop { dst; op; a; b } ->
              Hashtbl.replace env dst (Instr.eval_binop op (operand_value env a) (operand_value env b))
          | Instr.Load { dst; arr; idx } ->
              let a = List.assoc arr arrays in
              let i = operand_value env idx in
              if i < 0 || i >= Array.length a then invalid_arg (loop.Loop.name ^ ": load out of bounds");
              Hashtbl.replace env dst a.(i)
          | Instr.Store { arr; idx; v } ->
              let a = List.assoc arr arrays in
              let i = operand_value env idx in
              if i < 0 || i >= Array.length a then invalid_arg (loop.Loop.name ^ ": store out of bounds");
              a.(i) <- operand_value env v
          | Instr.Work { amount } ->
              let c = max 0 (operand_value env amount) in
              work := !work + c;
              note_cost pos c
          | Instr.Call { dst; fn; arg; _ } ->
              let v = Externals.call ext fn (operand_value env arg) in
              Option.iter (fun d -> Hashtbl.replace env d v) dst
          | Instr.Break_if { cond } ->
              if operand_value env cond <> 0 then broke := true);
          if not !broke then exec (pos + 1) rest
    in
    exec 0 loop.Loop.body;
    if !broke then exited := true
    else begin
      incr iterations;
      List.iter
        (fun (p : Instr.phi) -> Hashtbl.replace phi_vals p.Instr.pdst (Hashtbl.find env p.Instr.carry))
        loop.Loop.phis
    end
  done;
  {
    arrays;
    live_out = List.map (fun r -> (r, Hashtbl.find phi_vals r)) loop.Loop.live_out;
    externals = Externals.observe ext;
    iterations = !iterations;
    work_ns = !work;
  }

(* Structural equality of observable results, for semantics-preservation
   property tests.  The ordered output stream is compared exactly; all
   other observables are order-insensitive by construction. *)
let equal_observable a b =
  a.live_out = b.live_out
  && a.externals = b.externals
  && a.iterations = b.iterations
  && List.for_all2 (fun (n1, a1) (n2, a2) -> n1 = n2 && a1 = a2) a.arrays b.arrays
