(* Parallelism configurations.

   A configuration C = (S, D) assigns each loop a parallelization scheme and
   a degree of parallelism (Chapter 2).  Because the Parcae API lets a task
   carry nested ParDescriptors (Section 5.1.1), a configuration is a tree
   that mirrors the descriptor tree: each task gets a DoP, and a task with
   nested parallelism either runs its body inline (sequential inner loop) or
   delegates to one of its nested descriptors with a configuration of its
   own. *)

type task_config = {
  dop : int;  (** number of worker threads executing the task *)
  nested : t option;
      (** [None]: any nested parallelism runs inline, sequentially.
          [Some cfg]: each instance launches the chosen nested descriptor. *)
}

and t = {
  choice : int;  (** index of the chosen ParDescriptor among alternatives *)
  tasks : task_config array;  (** one entry per task of the chosen descriptor *)
}

(* A sequential task configuration. *)
let seq_task = { dop = 1; nested = None }

let task ?nested dop = { dop; nested }

let make ?(choice = 0) tasks = { choice; tasks = Array.of_list tasks }

(* Number of hardware threads the configuration keeps busy.  A task whose
   instances each launch a nested team of [k] threads keeps [dop * k]
   threads busy: the outer worker blocks in [Task::wait] while its inner
   team runs, so it is not counted separately (Section 2.3's k x l). *)
let rec threads cfg = Array.fold_left (fun acc tc -> acc + task_threads tc) 0 cfg.tasks

and task_threads tc =
  match tc.nested with None -> tc.dop | Some inner -> tc.dop * threads inner

(* Degree-of-parallelism vector of the top-level tasks. *)
let dops cfg = Array.map (fun tc -> tc.dop) cfg.tasks

(* Rebuild [cfg] with task [i]'s DoP replaced. *)
let with_dop cfg i dop =
  let tasks = Array.copy cfg.tasks in
  tasks.(i) <- { (tasks.(i)) with dop };
  { cfg with tasks }

let rec equal a b =
  a.choice = b.choice
  && Array.length a.tasks = Array.length b.tasks
  && Array.for_all2 task_equal a.tasks b.tasks

and task_equal a b =
  a.dop = b.dop
  &&
  match (a.nested, b.nested) with
  | None, None -> true
  | Some x, Some y -> equal x y
  | _ -> false

let rec pp fmt cfg =
  Format.fprintf fmt "#%d<" cfg.choice;
  Array.iteri
    (fun i tc ->
      if i > 0 then Format.fprintf fmt ", ";
      pp_task fmt tc)
    cfg.tasks;
  Format.fprintf fmt ">"

and pp_task fmt tc =
  match tc.nested with
  | None -> Format.fprintf fmt "%d" tc.dop
  | Some inner -> Format.fprintf fmt "%d*%a" tc.dop pp inner

let to_string cfg = Format.asprintf "%a" pp cfg

(* Basic well-formedness: positive DoPs, nested configurations well-formed. *)
let rec validate cfg =
  Array.iter
    (fun tc ->
      if tc.dop < 1 then invalid_arg "Config.validate: dop must be >= 1";
      Option.iter validate tc.nested)
    cfg.tasks
