(* Folded-stack profiles derived from the metrics registry.

   Decima attributes compute time per (region, scheme, task) into the
   [parcae_task_compute_ns_total] counter family; folding those series into
   "frame;frame;frame value" lines yields the collapsed-stack format that
   flamegraph.pl and speedscope consume directly:

     ferret;ferret-pipe;rank 123456789

   The stack frames are label values in [frames] order; series missing a
   frame label or with a zero value are skipped.  Lines are sorted, so a
   profile is byte-deterministic whenever the underlying counters are. *)

let default_family = "parcae_task_compute_ns_total"
let frames = [ "region"; "scheme"; "task" ]

(* flamegraph.pl splits on the last space; ';' and ' ' inside a frame would
   corrupt the stack, so map them away. *)
let sanitize_frame s =
  String.map (fun c -> match c with ';' | ' ' | '\n' -> '_' | c -> c) s

let folded reg =
  let fams = Metrics.snapshot reg in
  let lines =
    List.concat_map
      (fun (f : Metrics.fam_snapshot) ->
        if f.Metrics.name <> default_family then []
        else
          List.filter_map
            (fun { Metrics.labels; value } ->
              let frame_values =
                List.map (fun k -> List.assoc_opt k labels) frames
              in
              if List.exists Option.is_none frame_values then None
              else
                let stack =
                  String.concat ";"
                    (List.map (fun v -> sanitize_frame (Option.get v)) frame_values)
                in
                match value with
                | Metrics.Counter_v n when n > 0 -> Some (Printf.sprintf "%s %d" stack n)
                | Metrics.Gauge_v g when g > 0.0 ->
                    Some (Printf.sprintf "%s %d" stack (int_of_float g))
                | _ -> None)
            f.Metrics.samples)
      fams
  in
  match List.sort compare lines with
  | [] -> ""
  | sorted -> String.concat "\n" sorted ^ "\n"

(* Parse a folded profile back into (frames, value) rows — used by tests
   and by anything that wants to aggregate profiles. *)
let parse s =
  String.split_on_char '\n' s
  |> List.filter (fun line -> String.trim line <> "")
  |> List.map (fun line ->
         match String.rindex_opt line ' ' with
         | None -> invalid_arg ("Profile.parse: no value in line " ^ line)
         | Some i ->
             let stack = String.sub line 0 i in
             let v = String.sub line (i + 1) (String.length line - i - 1) in
             (String.split_on_char ';' stack, int_of_string v))
