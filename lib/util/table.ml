(* Plain-text table rendering for the benchmark harness.  Every table and
   figure in EXPERIMENTS.md is printed through this module so the output has
   one consistent, diffable format. *)

type align = Left | Right

type t = {
  title : string;
  header : string list;
  mutable rows : string list list;  (* stored reversed *)
}

let create ~title ~header = { title; header; rows = [] }

let add_row t row = t.rows <- row :: t.rows

let render t =
  let rows = List.rev t.rows in
  let all = t.header :: rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    all;
  let buf = Buffer.create 1024 in
  let pad align width s =
    let n = width - String.length s in
    let fill = String.make (max 0 n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s
  in
  let sep =
    "+" ^ String.concat "+" (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths)) ^ "+"
  in
  let render_row row =
    let cells =
      List.mapi
        (fun i cell ->
          (* Right-align cells that parse as numbers, so columns of figures
             line up; left-align labels. *)
          let align =
            match float_of_string_opt (String.trim cell) with
            | Some _ -> Right
            | None -> Left
          in
          " " ^ pad align widths.(i) cell ^ " ")
        row
    in
    let missing = ncols - List.length row in
    let cells = cells @ List.init missing (fun j -> " " ^ String.make widths.(List.length row + j) ' ' ^ " ") in
    "|" ^ String.concat "|" cells ^ "|"
  in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  Buffer.add_string buf (sep ^ "\n");
  Buffer.add_string buf (render_row t.header ^ "\n");
  Buffer.add_string buf (sep ^ "\n");
  List.iter (fun r -> Buffer.add_string buf (render_row r ^ "\n")) rows;
  Buffer.add_string buf (sep ^ "\n");
  Buffer.contents buf

let print t = print_string (render t)
