(* The paper's claims as predicates over the committed goldens.

   [bench/golden/NAME.txt] is the pinned stdout of a deterministic
   experiment; CI diffs each one byte for byte, so any change that moves a
   paper number must re-record it.  These tests say which of those moves
   would break a claim the reproduction rests on: who wins, what helps or
   hurts, which scheme the controller picks, and where the crossover
   falls.  They check no digit beyond that.

   The controller is deliberately not claimed to pick the best static
   scheme everywhere: on [url] it settles on DOANY although PS-DSWP is
   faster (Table 8.6). *)

let check_bool = Alcotest.(check bool)

(* ---- reading an ASCII table out of a golden ---- *)

type table = { header : string list; rows : string list list }

(* Under [dune runtest] the suite runs in _build/default/test; from the
   repository root the goldens are in bench/golden. *)
let golden_lines name =
  let dir = if Sys.file_exists "../bench/golden" then "../bench/golden" else "bench/golden" in
  In_channel.with_open_text (Filename.concat dir (name ^ ".txt")) In_channel.input_all
  |> String.split_on_char '\n'

(* "| a | b |" -> ["a"; "b"] *)
let cells line =
  match List.rev (String.split_on_char '|' line) with
  | _ :: rest -> List.tl (List.rev_map String.trim rest)
  | [] -> []

(* The table under the "== TITLE ..." line of golden [name]: its first
   "|" row is the header, the rest are data rows. *)
let table name title =
  let rec after_title = function
    | [] -> Alcotest.failf "%s: no table titled %S" name title
    | l :: rest -> if String.starts_with ~prefix:("== " ^ title) l then rest else after_title rest
  in
  let rec block acc = function
    | l :: rest when String.starts_with ~prefix:"+" l -> block acc rest
    | l :: rest when String.starts_with ~prefix:"|" l -> block (cells l :: acc) rest
    | _ -> List.rev acc
  in
  match block [] (after_title (golden_lines name)) with
  | header :: rows -> { header; rows }
  | [] -> Alcotest.failf "%s: table %S is empty" name title

let column t col =
  let rec find i = function
    | [] -> Alcotest.failf "no column %S in [%s]" col (String.concat "; " t.header)
    | c :: rest -> if c = col then i else find (i + 1) rest
  in
  find 0 t.header

(* The cell of the row whose first cell is [row]. *)
let cell t ~row ~col =
  match List.find_opt (fun r -> List.hd r = row) t.rows with
  | Some r -> List.nth r (column t col)
  | None -> Alcotest.failf "no row %S" row

(* "2.35x" -> 2.35 *)
let number s =
  let s = if String.ends_with ~suffix:"x" s then String.sub s 0 (String.length s - 1) else s in
  match float_of_string_opt s with Some v -> v | None -> Alcotest.failf "%S is not a number" s

(* ---- Table 8.5: throughput over the static even distribution ---- *)

let tab8_5 () = table "tab8_5" "Table 8.5"

(* TBF beats every other mechanism on both applications. *)
let test_tbf_best () =
  let t = tab8_5 () in
  List.iter
    (fun app ->
      let tbf = number (cell t ~row:"Parcae-TBF" ~col:app) in
      List.iter
        (fun r ->
          let m = List.hd r in
          if m <> "Parcae-TBF" then
            check_bool
              (Printf.sprintf "%s: TBF %.2fx beats %s" app tbf m)
              true
              (tbf > number (List.nth r (column t app))))
        t.rows)
    [ "ferret"; "dedup" ]

(* Oversubscribing and letting the OS schedule helps ferret and hurts
   dedup. *)
let test_os_helps_ferret_hurts_dedup () =
  let t = tab8_5 () in
  check_bool "Pthreads-OS helps ferret" true (number (cell t ~row:"Pthreads-OS" ~col:"ferret") > 1.0);
  check_bool "Pthreads-OS hurts dedup" true (number (cell t ~row:"Pthreads-OS" ~col:"dedup") < 1.0)

(* ---- Table 8.6: the scheme the controller settles on ---- *)

let test_controller_schemes () =
  let t = table "tab8_6" "Table 8.6" in
  let scheme k = cell t ~row:k ~col:"Parcae scheme" in
  check_bool "crc32 runs PS-DSWP" true (String.starts_with ~prefix:"PS-DSWP " (scheme "crc32"));
  check_bool "recurrence stays SEQ" true (String.starts_with ~prefix:"SEQ " (scheme "recurrence"))

(* ---- Figure 2.4: x264 under load ---- *)

let outer_only = "<(24,DOALL),(1,SEQ)>"
let inner_max = "<(3,DOALL),(8,PIPE)>"
let by_load t = List.map (fun r -> (number (List.hd r), r)) t.rows

(* Throughput: the inner-parallel configuration keeps up with the
   outer-only one at light load and falls clearly behind from 0.8 on. *)
let test_throughput_crossover () =
  let t = table "fig2_4" "Figure 2.4(b)" in
  List.iter
    (fun (load, r) ->
      let outer = number (List.nth r (column t outer_only))
      and inner = number (List.nth r (column t inner_max)) in
      if load <= 0.6 then
        check_bool
          (Printf.sprintf "load %.2f: inner-max %.2f within 1%% of outer-only %.2f" load inner
             outer)
          true
          (Float.abs (inner -. outer) <= 0.01 *. outer)
      else if load >= 0.8 then
        check_bool
          (Printf.sprintf "load %.2f: inner-max %.2f more than 5%% below outer-only %.2f" load
             inner outer)
          true
          (inner < 0.95 *. outer))
    (by_load t)

(* Response time: the per-load DoP oracle beats both static
   configurations at every load. *)
let test_oracle_beats_statics () =
  let t = table "fig2_4" "Figure 2.4(c)" in
  List.iter
    (fun (load, r) ->
      let v col = number (List.nth r (column t col)) in
      let oracle = v "oracle" in
      check_bool
        (Printf.sprintf "load %.2f: oracle %.3f below both statics" load oracle)
        true
        (oracle < v outer_only && oracle < v inner_max))
    (by_load t)

let suite =
  [
    Alcotest.test_case "tab8_5: TBF best on ferret and dedup" `Quick test_tbf_best;
    Alcotest.test_case "tab8_5: Pthreads-OS helps ferret, hurts dedup" `Quick
      test_os_helps_ferret_hurts_dedup;
    Alcotest.test_case "tab8_6: controller picks PS-DSWP on crc32, SEQ on recurrence" `Quick
      test_controller_schemes;
    Alcotest.test_case "fig2_4b: inner-max throughput falls behind from load 0.8" `Quick
      test_throughput_crossover;
    Alcotest.test_case "fig2_4c: oracle response below both statics" `Quick
      test_oracle_beats_statics;
  ]
