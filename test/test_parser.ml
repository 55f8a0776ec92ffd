(* Tests for the .loop textual frontend: grammar coverage, binding rules,
   error reporting, and end-to-end compilation of the sample kernels. *)

open Parcae_ir
open Parcae_sim

(* Engine/value types come from the platform dispatch layer (the runtime's
   own types); [Machine]/[Power]/etc. remain from [Parcae_sim] above. *)
module Engine = Parcae_platform.Engine
module Chan = Parcae_platform.Chan
module Lock = Parcae_platform.Lock
open Parcae_nona
module R = Parcae_runtime

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let parses_ok src = ignore (Parser.parse src : Loop.t)

let fails_with fragment src =
  match Parser.parse src with
  | (_ : Loop.t) -> Alcotest.failf "expected a parse error mentioning %S" fragment
  | exception Parser.Parse_error m ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      check_bool (Printf.sprintf "error %S mentions %S" m fragment) true (contains m fragment)

let test_minimal () =
  let loop =
    Parser.parse {|
      loop tiny (count 10) {
        i = induction 0 step 1
        s = phi 0 carry s2
        s2 = add s, i
        liveout s
      }
    |}
  in
  Alcotest.(check string) "name" "tiny" loop.Loop.name;
  check_int "phis" 2 (List.length loop.Loop.phis);
  let r = Interp.run loop in
  check_int "sum 0..9" 45 (snd (List.hd r.Interp.live_out))

let test_grammar_coverage () =
  parses_ok
    {|
      # every statement form, hex and negative literals
      loop all (while) {
        array a[8] = iota
        array b[8] = zero
        array c[8] = fill -3
        array d[8] = hash
        i = induction 0 step 1
        stop = eq i, 0x7
        break_if stop
        x = load a[i]
        y = min x, -5
        store b[i], y
        work 100
        r = call rand(0) commutative
        call emit(r)
        acc = phi 0 carry acc2
        acc2 = xor acc, y
        liveout acc
      }
    |}

let test_interp_matches_builder () =
  (* The textual montecarlo must behave exactly like a builder-made twin. *)
  let text =
    Parser.parse {|
      loop mc (count 200) {
        r = call rand(0) commutative
        work 10
        v = rem r, 1000
        sum = phi 0 carry sum2
        sum2 = add sum, v
        liveout sum
      }
    |}
  in
  let b = Builder.create "mc" in
  let r = Option.get (Builder.call ~commutative:true b "rand" (Instr.Const 0)) in
  Builder.work b (Instr.Const 10);
  let v = Builder.binop b Instr.Rem (Instr.Reg r) (Instr.Const 1000) in
  let sum = Builder.reduce b Instr.Add ~init:(Instr.Const 0) (Instr.Reg v) in
  Builder.live_out b sum;
  let built = Builder.finish ~trip:(Loop.Count 200) b in
  let rt = Interp.run text and rb = Interp.run built in
  check_int "same sum" (snd (List.hd rb.Interp.live_out)) (snd (List.hd rt.Interp.live_out));
  check_bool "same externals" true (rt.Interp.externals = rb.Interp.externals)

let test_errors () =
  fails_with "defined twice"
    "loop l (count 1) { i = induction 0 step 1\n i = induction 0 step 1 }";
  fails_with "unknown register" "loop l (count 1) { x = add y, 1 }";
  fails_with "carry register z never defined" "loop l (count 1) { p = phi 0 carry z }";
  fails_with "unknown operation" "loop l (count 1) { x = frobnicate 1, 2 }";
  fails_with "expected 'loop'" "noise";
  fails_with "missing '}'" "loop l (count 1) { work 5";
  fails_with "unexpected character" "loop l (count 1) { work 5 @ }";
  fails_with "undeclared array" "loop l (count 1) { x = load nowhere[0] }";
  fails_with "While loop without Break_if" "loop l (while) { work 5 }"

(* Errors carry a file:line prefix pointing at the offending statement,
   and successful parses stamp each node with its source location. *)
let test_located_errors () =
  fails_with "<input>:1:" "noise";
  fails_with "<input>:3:" "loop l (count 1) {\n  work 5\n  x = frobnicate 1, 2\n}";
  fails_with "<input>:4:" "loop l (count 1) {\n  work 5\n  work 5\n  x = add y, 1\n}";
  let loop = Parser.parse "loop l (count 2) {\n  work 5\n  work 7\n}" in
  let nphis = List.length loop.Loop.phis in
  (match Loop.loc_of loop (nphis + 1) with
  | Some l ->
      Alcotest.(check string) "loc file" "<input>" l.Loop.loc_file;
      check_int "loc line" 3 l.Loop.loc_line
  | None -> Alcotest.fail "body node has no source location");
  match Parser.parse_file "../examples/kernels/crc32.loop" with
  | loop -> (
      match Loop.loc_of loop (List.length loop.Loop.phis) with
      | Some l -> check_bool "file recorded" true (Filename.basename l.Loop.loc_file = "crc32.loop")
      | None -> Alcotest.fail "parsed file lost its locations")
  | exception Parser.Parse_error m -> Alcotest.failf "crc32.loop failed to parse: %s" m

let test_sample_kernels_compile_and_run () =
  let machine = Machine.xeon_x7460 in
  let dir = "../../../examples/kernels" in
  let dir = if Sys.file_exists dir then dir else "examples/kernels" in
  let files = Sys.readdir dir |> Array.to_list |> List.sort compare in
  check_bool "found sample kernels" true (List.length files >= 4);
  List.iter
    (fun file ->
      let loop = Parser.parse_file (Filename.concat dir file) in
      let c = Compiler.compile loop in
      let eng = Engine.create machine in
      let h = Compiler.launch ~budget:24 eng c in
      let params =
        { R.Controller.default_params with R.Controller.nseq = 8; npar_factor = 8; monitor_ns = 10_000_000 }
      in
      ignore (R.Controller.spawn eng (R.Controller.create ~params h.Compiler.region));
      ignore (Engine.run ~until:300_000_000_000 eng);
      check_bool (file ^ ": done") true (R.Region.is_done h.Compiler.region);
      check_bool (file ^ ": semantics") true (Compiler.preserves_semantics h))
    files

let test_expected_schemes_for_samples () =
  let dir = "../../../examples/kernels" in
  let dir = if Sys.file_exists dir then dir else "examples/kernels" in
  let schemes file = Compiler.scheme_names (Compiler.compile (Parser.parse_file (Filename.concat dir file))) in
  Alcotest.(check (list string)) "crc32.loop" [ "SEQ"; "DOACROSS"; "PS-DSWP" ] (schemes "crc32.loop");
  Alcotest.(check (list string)) "histogram.loop" [ "SEQ"; "PS-DSWP" ] (schemes "histogram.loop");
  Alcotest.(check (list string)) "montecarlo.loop" [ "SEQ"; "DOANY" ] (schemes "montecarlo.loop");
  Alcotest.(check (list string)) "scan.loop" [ "SEQ"; "PS-DSWP" ] (schemes "scan.loop")

let suite =
  [
    Alcotest.test_case "parser: minimal loop" `Quick test_minimal;
    Alcotest.test_case "parser: grammar coverage" `Quick test_grammar_coverage;
    Alcotest.test_case "parser: matches builder" `Quick test_interp_matches_builder;
    Alcotest.test_case "parser: error reporting" `Quick test_errors;
    Alcotest.test_case "parser: located errors and node locations" `Quick test_located_errors;
    Alcotest.test_case "parser: sample kernels run" `Quick test_sample_kernels_compile_and_run;
    Alcotest.test_case "parser: sample kernel schemes" `Quick test_expected_schemes_for_samples;
  ]

let test_roundtrip_builtin_kernels () =
  (* print -> parse must preserve semantics for every built-in kernel;
     arrays without a recognized initializer print as element lists. *)
  List.iter
    (fun (k : Kernels.expectation) ->
      let loop = k.Kernels.make () in
      let src = Parser.to_source loop in
      let reparsed = Parser.parse src in
      let a = Interp.run loop and b = Interp.run reparsed in
      check_bool (k.Kernels.k_name ^ ": roundtrip iterations") true
        (a.Interp.iterations = b.Interp.iterations);
      check_bool (k.Kernels.k_name ^ ": roundtrip externals") true
        (a.Interp.externals = b.Interp.externals);
      check_bool (k.Kernels.k_name ^ ": roundtrip arrays") true
        (List.map snd a.Interp.arrays = List.map snd b.Interp.arrays);
      check_bool (k.Kernels.k_name ^ ": roundtrip live-outs") true
        (List.map snd a.Interp.live_out = List.map snd b.Interp.live_out))
    Kernels.suite

let test_roundtrip_samples () =
  let dir = "../../../examples/kernels" in
  let dir = if Sys.file_exists dir then dir else "examples/kernels" in
  Sys.readdir dir |> Array.to_list
  |> List.iter (fun file ->
         let loop = Parser.parse_file (Filename.concat dir file) in
         let reparsed = Parser.parse (Parser.to_source loop) in
         let a = Interp.run loop and b = Interp.run reparsed in
         (* registers renumber across the roundtrip, so compare live-out
            VALUES in order, not register ids *)
         check_bool (file ^ ": roundtrip") true
           (a.Interp.iterations = b.Interp.iterations
           && a.Interp.externals = b.Interp.externals
           && List.map snd a.Interp.live_out = List.map snd b.Interp.live_out))

let suite =
  suite
  @ [
      Alcotest.test_case "parser: builtin kernel roundtrip" `Quick test_roundtrip_builtin_kernels;
      Alcotest.test_case "parser: sample roundtrip" `Quick test_roundtrip_samples;
    ]
