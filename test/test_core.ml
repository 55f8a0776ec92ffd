(* Unit tests for the core API types: configurations (including nested
   thread accounting), descriptor validation, the pipeline sentinel
   protocol primitives, and the machine/power model. *)

open Parcae_sim

(* Engine/value types come from the platform dispatch layer (the runtime's
   own types); [Machine]/[Power]/etc. remain from [Parcae_sim] above. *)
module Engine = Parcae_platform.Engine
module Chan = Parcae_platform.Chan
module Lock = Parcae_platform.Lock
open Parcae_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------------------------- Config ---------------------------- *)

let test_config_threads_nested () =
  (* <(3, DOALL), (8, PIPE)>: 3 outer workers each driving an inner team
     of 8 keeps 24 threads busy (the paper's k x l). *)
  let inner = Config.make [ Config.seq_task; Config.task 6; Config.seq_task ] in
  let cfg = Config.make [ Config.task ~nested:inner 3 ] in
  check_int "inner threads" 8 (Config.threads inner);
  check_int "k x l" 24 (Config.threads cfg)

let test_config_validate () =
  Alcotest.check_raises "dop 0 rejected" (Invalid_argument "Config.validate: dop must be >= 1")
    (fun () -> Config.validate (Config.make [ Config.task 0 ]))

let test_config_to_string () =
  let cfg = Config.make ~choice:2 [ Config.seq_task; Config.task 5 ] in
  Alcotest.(check string) "render" "#2<1, 5>" (Config.to_string cfg)

let test_config_equal () =
  let a = Config.make [ Config.task 3; Config.seq_task ] in
  let b = Config.make [ Config.task 3; Config.seq_task ] in
  check_bool "structural equality" true (Config.equal a b);
  check_bool "dop difference detected" false (Config.equal a (Config.with_dop b 0 4));
  check_bool "choice difference detected" false
    (Config.equal a { b with Config.choice = 1 })

(* ----------------------------- Task ----------------------------- *)

let dummy_task ttype name = Task.create ~ttype ~name (fun _ -> Task_status.Complete)

let test_descriptor_master () =
  let a = dummy_task Task.Seq "a" and b = dummy_task Task.Par "b" in
  let pd = Task.descriptor ~name:"p" [ a; b ] in
  check_bool "first task is master" true (Task.is_master pd a);
  check_bool "second is not" false (Task.is_master pd b);
  check_int "arity" 2 (Task.arity pd)

let test_validate_config_rejects_seq_dop () =
  let pd = Task.descriptor ~name:"p" [ dummy_task Task.Seq "s"; dummy_task Task.Par "p" ] in
  Task.validate_config pd (Config.make [ Config.seq_task; Config.task 4 ]);
  Alcotest.check_raises "seq task with dop 2" (Invalid_argument "s: sequential task requires dop = 1")
    (fun () -> Task.validate_config pd (Config.make [ Config.task 2; Config.task 4 ]))

let test_validate_config_rejects_arity () =
  let pd = Task.descriptor ~name:"pd" [ dummy_task Task.Par "x" ] in
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "config for pd: 2 task configs for 1 tasks") (fun () ->
      Task.validate_config pd (Config.make [ Config.task 1; Config.task 1 ]))

let test_validate_config_rejects_undeclared_nested () =
  let pd = Task.descriptor ~name:"pd" [ dummy_task Task.Par "x" ] in
  let cfg = Config.make [ Config.task ~nested:(Config.make [ Config.task 2 ]) 2 ] in
  Alcotest.check_raises "nested without declaration"
    (Invalid_argument "x: no nested parallelism declared") (fun () ->
      Task.validate_config pd cfg)

let test_default_config () =
  let pd =
    Task.descriptor ~name:"p" [ dummy_task Task.Seq "a"; dummy_task Task.Par "b" ]
  in
  let cfg = Task.default_config pd in
  Alcotest.(check (array int)) "all ones" [| 1; 1 |] (Config.dops cfg);
  Task.validate_config pd cfg

(* --------------------------- Pipeline --------------------------- *)

let test_pipeline_reset_keeps_items_and_eos () =
  let eng = Engine.create (Machine.test_machine ()) in
  let ch = Chan.create eng "c" in
  let remaining = ref (-1) in
  let _ =
    Engine.spawn eng ~name:"t" (fun () ->
        Pipeline.send ch 1;
        Pipeline.inject_flush ch;
        Pipeline.send ch 2;
        Pipeline.inject_eos ch;
        Pipeline.inject_flush ch;
        Pipeline.reset_channel ch;
        remaining := Chan.length ch)
  in
  ignore (Engine.run eng);
  (* 2 items + 1 eos survive; 2 flushes stripped. *)
  check_int "flushes stripped only" 3 !remaining

(* An [Eos] with items behind it (a batch's up-front marker, with a
   paused claim's suffix returned after it) moves behind them; one with
   nothing behind it stays put and costs no extra channel op. *)
let test_pipeline_reset_moves_stranding_eos () =
  let eng = Engine.create (Machine.test_machine ()) in
  let ch = Chan.create eng "c" in
  let order = ref [] and costs = ref [] in
  let _ =
    Engine.spawn eng ~name:"t" (fun () ->
        let reset () =
          let t0 = Engine.now () in
          Pipeline.reset_channel ch;
          Engine.now () - t0
        in
        Pipeline.send ch 1;
        Pipeline.inject_eos ch;
        Pipeline.inject_flush ch;
        let kept = reset () in
        Pipeline.send ch 2;
        let moved = reset () in
        costs := [ kept; moved ];
        order := List.init (Chan.length ch) (fun _ -> Chan.recv ch))
  in
  ignore (Engine.run eng);
  check_bool "items first, then eos" true
    (!order = [ Pipeline.Item 1; Pipeline.Item 2; Pipeline.Eos ]);
  let op = (Machine.test_machine ()).Machine.chan_op in
  Alcotest.(check (list int)) "one op, or three to move the eos" [ op; 3 * op ] !costs

let test_forward_to () =
  let eng = Engine.create (Machine.test_machine ()) in
  let ch = Chan.create eng "c" in
  let ok = ref false in
  let _ =
    Engine.spawn eng ~name:"t" (fun () ->
        Pipeline.forward_to ch Pipeline.S_flush;
        Pipeline.forward_to ch Pipeline.S_eos;
        let a = Chan.recv ch and b = Chan.recv ch in
        ok := a = Pipeline.Flush && b = Pipeline.Eos)
  in
  ignore (Engine.run eng);
  check_bool "sentinels in order" true !ok

(* The claim size of [drain_stage]: with the input well past 2 x DoP, a
   [~max_batch:1] stage takes one item per invocation for one receive,
   the per-item stage every inner pipeline uses; a default stage claims
   [min 4 (depth / dop)] items, at least 1, for one receive.  Each
   invocation is timed with its deferred channel charges flushed: one
   receive is one [chan_op]. *)
let test_drain_stage_claim_size () =
  let depth = 40 and dop = 3 in
  let op = (Machine.test_machine ()).Machine.chan_op in
  (* (depth before, ctx.items, body calls, items taken, ns) per invocation *)
  let claims ?max_batch () =
    let eng = Engine.create (Machine.test_machine ()) in
    let se = Option.get (Engine.sim_engine eng) in
    let input = Chan.create eng "in" in
    let calls = ref 0 and out = ref [] in
    let st =
      Pipeline.drain_stage ?max_batch ~name:"s" ~input ~forward:ignore (fun _ _ ->
          incr calls;
          Task_status.Iterating)
    in
    let ctx =
      {
        Task.lane = 0;
        dop;
        iter = 0;
        items = -1;
        get_status = (fun () -> Task_status.Iterating);
        hook_begin = ignore;
        hook_end = ignore;
        nested_cfg = None;
        run_nested = ignore;
      }
    in
    let _ =
      Engine.spawn eng ~name:"t" (fun () ->
          for i = 1 to depth do
            Pipeline.send input i
          done;
          while Chan.length input > 0 do
            let d = Chan.length input and c0 = !calls in
            ignore (Parcae_sim.Engine.flush_charges se : bool);
            let t0 = Engine.now () in
            ctx.Task.items <- -1;
            let status = st.Pipeline.task.Task.body ctx in
            ignore (Parcae_sim.Engine.flush_charges se : bool);
            check_bool "stage keeps iterating" true (status = Task_status.Iterating);
            out :=
              (d, ctx.Task.items, !calls - c0, d - Chan.length input, Engine.now () - t0) :: !out
          done)
    in
    ignore (Engine.run eng);
    check_int "every item processed" depth !calls;
    List.rev !out
  in
  let check_claims what expect cs =
    List.iter
      (fun (d, items, calls, taken, ns) ->
        let k = expect d in
        let at = Printf.sprintf "%s at depth %d" what d in
        check_int (at ^ ": ctx.items") k items;
        check_int (at ^ ": body calls") k calls;
        check_int (at ^ ": items taken") k taken;
        check_int (at ^ ": one receive") op ns)
      cs
  in
  let single = claims ~max_batch:1 () in
  check_int "max_batch:1: one invocation per item" depth (List.length single);
  check_claims "max_batch:1" (fun _ -> 1) single;
  check_claims "default" (fun d -> max 1 (min 4 (d / dop))) (claims ())

(* ---------------------------- Machine ---------------------------- *)

let test_machine_power () =
  let m = Machine.xeon_x7460 in
  Alcotest.(check (float 1e-9)) "idle" m.Machine.idle_power (Machine.power m ~busy:0);
  Alcotest.(check (float 1e-9)) "peak"
    (m.Machine.idle_power +. (24.0 *. m.Machine.core_power))
    (Machine.peak_power m);
  check_int "cores" 24 m.Machine.cores;
  check_int "platform 1 cores" 8 Machine.xeon_e5310.Machine.cores

let suite =
  [
    Alcotest.test_case "config: nested thread accounting" `Quick test_config_threads_nested;
    Alcotest.test_case "config: validate" `Quick test_config_validate;
    Alcotest.test_case "config: to_string" `Quick test_config_to_string;
    Alcotest.test_case "config: equality" `Quick test_config_equal;
    Alcotest.test_case "task: descriptor/master" `Quick test_descriptor_master;
    Alcotest.test_case "task: seq dop validation" `Quick test_validate_config_rejects_seq_dop;
    Alcotest.test_case "task: arity validation" `Quick test_validate_config_rejects_arity;
    Alcotest.test_case "task: nested declaration" `Quick test_validate_config_rejects_undeclared_nested;
    Alcotest.test_case "task: default config" `Quick test_default_config;
    Alcotest.test_case "pipeline: reset keeps items+eos" `Quick test_pipeline_reset_keeps_items_and_eos;
    Alcotest.test_case "pipeline: reset moves a stranding eos" `Quick
      test_pipeline_reset_moves_stranding_eos;
    Alcotest.test_case "pipeline: forward_to" `Quick test_forward_to;
    Alcotest.test_case "pipeline: drain_stage claim size" `Quick test_drain_stage_claim_size;
    Alcotest.test_case "machine: power model" `Quick test_machine_power;
  ]
