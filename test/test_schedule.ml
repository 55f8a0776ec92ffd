(* Schedule equivalence: a seeded generator of small scenarios built to
   provoke the simulator's scheduling corner cases, each reduced to a
   digest of its (virtual time, thread, step) log.

   Scenarios run on [Machine.test_machine] (1-4 cores, 10 us quantum,
   100 ns context switch).  They spawn teams together with equal bursts,
   so quantum boundaries of several runs fall on the same nanosecond;
   draw bursts and sleeps at exact multiples of the quantum, plus or minus
   the context switch; yield, signal, broadcast, wait, charge and join;
   and a ticker thread changes the online core count.  Each scenario also
   cuts [Engine.run] at random instants and changes the core count from
   outside between the pieces.

   [schedule_digests.txt] holds one digest per seed, recorded with an
   engine that pushed one event per scheduler quantum.  The engine must
   reproduce every one of them: skipping uneventful quantum boundaries
   is an optimization, never a change of schedule, and so is finishing a
   burst without suspending, which every burst may do.  A mismatch names
   the seed; [log seed] rebuilds that scenario's full log. *)

open Parcae_sim
module Rng = Parcae_util.Rng

let seeds = 2048
let digest_file = "schedule_digests.txt"
let machine cores = Machine.test_machine ~cores ()
let quantum = (machine 1).Machine.time_slice
let switch = (machine 1).Machine.ctx_switch

(* An exact quantum multiple: the boundary-aligned case. *)
let k_quanta rng = (1 + Rng.int rng 3) * quantum

(* A duration on or next to a quantum multiple, or an arbitrary one. *)
let duration rng =
  let k = 1 + Rng.int rng 3 in
  match Rng.int rng 5 with
  | 0 | 1 -> k * quantum
  | 2 -> (k * quantum) + switch
  | 3 -> (k * quantum) - switch
  | _ -> 1 + Rng.int rng (2 * quantum)

type scenario = {
  eng : Engine.t;
  conds : Engine.cond array;
  log : Buffer.t;
  cores : int;
}

let note sc tid step =
  Buffer.add_string sc.log (Printf.sprintf "%d %d %s\n" (Engine.time sc.eng) tid step)

(* One thread's script: [steps] random steps, logged as they start.
   [depth] bounds team nesting. *)
let rec script sc rng ~depth ~steps ~burst () =
  let self = Engine.self () in
  let joinable = ref [] in
  let step i what f =
    note sc self.Engine.tid (Printf.sprintf "%d:%s" i what);
    f ()
  in
  (match burst with Some n -> step 0 "burst" (fun () -> Engine.compute n) | None -> ());
  for i = 1 to steps do
    match Rng.int rng 12 with
    | 0 | 1 | 2 -> step i "compute" (fun () -> Engine.compute (duration rng))
    | 3 -> step i "charge" (fun () -> Engine.charge sc.eng (1 + Rng.int rng 6_000))
    | 4 -> step i "sleep" (fun () -> Engine.sleep (duration rng))
    | 5 -> step i "yield" Engine.yield
    | 6 -> step i "signal" (fun () -> Engine.signal sc.conds.(Rng.int rng (Array.length sc.conds)))
    | 7 ->
        step i "broadcast" (fun () ->
            Engine.broadcast sc.conds.(Rng.int rng (Array.length sc.conds)))
    | 8 -> step i "wait" (fun () -> Engine.wait_on sc.conds.(Rng.int rng (Array.length sc.conds)))
    | 9 -> (
        match !joinable with
        | th :: rest ->
            joinable := rest;
            step i "join" (fun () -> Engine.join th)
        | [] -> step i "compute" (fun () -> Engine.compute (k_quanta rng)))
    | _ when depth > 0 ->
        (* A team: spawned at one instant, equal first bursts. *)
        let size = 1 + Rng.int rng (sc.cores + 2) in
        let n = duration rng in
        step i (Printf.sprintf "team%dx%d" size n) (fun () ->
            for _ = 1 to size do
              let r = Rng.split rng in
              joinable :=
                Engine.spawn_thread ~name:"member"
                  (script sc r ~depth:(depth - 1) ~steps:(Rng.int r 6) ~burst:(Some n))
                :: !joinable
            done)
    | _ -> step i "compute" (fun () -> Engine.compute (k_quanta rng))
  done;
  note sc self.Engine.tid (Printf.sprintf "done busy=%d" (Engine.current_busy sc.eng))

(* Changes the online core count (including to zero and past the
   physical count), broadcasting one condition per tick so waiters are
   not stranded; restores every core at the end. *)
let ticker sc rng ~ticks () =
  let self = Engine.self () in
  for i = 1 to ticks do
    Engine.sleep (duration rng);
    let online = Rng.int rng (sc.cores + 2) in
    note sc self.Engine.tid (Printf.sprintf "%d:online=%d" i online);
    Engine.set_online_cores sc.eng online;
    Engine.broadcast sc.conds.(Rng.int rng (Array.length sc.conds))
  done;
  Engine.set_online_cores sc.eng sc.cores;
  Array.iter Engine.broadcast sc.conds

let log seed =
  let rng = Rng.create seed in
  let cores = 1 + Rng.int rng 4 in
  let eng = Engine.create (machine cores) in
  let sc =
    {
      eng;
      conds = Array.init (1 + Rng.int rng 3) (fun _ -> Engine.cond_create eng);
      log = Buffer.create 1024;
      cores;
    }
  in
  for _ = 0 to Rng.int rng 3 do
    let r = Rng.split rng in
    ignore (Engine.spawn sc.eng ~name:"root" (script sc r ~depth:2 ~steps:(3 + Rng.int r 8) ~burst:None))
  done;
  if Rng.bool rng then begin
    let r = Rng.split rng in
    ignore (Engine.spawn sc.eng ~name:"ticker" (ticker sc r ~ticks:(1 + Rng.int r 5)))
  end;
  (* Run in pieces cut at random instants, some on quantum boundaries
     (plus the context switch), changing the core count from outside
     between pieces. *)
  let cut = ref 0 in
  for _ = 1 to Rng.int rng 4 do
    cut := !cut + (if Rng.bool rng then k_quanta rng + switch else duration rng);
    ignore (Engine.run ~until:!cut sc.eng);
    if Rng.int rng 3 = 0 then begin
      let online = 1 + Rng.int rng (cores + 1) in
      note sc 0 (Printf.sprintf "outside:online=%d" online);
      Engine.set_online_cores sc.eng online
    end
  done;
  Engine.set_online_cores sc.eng cores;
  ignore (Engine.run sc.eng);
  Printf.bprintf sc.log "end %d live=%d energy=%h\n" (Engine.time sc.eng)
    (Engine.live_threads sc.eng) (Engine.energy_joules sc.eng);
  Buffer.contents sc.log

let digest seed = String.sub (Digest.to_hex (Digest.string (log seed))) 0 12

let read_digests () =
  let ic = open_in digest_file in
  let rec go acc =
    match input_line ic with
    | line -> Scanf.sscanf line "%d %s" (fun seed d -> go ((seed, d) :: acc))
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

(* On a mismatch the recomputed table is written next to the committed
   one (in the build directory), ready to be copied over it when a
   schedule change is intended. *)
let test_digests () =
  let expected = read_digests () in
  Alcotest.(check int) "committed seeds" seeds (List.length expected);
  let actual = List.init seeds (fun seed -> (seed, digest seed)) in
  let bad = List.filter (fun ((_, d), (_, d')) -> d <> d') (List.combine expected actual) in
  if bad <> [] then begin
    let oc = open_out (digest_file ^ ".actual") in
    List.iter (fun (seed, d) -> Printf.fprintf oc "%d %s\n" seed d) actual;
    close_out oc;
    List.iteri
      (fun i ((seed, want), (_, got)) ->
        if i < 5 then
          Printf.printf "schedule seed %d diverges: digest %s, committed %s (Test_schedule.log %d)\n"
            seed got want seed)
      bad;
    Alcotest.failf "%d of %d seeds diverge from %s" (List.length bad) seeds digest_file
  end

(* The generator must actually reach the corners it is built for. *)
let test_coverage () =
  let logs = List.init 200 log in
  let count sub =
    List.length
      (List.filter
         (fun l ->
           let n = String.length sub in
           let rec has i = i + n <= String.length l && (String.sub l i n = sub || has (i + 1)) in
           has 0)
         logs)
  in
  List.iter
    (fun what ->
      Alcotest.(check bool) (what ^ " occurs") true (count what > 10))
    [ ":team"; ":join"; ":wait"; ":yield"; ":charge"; ":online="; "outside:online" ]

let suite =
  [
    Alcotest.test_case "schedule: every seed matches its committed digest" `Quick test_digests;
    Alcotest.test_case "schedule: generator reaches every step kind" `Quick test_coverage;
  ]
