(* Pipeline-stage helpers implementing the pause/flush protocol of
   Section 4.6 for API-level (hand-written) parallelizations.

   Stages communicate through shared channels carrying work items or one of
   two sentinels: [Flush] (a pause is in progress) and [Eos] (end of
   stream).  The protocol mirrors the paper's ferret/x264 ports
   (Figure 5.7), where FiniCB callbacks enqueue sentinel NULL tokens:

   - The master task polls [get_status] at the top of each instance
     (Section 4.6: master tasks query Morta directly).
   - A pause (or end-of-stream) reaches a stage as a sentinel in its input
     channel.  The receiving lane puts the sentinel back for its sibling
     lanes and exits.
   - The *last* lane of a stage to exit forwards the sentinel downstream.
     Forwarding from the last lane — rather than from every lane's fini —
     guarantees that every in-flight item of this stage has been sent
     downstream before the sentinel, so a downstream stage never observes
     the sentinel ahead of real data (the ordering hazard of
     Section 7.2.2).
   - Between pause and resume, the runtime strips leftover [Flush]
     sentinels from the channels ([reset_channel]) while keeping pending
     work items and any [Eos] (moved behind the items, if any follow
     it), and resets the per-stage exit counters.

   [drain_stage] builds every consuming stage; [~max_batch:1] makes it the
   per-item stage, one [recv] and one body call per invocation. *)

module Chan = Parcae_platform.Chan
module Span = Parcae_obs.Span
module Observed = Parcae_obs.Observed

type 'a msg =
  | Item of 'a
  | Flush  (* pause sentinel: stripped on reset *)
  | Eos  (* end of stream: persists across reconfigurations *)

(* Send a work item. *)
let send ch v = Chan.send ch (Item v)

(* Queue occupancy counting only real items; the natural load callback. *)
let load ch () =
  float_of_int (Chan.length ch)

(* Remove pause sentinels from a channel, keeping items and any [Eos].
   A batch run queues its [Eos] up front, and a mid-claim pause returns
   the claimed suffix behind it (see [drain_stage]); a stage would exit
   on that [Eos] and strand the items, so it moves behind them.  It
   moves only when an item follows it, so any other channel pays no
   extra op. *)
let reset_channel ch =
  let eos = ref false and stranded = ref false in
  ignore
    (Chan.filter ch (function
       | Flush -> false
       | Eos ->
           eos := true;
           true
       | Item _ ->
           if !eos then stranded := true;
           true)
      : int);
  if !stranded then begin
    ignore (Chan.filter ch (function Eos -> false | Item _ | Flush -> true) : int);
    Chan.force_send ch Eos
  end

(* Inject a pause sentinel, waking any lane blocked on an empty channel;
   the region's [on_pause] callback typically does this for the master
   stage's input queue.  Sentinel sends bypass channel capacity so the
   protocol can never deadlock on a full channel. *)
let inject_flush ch = Chan.force_send ch Flush

(* Inject an end-of-stream sentinel (the load generator does this after the
   last request). *)
let inject_eos ch = Chan.force_send ch Eos

type sentinel = S_flush | S_eos

(* Forward a sentinel into a downstream channel. *)
let forward_to ch = function
  | S_flush -> Chan.force_send ch Flush
  | S_eos -> Chan.force_send ch Eos

type 'a stage_handle = {
  task : Task.t;
  reset : unit -> unit;  (* clear exit bookkeeping between pause and resume *)
}

(* Shared exit bookkeeping: count exiting lanes; the last one forwards the
   strongest sentinel seen ([Eos] wins over [Flush]).  Atomics, not refs:
   on the native backend lanes exit concurrently, and the eos flag must be
   published before the increment that elects the forwarder (SC atomics)
   so the last lane cannot miss another lane's Eos. *)
let make_exit ~forward =
  let exited = Atomic.make 0 in
  let saw_eos = Atomic.make false in
  let exit_path (ctx : Task.ctx) ?(eos = false) status =
    if eos then Atomic.set saw_eos true;
    let n = Atomic.fetch_and_add exited 1 + 1 in
    if n >= ctx.Task.dop then forward (if Atomic.get saw_eos then S_eos else S_flush);
    status
  in
  let reset () =
    Atomic.set exited 0;
    Atomic.set saw_eos false
  in
  (exit_path, reset)

(* Build a pipeline stage (DESIGN.md section 14).

   [poll] — poll [get_status] before blocking on input (master stages).
   [input] — the stage's input channel.
   [forward] — invoked once, by the last exiting lane, to propagate the
   sentinel downstream (e.g. [forward_to q2]); pass [ignore] for sinks.
   [body ctx v] — process one work item.

   Each invocation claims up to [max_batch] messages in
   one [Chan.recv_batch] — one synchronization charge for the whole claim,
   the serve-side mirror of the load generator's [send_batch] — and, when
   [next] is given, forwards the processed items downstream with one
   [Chan.send_batch].  The batch size adapts to the input's current depth
   divided by the stage's DoP — claiming only this lane's share of the
   backlog, so batching never steals parallelism from sibling lanes (a
   greedy claim would let one lane serialize work the team could overlap)
   and a slow trickle degenerates to per-item behaviour.  [max_batch]
   additionally caps the claim to bound the latency a
   claimed-but-unprocessed item can suffer; with [~max_batch:1] every
   claim takes the singleton path below.

   Allocation discipline: on the fast path (a claim of plain items, every
   body call Iterating) the *same* list cells and [Item] boxes received
   from [recv_batch] are handed to [send_batch] — the stage boundary adds
   zero words per item.  The slow paths (sentinel mid-claim, body exit,
   pause poll between items) allocate a prefix list once per exit.

   Claims never straddle a reconfiguration barrier: a sentinel cuts the
   claim where it stands, everything behind it is force-sent back to the
   input (items first re-ordered behind the sentinel exactly as the
   singleton path's put-back does), and the processed prefix is flushed
   downstream *before* this lane's exit is counted, preserving the
   last-lane-forwards ordering invariant.  A pause observed between items
   (with [poll]) likewise returns the claimed-but-unprocessed suffix to
   the input channel, where [reset_channel] keeps items across the DoP
   change. *)
let drain_stage ?(ttype = Task.Par) ?(poll = false) ?(max_batch = 4) ?load ?init
    ?nested ?next ?span_of ?span_clock ~name ~input ~forward
    (body : Task.ctx -> 'a -> Task_status.t) : 'a stage_handle =
  if max_batch < 1 then invalid_arg "Pipeline.drain_stage: max_batch must be >= 1";
  (* Span stamping wraps the body only when a builder supplied both the
     item→span projection and a clock (builders close over [Engine.time
     eng] — a field read, not the allocating ambient-now effect).  With no
     collector installed the wrapper costs one atomic load per item; with
     one installed it is pure int mutation on the pooled span.  The token
     returned by [enter] makes the trailing [exit] a no-op if the request
     completed and its record was re-allocated inside the body. *)
  let body =
    match (span_of, span_clock) with
    | Some span_of, Some clock ->
        fun ctx v ->
          if Atomic.get Observed.word land Observed.span <> 0 then begin
            let sp = span_of v in
            let tok = Span.enter sp ~now:(clock ()) in
            let st = body ctx v in
            Span.exit sp ~token:tok ~now:(clock ());
            st
          end
          else body ctx v
    | _ -> body
  in
  let exit_path, reset = make_exit ~forward in
  let flush_downstream msgs =
    match next with Some ch -> if msgs <> [] then Chan.send_batch ch msgs | None -> ()
  in
  (* First [n] messages of [msgs]: the processed prefix a slow path must
     flush downstream before exiting. *)
  let prefix msgs n =
    let rec take acc k = function
      | m :: tl when k > 0 -> take (m :: acc) (k - 1) tl
      | _ -> List.rev acc
    in
    take [] n msgs
  in
  (* Return claimed-but-unprocessed messages to the input.  [force_send]
     appends, so survivors line up behind the sentinel that cut the claim
     (reset strips the sentinel and keeps them) — same re-ordering window
     the single-item protocol already has. *)
  let give_back msgs = List.iter (fun m -> Chan.force_send input m) msgs in
  let task_body (ctx : Task.ctx) =
    if poll && ctx.Task.get_status () = Task_status.Paused then exit_path ctx Task_status.Paused
    else begin
      let b =
        match Chan.length input with
        | 0 -> 1 (* empty: recv_batch blocks, then delivers what arrived *)
        | d ->
            (* Share the backlog with sibling lanes: a greedy claim would
               let one lane serialize work the whole team could run in
               parallel, so batch only the surplus beyond one item per
               lane. *)
            let share = d / ctx.Task.dop in
            if share < 1 then 1 else if share > max_batch then max_batch else share
      in
      if b = 1 then begin
        (* Singleton claim — the common case under light load or many
           lanes.  Taking [recv]'s single message avoids building and
           tearing down a one-element list per item; the received [Item]
           box itself is forwarded downstream. *)
        match Chan.recv input with
        | (Flush | Eos) as s -> (
            Chan.force_send input s;
            ctx.Task.items <- 0;
            match s with
            | Eos -> exit_path ctx ~eos:true Task_status.Complete
            | _ -> (
                match ctx.Task.get_status () with
                | Task_status.Paused -> exit_path ctx Task_status.Paused
                | _ -> exit_path ctx Task_status.Complete))
        | Item v as m -> (
            match body ctx v with
            | Task_status.Iterating ->
                ctx.Task.items <- 1;
                (match next with Some ch -> Chan.send ch m | None -> ());
                Task_status.Iterating
            | status -> (
                ctx.Task.items <- 1;
                (match next with Some ch -> Chan.send ch m | None -> ());
                match status with
                | Task_status.Complete -> exit_path ctx ~eos:true Task_status.Complete
                | _ -> exit_path ctx Task_status.Paused))
      end
      else begin
      let msgs = Chan.recv_batch ~max:b input in
      let rec go n = function
        | [] ->
            (* Clean claim: every cell processed; forward the received
               list itself downstream. *)
            ctx.Task.items <- n;
            flush_downstream msgs;
            Task_status.Iterating
        | (Flush | Eos) :: rest as cut -> (
            (* Put the sentinel back for sibling lanes, return anything
               claimed behind it, flush our prefix, then exit. *)
            let s = List.hd cut in
            Chan.force_send input s;
            give_back rest;
            ctx.Task.items <- n;
            flush_downstream (prefix msgs n);
            match s with
            | Eos -> exit_path ctx ~eos:true Task_status.Complete
            | _ ->
                let status =
                  match ctx.Task.get_status () with
                  | Task_status.Paused -> Task_status.Paused
                  | _ -> Task_status.Complete
                in
                exit_path ctx status)
        | Item v :: rest -> (
            match body ctx v with
            | Task_status.Iterating ->
                if poll && rest <> [] && ctx.Task.get_status () = Task_status.Paused
                then begin
                  (* Pause mid-claim: the unprocessed suffix survives in
                     the input channel across the reconfiguration. *)
                  give_back rest;
                  ctx.Task.items <- n + 1;
                  flush_downstream (prefix msgs (n + 1));
                  exit_path ctx Task_status.Paused
                end
                else go (n + 1) rest
            | status ->
                give_back rest;
                ctx.Task.items <- n + 1;
                flush_downstream (prefix msgs (n + 1));
                (match status with
                | Task_status.Complete -> exit_path ctx ~eos:true Task_status.Complete
                | _ -> exit_path ctx Task_status.Paused))
      in
      go 0 msgs
      end
    end
  in
  let task = Task.create ~ttype ?load ?init ?nested ~name task_body in
  { task; reset }

(* Build a source task: it generates work (no input channel) and signals
   end-of-stream / pause downstream via [forward].  [body] returns
   [Iterating] after emitting an item and [Complete] when the stream
   ends. *)
let source ?(ttype = Task.Seq) ?load ?init ~name ~forward
    (body : Task.ctx -> Task_status.t) : 'a stage_handle =
  let exit_path, reset = make_exit ~forward in
  let task_body (ctx : Task.ctx) =
    match ctx.Task.get_status () with
    | Task_status.Paused -> exit_path ctx Task_status.Paused
    | _ -> (
        match body ctx with
        | Task_status.Iterating -> Task_status.Iterating
        | Task_status.Complete -> exit_path ctx ~eos:true Task_status.Complete
        | Task_status.Paused -> exit_path ctx Task_status.Paused)
  in
  let task = Task.create ~ttype ?load ?init ~name task_body in
  { task; reset }

(* Combine stage resets and channel sentinel-stripping into a region
   [on_reset] callback. *)
let make_reset ~stages ~channels () =
  List.iter (fun s -> s.reset ()) stages;
  List.iter (fun ch -> reset_channel ch) channels
