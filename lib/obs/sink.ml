(* Event sinks: a bounded ring buffer, and a null sink that makes tracing
   free when disabled.

   The ring keeps the most recent [capacity] events and counts what it
   overwrote, so a long run with a small sink degrades to a suffix trace
   instead of unbounded memory.  [null] is a physical sentinel: emitters
   compare against it with one load and one pointer equality, which is the
   whole cost of disabled tracing.

   Storage is flat: one column per field, written in place, so recording
   an event allocates nothing.  A boxed event would outlive the minor heap
   (the ring holds it), be promoted, and then die in the major heap, once
   per event.  A slot holds its time, a kind tag, up to three int payload
   fields and one string (the channel, task or region name).  The kinds
   whose payload does not fit that shape — a second string, a share list
   or a float — keep the caller's [Event.kind] in one boxed column; they
   are all control-plane events.  Events are decoded back to [Event.t]
   only when read.

   The columns start small and double up to [capacity], so a sink sized
   for a long run costs little in a short one. *)

type tag =
  | Chan_send
  | Chan_recv
  | Hook_sample
  | Task_spawn
  | Task_done
  | Steal
  | Region_stop
  | Ctrl_state
  | Pause
  | Chan_flush
  | Budget_grant
  | Cores_online
  | Trace_overflow
  | Span_overflow
  | Boxed  (* the payload is the slot's [boxed] kind *)

type t = {
  capacity : int;  (* 0 only for [null] *)
  mu : Mutex.t;
      (* serializes record/read/clear: native workers emit concurrently *)
  (* The columns, all of one length: 0 before the first event. *)
  mutable ts : int array;
  mutable tags : tag array;
  mutable names : string array;
  mutable a : int array;
  mutable b : int array;
  mutable c : int array;
  mutable boxed : Event.kind array;  (* meaningful only where the tag is [Boxed] *)
  mutable start : int;  (* index of the oldest retained event *)
  mutable len : int;  (* retained events, <= capacity *)
  mutable dropped : int;  (* events overwritten after the ring filled *)
  mutable last_t : int;  (* high-water timestamp for the monotone clamp *)
}

let make capacity =
  { capacity; mu = Mutex.create (); ts = [||]; tags = [||]; names = [||]; a = [||]; b = [||];
    c = [||]; boxed = [||]; start = 0; len = 0; dropped = 0; last_t = min_int }

let null = make 0

let default_capacity = 1 lsl 16

let create ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Sink.create: capacity must be positive";
  make capacity

let is_null s = s == null

let length s = s.len
let dropped s = s.dropped
let capacity s = s.capacity

(* Fills the boxed column where no boxed kind lives. *)
let no_kind = Event.Cores_online { cores = 0 }

let clear s =
  Mutex.lock s.mu;
  (* Drop the columns too: a cleared sink must release the memory of the
     events it retained, not just forget their indices.  The next [record]
     re-allocates lazily, exactly as on first use. *)
  s.ts <- [||];
  s.tags <- [||];
  s.names <- [||];
  s.a <- [||];
  s.b <- [||];
  s.c <- [||];
  s.boxed <- [||];
  s.start <- 0;
  s.len <- 0;
  s.dropped <- 0;
  s.last_t <- min_int;
  Mutex.unlock s.mu

(* Length of the columns — 0 before the first event and after [clear].
   Exposed so tests can assert growth and that clearing releases it. *)
let allocated_slots s = Array.length s.ts

let initial_slots = 1024

(* Double the columns (the first allocation is [initial_slots]), never
   past [capacity].  Growth happens only before the ring first fills, so
   the retained events occupy [0, len) and a prefix copy keeps them. *)
let grow s =
  let n = Array.length s.ts in
  let n' = min s.capacity (if n = 0 then initial_slots else 2 * n) in
  let extend col fill =
    let col' = Array.make n' fill in
    Array.blit col 0 col' 0 n;
    col'
  in
  s.ts <- extend s.ts 0;
  s.tags <- extend s.tags Chan_send;
  s.names <- extend s.names "";
  s.a <- extend s.a 0;
  s.b <- extend s.b 0;
  s.c <- extend s.c 0;
  s.boxed <- extend s.boxed no_kind

let dropped_total =
  Metrics.cached (fun reg ->
      Metrics.counter reg "parcae_trace_dropped_total"
        ~help:"Trace events overwritten by a full sink ring")

(* Write one event into the next slot.  [kind] is the event itself when
   [tag] is [Boxed], and [no_kind] otherwise. *)
let put s ~t tag name a b c kind =
  if s.capacity > 0 then begin
    Mutex.lock s.mu;
    (* Monotone clamp: concurrent native emitters can race the ring with
       timestamps taken a hair apart; the trace contract (and the oracle)
       requires non-decreasing time, so order-of-arrival wins and a late
       reading is clamped up.  On the simulator time is already monotone
       and the clamp never fires. *)
    let t = if t < s.last_t then s.last_t else t in
    s.last_t <- t;
    let i =
      if s.len < s.capacity then begin
        if s.len = Array.length s.ts then grow s;
        let i = s.len in
        s.len <- i + 1;
        i
      end
      else begin
        (* Full: overwrite the oldest. *)
        let i = s.start in
        s.start <- (if i + 1 = s.capacity then 0 else i + 1);
        s.dropped <- s.dropped + 1;
        if Metrics.enabled () then Metrics.inc (dropped_total ());
        i
      end
    in
    (* An overwritten boxed kind is released, not kept alive by a stale
       slot. *)
    if tag = Boxed || s.tags.(i) = Boxed then s.boxed.(i) <- kind;
    s.ts.(i) <- t;
    s.tags.(i) <- tag;
    s.names.(i) <- name;
    s.a.(i) <- a;
    s.b.(i) <- b;
    s.c.(i) <- c;
    Mutex.unlock s.mu
  end

let chan_send s ~t ~chan ~seq ~task ~busy_ns = put s ~t Chan_send chan seq task busy_ns no_kind
let chan_recv s ~t ~chan ~seq ~task ~busy_ns = put s ~t Chan_recv chan seq task busy_ns no_kind
let hook_sample s ~t ~task ~dt_ns = put s ~t Hook_sample "" task dt_ns 0 no_kind
let task_spawn s ~t ~task ~parent ~name = put s ~t Task_spawn name task parent 0 no_kind
let task_done s ~t ~task ~busy_ns = put s ~t Task_done "" task busy_ns 0 no_kind
let steal s ~t ~task ~from_lane ~to_lane = put s ~t Steal "" task from_lane to_lane no_kind

let states = [| Event.Init; Event.Calibrate; Event.Optimize; Event.Monitor |]

let record s ~t (kind : Event.kind) =
  match kind with
  | Chan_send_ev { chan; seq; task; busy_ns } -> chan_send s ~t ~chan ~seq ~task ~busy_ns
  | Chan_recv_ev { chan; seq; task; busy_ns } -> chan_recv s ~t ~chan ~seq ~task ~busy_ns
  | Hook_sample { task; dt_ns } -> hook_sample s ~t ~task ~dt_ns
  | Task_spawn { task; parent; name } -> task_spawn s ~t ~task ~parent ~name
  | Task_done { task; busy_ns } -> task_done s ~t ~task ~busy_ns
  | Steal_ev { task; from_lane; to_lane } -> steal s ~t ~task ~from_lane ~to_lane
  | Region_stop { region } -> put s ~t Region_stop region 0 0 0 no_kind
  | Ctrl_state { region; state } ->
      put s ~t Ctrl_state region (Event.ctrl_state_code state) 0 0 no_kind
  | Pause { region } -> put s ~t Pause region 0 0 0 no_kind
  | Chan_flush { chan; dropped } -> put s ~t Chan_flush chan dropped 0 0 no_kind
  | Budget_grant { region; budget } -> put s ~t Budget_grant region budget 0 0 no_kind
  | Cores_online { cores } -> put s ~t Cores_online "" cores 0 0 no_kind
  | Trace_overflow { dropped } -> put s ~t Trace_overflow "" dropped 0 0 no_kind
  | Span_overflow { dropped } -> put s ~t Span_overflow "" dropped 0 0 no_kind
  | Region_start _ | Dop_change _ | Resume _ | Daemon_repartition _ | Feature_sample _ ->
      put s ~t Boxed "" 0 0 0 kind

let decode s i =
  let name = s.names.(i) and a = s.a.(i) and b = s.b.(i) and c = s.c.(i) in
  let kind : Event.kind =
    match s.tags.(i) with
    | Chan_send -> Chan_send_ev { chan = name; seq = a; task = b; busy_ns = c }
    | Chan_recv -> Chan_recv_ev { chan = name; seq = a; task = b; busy_ns = c }
    | Hook_sample -> Hook_sample { task = a; dt_ns = b }
    | Task_spawn -> Task_spawn { task = a; parent = b; name }
    | Task_done -> Task_done { task = a; busy_ns = b }
    | Steal -> Steal_ev { task = a; from_lane = b; to_lane = c }
    | Region_stop -> Region_stop { region = name }
    | Ctrl_state -> Ctrl_state { region = name; state = states.(a) }
    | Pause -> Pause { region = name }
    | Chan_flush -> Chan_flush { chan = name; dropped = a }
    | Budget_grant -> Budget_grant { region = name; budget = a }
    | Cores_online -> Cores_online { cores = a }
    | Trace_overflow -> Trace_overflow { dropped = a }
    | Span_overflow -> Span_overflow { dropped = a }
    | Boxed -> s.boxed.(i)
  in
  Event.make ~t:s.ts.(i) kind

(* Retained events, oldest first. *)
let to_array s =
  Mutex.lock s.mu;
  let a = Array.init s.len (fun k -> decode s ((s.start + k) mod s.capacity)) in
  Mutex.unlock s.mu;
  a

let events s = Array.to_list (to_array s)
let iter s f = Array.iter f (to_array s)
