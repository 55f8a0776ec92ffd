(* Event sinks: bounded rings, and a null sink that makes tracing free when
   disabled.

   The sink keeps the most recent [capacity] events and counts what it
   overwrote, so a long run with a small sink degrades to a suffix trace
   instead of unbounded memory.  [null] is a physical sentinel: installed,
   it leaves the trace bit of [Observed.word] clear, and a bit test is the
   whole cost of disabled tracing.

   One ring per writing domain.  A domain creates its ring on its first
   write, under the sink's mutex, and from then on writes without a lock:
   it finds the ring by its domain id in the sink's ring array, claims the
   next slot, writes it, and publishes its count of written events with one
   [Atomic.set].  A simulator run writes from one domain, so its sink is one
   ring.  Readers copy each ring's published range and merge the copies by
   time (see [to_array]).

   Systhreads that share a domain share its ring.  They only switch at
   allocations and poll points, and the slot claim, the column writes and
   the publish contain neither: growth, which allocates, happens before the
   claim.  So two such threads never interleave inside one write.

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

(* A ring's columns, all of one length, replaced together when it grows. *)
type cols = {
  ts : int array;
  tags : tag array;
  names : string array;
  a : int array;
  b : int array;
  c : int array;
  boxed : Event.kind array;  (* meaningful only where the tag is [Boxed] *)
}

(* Event [e] of a ring lives in slot [e mod capacity]. *)
type ring = {
  owner : int;  (* id of the writing domain *)
  mutable cols : cols;  (* length 0 until the first write *)
  written : int Atomic.t;  (* events written; set after each write *)
  mutable next : int;  (* slot of the next event: [written mod capacity] *)
  mutable last_t : int;  (* high-water timestamp for the monotone clamp *)
  mutable drops_reg : Metrics.t;  (* the registry [drops] belongs to *)
  mutable drops : Metrics.counter;  (* its [parcae_trace_dropped_total] *)
  mutable drops_epoch : int;  (* [Observed.epoch] when [drops_reg] was last checked *)
}

type t = {
  capacity : int;  (* 0 only for [null] *)
  mu : Mutex.t;  (* serializes ring creation, growth and [clear] *)
  rings : ring array Atomic.t;  (* in creation order *)
}

let make capacity = { capacity; mu = Mutex.create (); rings = Atomic.make [||] }

let null = make 0

let default_capacity = 1 lsl 16

let create ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Sink.create: capacity must be positive";
  make capacity

let is_null s = s == null

(* Fills the boxed column where no boxed kind lives. *)
let no_kind = Event.Cores_online { cores = 0 }

let empty_cols = { ts = [||]; tags = [||]; names = [||]; a = [||]; b = [||]; c = [||]; boxed = [||] }

let clear s =
  (* Drop the rings: a cleared sink must release the memory of the events
     it retained, not just forget their indices.  A domain's next write
     creates a new ring, exactly as on first use. *)
  Mutex.lock s.mu;
  Atomic.set s.rings [||];
  Mutex.unlock s.mu

(* [Domain.self ()], called directly: the primitive neither allocates nor
   raises, and skipping the runtime's wrapper for allocating C calls takes
   about a third off a write. *)
external domain_id : unit -> int = "caml_ml_domain_id" [@@noalloc]

(* Index of domain [me]'s ring in [rs], or -1. *)
let rec find rs me i =
  if i = Array.length rs then -1 else if rs.(i).owner = me then i else find rs me (i + 1)

(* The calling domain's ring, created on its first write.  Another
   systhread of the domain may have created it while this one waited for
   the mutex, so the lookup is repeated under it. *)
let ring_of s =
  let me = domain_id () in
  let rs = Atomic.get s.rings in
  let i = find rs me 0 in
  if i >= 0 then rs.(i)
  else begin
    Mutex.lock s.mu;
    let rs = Atomic.get s.rings in
    let i = find rs me 0 in
    let r =
      if i >= 0 then rs.(i)
      else begin
        let r =
          { owner = me; cols = empty_cols; written = Atomic.make 0; next = 0; last_t = min_int;
            drops_reg = Metrics.null; drops = { count = 0 }; drops_epoch = -1 }
        in
        Atomic.set s.rings (Array.append rs [| r |]);
        r
      end
    in
    Mutex.unlock s.mu;
    r
  end

let initial_slots = 1024

(* Double a ring's columns (the first allocation is [initial_slots]), never
   past [capacity], when the next event has no slot.  Growth happens only
   while every written event still has its own slot, so a prefix copy
   keeps them; readers holding the old columns still find every event
   they were published with. *)
let grow s r =
  Mutex.lock s.mu;
  let k = r.cols in
  let n = Array.length k.ts in
  if Atomic.get r.written = n && n < s.capacity then begin
    let n' = Int.min s.capacity (if n = 0 then initial_slots else 2 * n) in
    let extend col fill =
      let col' = Array.make n' fill in
      Array.blit col 0 col' 0 n;
      col'
    in
    r.cols <-
      { ts = extend k.ts 0; tags = extend k.tags Chan_send; names = extend k.names "";
        a = extend k.a 0; b = extend k.b 0; c = extend k.c 0; boxed = extend k.boxed no_kind }
  end;
  Mutex.unlock s.mu

(* Count one overwrite in the installed registry, through the counter
   the ring keeps bound to it (a dummy while none is installed); the
   binding is checked against the registry only when a scope opened or
   closed since it last was. *)
let count_drop r =
  let e = Atomic.get Observed.epoch in
  if r.drops_epoch <> e then begin
    let reg = Metrics.current () in
    if reg != r.drops_reg then begin
      r.drops <-
        Metrics.counter reg "parcae_trace_dropped_total"
          ~help:"Trace events overwritten by a full sink ring";
      r.drops_reg <- reg
    end;
    r.drops_epoch <- e
  end;
  r.drops.count <- r.drops.count + 1

(* Write one event into [r], the calling domain's ring.  [kind] is the
   event itself when [tag] is [Boxed], and [no_kind] otherwise.  When the
   next event has no slot, the ring grows and the write starts over, so
   from the claim to the publish nothing allocates.  An overwrite is
   counted after the publish, through the handle the ring keeps bound to
   the registry it was built for. *)
let rec put_in s r ~t tag name a b c kind =
  let k = r.cols in
  let n = Atomic.get r.written in
  if n < Array.length k.ts || Array.length k.ts = s.capacity then begin
    (* Monotone clamp: a domain's emitters can race its ring with
       timestamps taken a hair apart; the trace contract (and the oracle)
       requires non-decreasing time, so order-of-arrival wins and a late
       reading is clamped up.  On the simulator time is already monotone
       and the clamp never fires. *)
    let t = if t < r.last_t then r.last_t else t in
    r.last_t <- t;
    (* [i] is below [n] while the ring grows and below [capacity] once it
       is full, so it indexes every column. *)
    let i = r.next in
    r.next <- (if i + 1 = s.capacity then 0 else i + 1);
    (* An overwritten boxed kind is released, not kept alive by a stale
       slot. *)
    if tag == Boxed || Array.unsafe_get k.tags i == Boxed then Array.unsafe_set k.boxed i kind;
    Array.unsafe_set k.ts i t;
    Array.unsafe_set k.tags i tag;
    Array.unsafe_set k.names i name;
    Array.unsafe_set k.a i a;
    Array.unsafe_set k.b i b;
    Array.unsafe_set k.c i c;
    Atomic.set r.written (n + 1);
    if n >= s.capacity then count_drop r
  end
  else begin
    grow s r;
    put_in s r ~t tag name a b c kind
  end

let put s ~t tag name a b c kind = if s.capacity > 0 then put_in s (ring_of s) ~t tag name a b c kind

(* One channel operation's [k] items, numbered from [seq]: the writer's
   ring is found once for all of them. *)
let chan_items s ~recv ~t ~chan ~seq ~k ~task ~busy_ns =
  if s.capacity > 0 then begin
    let r = ring_of s and tag = if recv then Chan_recv else Chan_send in
    for seq = seq to seq + k - 1 do
      put_in s r ~t tag chan seq task busy_ns no_kind
    done
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

(* A slot read while its writer rewrites it mixes two events; [copy]
   discards it, but decoding it must not fail, hence the masked index. *)
let decode k i =
  let name = k.names.(i) and a = k.a.(i) and b = k.b.(i) and c = k.c.(i) in
  let kind : Event.kind =
    match k.tags.(i) with
    | Chan_send -> Chan_send_ev { chan = name; seq = a; task = b; busy_ns = c }
    | Chan_recv -> Chan_recv_ev { chan = name; seq = a; task = b; busy_ns = c }
    | Hook_sample -> Hook_sample { task = a; dt_ns = b }
    | Task_spawn -> Task_spawn { task = a; parent = b; name }
    | Task_done -> Task_done { task = a; busy_ns = b }
    | Steal -> Steal_ev { task = a; from_lane = b; to_lane = c }
    | Region_stop -> Region_stop { region = name }
    | Ctrl_state -> Ctrl_state { region = name; state = states.(a land 3) }
    | Pause -> Pause { region = name }
    | Chan_flush -> Chan_flush { chan = name; dropped = a }
    | Budget_grant -> Budget_grant { region = name; budget = a }
    | Cores_online -> Cores_online { cores = a }
    | Trace_overflow -> Trace_overflow { dropped = a }
    | Span_overflow -> Span_overflow { dropped = a }
    | Boxed -> k.boxed.(i)
  in
  Event.make ~t:k.ts.(i) kind

(* Events a ring retains: its newest [capacity]. *)
let retained s r = Int.min (Atomic.get r.written) s.capacity

let length s =
  Int.min s.capacity (Array.fold_left (fun n r -> n + retained s r) 0 (Atomic.get s.rings))

let dropped s =
  Array.fold_left (fun n r -> n + Atomic.get r.written) 0 (Atomic.get s.rings) - length s

let allocated_slots s =
  Array.fold_left (fun n r -> n + Array.length r.cols.ts) 0 (Atomic.get s.rings)

(* A ring's retained events, oldest first.  Copy the published range, then
   re-read the count [n]: event [e]'s slot is rewritten by event
   [e + capacity], so the events before [n - capacity] were overwritten
   while they were copied, and are discarded.  A ring written by another
   domain may also have event [n] in flight, rewriting the slot of event
   [n - capacity], which is discarded too.  The calling domain's own ring
   has no write in flight: its writers never suspend inside one. *)
let copy s r =
  let n1 = Atomic.get r.written in
  let k = r.cols in
  let lo = Int.max 0 (n1 - s.capacity) in
  let evs = Array.init (n1 - lo) (fun j -> decode k ((lo + j) mod s.capacity)) in
  let n2 = Atomic.get r.written in
  let in_flight = if r.owner = domain_id () then 0 else 1 in
  let first = Int.min n1 (Int.max lo (n2 - s.capacity + in_flight)) in
  if first = lo then evs else Array.sub evs (first - lo) (n1 - first)

(* Merge the rings' copies by time, stable on ring creation order, and keep
   the newest [capacity] events. *)
let merge s parts =
  let all = Array.concat (Array.to_list parts) in
  Array.stable_sort (fun x y -> Int.compare x.Event.t y.Event.t) all;
  let n = Array.length all in
  if n <= s.capacity then all else Array.sub all (n - s.capacity) s.capacity

(* Retained events, oldest first. *)
let to_array s =
  match Atomic.get s.rings with
  | [||] -> [||]
  | [| r |] -> copy s r
  | rs -> merge s (Array.map (copy s) rs)

let events s = Array.to_list (to_array s)
let iter s f = Array.iter f (to_array s)
