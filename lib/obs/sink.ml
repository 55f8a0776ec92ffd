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
   allocations and poll points, and the slot claim, the row writes and the
   publish contain neither: a new chunk, which allocates, is added before
   the claim.  So two such threads never interleave inside one write.

   Storage is rows of ints, like OCaml's Runtime_events: a ring holds its
   events in chunks of [chunk_events] rows, one [int array] per chunk, and
   a row is five ints: the time; the kind's tag and its name's id, packed
   into one int; then three int payload fields.  Recording an event stores
   five ints and publishes, so it allocates nothing and makes no pointer
   store.  A name (a channel, task or region) is interned once per sink:
   its id stays valid for the sink's lifetime, so a channel looks its id
   up once per installed sink and its events hash nothing.  The kinds
   whose payload does not fit a row (a second string, a share list or a
   float) keep the caller's [Event.kind] in a per-chunk array, allocated on
   that chunk's first such event; they are all control-plane events.
   Events are decoded back to [Event.t] only when read.

   Chunks are allocated as the ring fills, never past [capacity], and never
   copied: a sink sized for a long run costs little in a short one, and
   filling one leaves no garbage behind. *)

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
  | Boxed  (* the payload is the chunk's kept [Event.kind] *)

(* [tags.(code tag) = tag]. *)
let tags =
  [| Chan_send; Chan_recv; Hook_sample; Task_spawn; Task_done; Steal; Region_stop; Ctrl_state;
     Pause; Chan_flush; Budget_grant; Cores_online; Trace_overflow; Span_overflow; Boxed |]

let code = function
  | Chan_send -> 0
  | Chan_recv -> 1
  | Hook_sample -> 2
  | Task_spawn -> 3
  | Task_done -> 4
  | Steal -> 5
  | Region_stop -> 6
  | Ctrl_state -> 7
  | Pause -> 8
  | Chan_flush -> 9
  | Budget_grant -> 10
  | Cores_online -> 11
  | Trace_overflow -> 12
  | Span_overflow -> 13
  | Boxed -> 14

(* A row's second int: the tag in the low [tag_bits], the name id above. *)
let tag_bits = 4
let tag_mask = (1 lsl tag_bits) - 1
let pack tag id = code tag lor (id lsl tag_bits)
let boxed_code = code Boxed

let chunk_bits = 10
let chunk_events = 1 lsl chunk_bits
let chunk_mask = chunk_events - 1
let row = 5  (* ints per event *)

(* Event [e] of a ring lives in slot [e mod capacity], which is row
   [slot land chunk_mask] of chunk [slot lsr chunk_bits]. *)
type ring = {
  owner : int;  (* id of the writing domain *)
  chunks : int array array;  (* [||] until the ring's events reach it *)
  mutable kinds : Event.kind array array;
      (* per chunk, the boxed kinds by row, [||] until the chunk's first;
         the table itself is [||] until the ring's first *)
  mutable limit : int;  (* slots in the allocated chunks *)
  written : int Atomic.t;  (* events written; set after each write *)
  mutable next : int;  (* slot of the next event: [written mod capacity] *)
  mutable last_t : int;  (* high-water timestamp for the monotone clamp *)
  mutable drops_reg : Metrics.t;  (* the registry [drops] belongs to *)
  mutable drops : Metrics.counter;  (* its [parcae_trace_dropped_total] *)
  mutable drops_epoch : int;  (* [Observed.epoch] when [drops_reg] was last checked *)
}

module Names = Map.Make (String)

(* The interned names: id [i] names [by_id.(i)], for [i] below [count].
   Replaced whole when a name is added; [by_id] is shared by successive
   tables until it is full. *)
type names = { ids : int Names.t; by_id : string array; count : int }

type t = {
  capacity : int;  (* 0 only for [null] *)
  mu : Mutex.t;  (* serializes ring creation, [clear] and new names *)
  rings : ring array Atomic.t;  (* in creation order *)
  names : names Atomic.t;  (* id 0 is "" *)
}

let make capacity =
  {
    capacity;
    mu = Mutex.create ();
    rings = Atomic.make [||];
    names = Atomic.make { ids = Names.singleton "" 0; by_id = Array.make 16 ""; count = 1 };
  }

let null = make 0

let default_capacity = 1 lsl 16

let create ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Sink.create: capacity must be positive";
  make capacity

let is_null s = s == null

(* Fills a chunk's kind array where no boxed kind lives. *)
let no_kind = Event.Cores_online { cores = 0 }

let clear s =
  (* Drop the rings: a cleared sink must release the memory of the events
     it retained, not just forget their indices.  A domain's next write
     creates a new ring, exactly as on first use.  The names stay, so ids
     bound before the clear remain valid. *)
  Mutex.lock s.mu;
  Atomic.set s.rings [||];
  Mutex.unlock s.mu

let add_name s name =
  Mutex.lock s.mu;
  let ns = Atomic.get s.names in
  let id =
    match Names.find name ns.ids with
    | id -> id
    | exception Not_found ->
        let id = ns.count in
        let by_id =
          if id < Array.length ns.by_id then ns.by_id
          else begin
            let a = Array.make (2 * id) "" in
            Array.blit ns.by_id 0 a 0 id;
            a
          end
        in
        by_id.(id) <- name;
        Atomic.set s.names { ids = Names.add name id ns.ids; by_id; count = id + 1 };
        id
  in
  Mutex.unlock s.mu;
  id

(* Lock-free once [name] is known.  The null sink keeps no names. *)
let intern s name =
  match Names.find name (Atomic.get s.names).ids with
  | id -> id
  | exception Not_found -> if s.capacity = 0 then 0 else add_name s name

let named s tag name = pack tag (intern s name)

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
          { owner = me; chunks = Array.make ((s.capacity + chunk_mask) lsr chunk_bits) [||];
            kinds = [||]; limit = 0; written = Atomic.make 0; next = 0; last_t = min_int;
            drops_reg = Metrics.null; drops = { count = 0 }; drops_epoch = -1 }
        in
        Atomic.set s.rings (Array.append rs [| r |]);
        r
      end
    in
    Mutex.unlock s.mu;
    r
  end

(* Allocate the chunk the next event falls in: a ring fills in slot order,
   so it is the chunk at [limit].  Another systhread of the domain may add
   it while this one allocates, so it is installed only if still missing;
   nothing allocates between that check and the stores.  A reader finds
   the chunk because it is stored before the count that covers its
   events. *)
let[@inline never] add_chunk s r =
  let c = r.limit lsr chunk_bits in
  let rows = Array.make (Int.min chunk_events (s.capacity - r.limit) * row) 0 in
  if Array.length r.chunks.(c) = 0 then begin
    r.chunks.(c) <- rows;
    r.limit <- r.limit + (Array.length rows / row)
  end

(* Allocate chunk [c]'s kind array (and the table, on the ring's first
   boxed event), before the claim for the same reason. *)
let[@inline never] add_kinds r c =
  let table = if Array.length r.kinds = 0 then Array.make (Array.length r.chunks) [||] else r.kinds in
  let ks = Array.make (Array.length r.chunks.(c) / row) no_kind in
  if Array.length r.kinds = 0 then r.kinds <- table;
  if Array.length r.kinds.(c) = 0 then r.kinds.(c) <- ks

let has_kinds r c = c < Array.length r.kinds && Array.length r.kinds.(c) > 0

(* Slot [i]'s boxed kind: the event's own, or [no_kind] where a row event
   overwrites a boxed one, so a stale slot keeps nothing alive. *)
let[@inline never] keep_kind r i kind = r.kinds.(i lsr chunk_bits).(i land chunk_mask) <- kind

(* Count one overwrite in the installed registry, through the counter
   the ring keeps bound to it (a dummy while none is installed); the
   binding is checked against the registry only when a scope opened or
   closed since it last was. *)
let[@inline never] bind_drops r e =
  let reg = Metrics.current () in
  if reg != r.drops_reg then begin
    r.drops <-
      Metrics.counter reg "parcae_trace_dropped_total"
        ~help:"Trace events overwritten by a full sink ring";
    r.drops_reg <- reg
  end;
  r.drops_epoch <- e

let count_drop r =
  let e = Atomic.get Observed.epoch in
  if r.drops_epoch <> e then bind_drops r e;
  r.drops.count <- r.drops.count + 1

(* Write one event into [r], the calling domain's ring: the row [t], [p]
   (a packed tag and name id), [a], [b], [c], and [kind] when the tag is
   [Boxed] ([no_kind] otherwise).  When the next event's chunk, or its
   kind array, is missing, it is added and the write starts over, so from
   the claim to the publish nothing allocates.  An overwrite is counted
   after the publish, through the handle the ring keeps bound to the
   registry it was built for. *)
let rec put_in s r ~t p a b c kind =
  let i = r.next in
  if i >= r.limit then begin
    add_chunk s r;
    put_in s r ~t p a b c kind
  end
  else if p land tag_mask = boxed_code && not (has_kinds r (i lsr chunk_bits)) then begin
    add_kinds r (i lsr chunk_bits);
    put_in s r ~t p a b c kind
  end
  else begin
    (* Monotone clamp: a domain's emitters can race its ring with
       timestamps taken a hair apart; the trace contract (and the oracle)
       requires non-decreasing time, so order-of-arrival wins and a late
       reading is clamped up.  On the simulator time is already monotone
       and the clamp never fires. *)
    let t = if t < r.last_t then r.last_t else t in
    r.last_t <- t;
    r.next <- (if i + 1 = s.capacity then 0 else i + 1);
    (* [i] is below [limit], so its chunk is allocated and holds row [j]. *)
    let rows = Array.unsafe_get r.chunks (i lsr chunk_bits) and j = (i land chunk_mask) * row in
    if p land tag_mask = boxed_code || Array.unsafe_get rows (j + 1) land tag_mask = boxed_code then
      keep_kind r i kind;
    Array.unsafe_set rows j t;
    Array.unsafe_set rows (j + 1) p;
    Array.unsafe_set rows (j + 2) a;
    Array.unsafe_set rows (j + 3) b;
    Array.unsafe_set rows (j + 4) c;
    let n = Atomic.get r.written in
    Atomic.set r.written (n + 1);
    if n >= s.capacity then count_drop r
  end

let put s ~t p a b c = if s.capacity > 0 then put_in s (ring_of s) ~t p a b c no_kind

(* One channel operation's [k] items, numbered from [seq]: the writer's
   ring is found once for all of them. *)
let chan_items s ~recv ~t ~chan ~seq ~k ~task ~busy_ns =
  if s.capacity > 0 then begin
    let r = ring_of s and p = pack (if recv then Chan_recv else Chan_send) chan in
    for seq = seq to seq + k - 1 do
      put_in s r ~t p seq task busy_ns no_kind
    done
  end

let hook_sample s ~t ~task ~dt_ns = put s ~t (code Hook_sample) task dt_ns 0
let task_done s ~t ~task ~busy_ns = put s ~t (code Task_done) task busy_ns 0
let steal s ~t ~task ~from_lane ~to_lane = put s ~t (code Steal) task from_lane to_lane

let task_spawn s ~t ~task ~parent ~name =
  if s.capacity > 0 then put s ~t (named s Task_spawn name) task parent 0

let states = [| Event.Init; Event.Calibrate; Event.Optimize; Event.Monitor |]

let record s ~t (kind : Event.kind) =
  if s.capacity > 0 then
    match kind with
    | Chan_send_ev { chan; seq; task; busy_ns } -> put s ~t (named s Chan_send chan) seq task busy_ns
    | Chan_recv_ev { chan; seq; task; busy_ns } -> put s ~t (named s Chan_recv chan) seq task busy_ns
    | Hook_sample { task; dt_ns } -> hook_sample s ~t ~task ~dt_ns
    | Task_spawn { task; parent; name } -> task_spawn s ~t ~task ~parent ~name
    | Task_done { task; busy_ns } -> task_done s ~t ~task ~busy_ns
    | Steal_ev { task; from_lane; to_lane } -> steal s ~t ~task ~from_lane ~to_lane
    | Region_stop { region } -> put s ~t (named s Region_stop region) 0 0 0
    | Ctrl_state { region; state } ->
        put s ~t (named s Ctrl_state region) (Event.ctrl_state_code state) 0 0
    | Pause { region } -> put s ~t (named s Pause region) 0 0 0
    | Chan_flush { chan; dropped } -> put s ~t (named s Chan_flush chan) dropped 0 0
    | Budget_grant { region; budget } -> put s ~t (named s Budget_grant region) budget 0 0
    | Cores_online { cores } -> put s ~t (code Cores_online) cores 0 0
    | Trace_overflow { dropped } -> put s ~t (code Trace_overflow) dropped 0 0
    | Span_overflow { dropped } -> put s ~t (code Span_overflow) dropped 0 0
    | Region_start _ | Dop_change _ | Resume _ | Daemon_repartition _ | Feature_sample _ ->
        put_in s (ring_of s) ~t boxed_code 0 0 0 kind

(* A slot read while its writer rewrites it mixes two events; [copy]
   discards it, but decoding it must not fail: the tag, the name id and
   the kind array are checked, not trusted. *)
let decode names r slot =
  let rows = r.chunks.(slot lsr chunk_bits) and o = slot land chunk_mask in
  let j = o * row in
  let p = rows.(j + 1) and a = rows.(j + 2) and b = rows.(j + 3) and c = rows.(j + 4) in
  let id = p lsr tag_bits and code = p land tag_mask in
  let name = if id < names.count then names.by_id.(id) else "" in
  let kind : Event.kind =
    match if code < Array.length tags then tags.(code) else Boxed with
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
    | Boxed ->
        let c = slot lsr chunk_bits and ks = r.kinds in
        if c < Array.length ks && o < Array.length ks.(c) then ks.(c).(o) else no_kind
  in
  Event.make ~t:rows.(j) kind

(* Events a ring retains: its newest [capacity]. *)
let retained s r = Int.min (Atomic.get r.written) s.capacity

let length s =
  Int.min s.capacity (Array.fold_left (fun n r -> n + retained s r) 0 (Atomic.get s.rings))

let dropped s =
  Array.fold_left (fun n r -> n + Atomic.get r.written) 0 (Atomic.get s.rings) - length s

let allocated_slots s = Array.fold_left (fun n r -> n + r.limit) 0 (Atomic.get s.rings)

(* A ring's retained events, oldest first.  Copy the published range, then
   re-read the count [n]: event [e]'s slot is rewritten by event
   [e + capacity], so the events before [n - capacity] were overwritten
   while they were copied, and are discarded.  A ring written by another
   domain may also have event [n] in flight, rewriting the slot of event
   [n - capacity], which is discarded too.  The calling domain's own ring
   has no write in flight: its writers never suspend inside one.  Every
   chunk and name a published event uses was stored before its count, so
   the names are read after it. *)
let copy s r =
  let n1 = Atomic.get r.written in
  let names = Atomic.get s.names in
  let lo = Int.max 0 (n1 - s.capacity) in
  let evs = Array.init (n1 - lo) (fun j -> decode names r ((lo + j) mod s.capacity)) in
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
