(* A unit of server work: one video to transcode, one query to answer...
   Requests carry their arrival time so completion code can compute the
   end-user response time (Equation 2.1), and a size scale factor so
   workloads have realistic per-request variation.

   Every field is mutable so records can be recycled through a striped
   object pool (DESIGN.md section 14): the load generators [alloc] from
   the pool and the pipeline tails [free] back into it, so steady-state
   serving reuses the same records instead of taxing the allocator per
   request.  [create] still heap-allocates for callers outside the serve
   path (tests, examples); freeing such a record simply donates it to the
   pool. *)

module Pool = Parcae_core.Pool
module Span = Parcae_obs.Span
module Observed = Parcae_obs.Observed

type t = {
  mutable id : int;
  mutable arrival_ns : int;  (* virtual time the request entered the work queue *)
  mutable scale : float;  (* per-request work multiplier, ~1.0 *)
  mutable scale_fp : int;  (* [scale] in 16.16 fixed point, kept in sync *)
  mutable start_ns : int;  (* time processing began; -1 until dequeued *)
  mutable span : Span.span;  (* per-request latency span; [Span.null] until traced *)
}

(* [scale] mirrored into 16.16 fixed point once at construction, so the
   per-stage cost scaling on the serve path is pure int arithmetic — a
   float field read from a mixed record boxes on every access. *)
let fp_of_scale scale = int_of_float ((scale *. 65536.0) +. 0.5)

let create ~id ~arrival_ns ~scale =
  let span = Span.make_span () in
  Span.reset span ~id ~arrival_ns;
  { id; arrival_ns; scale; scale_fp = fp_of_scale scale; start_ns = -1; span }

(* Pool constructor: grafts the shared [Span.null] so an untraced serve
   path's pool misses stay span-free; [alloc] upgrades to a private span
   the first time the record is handed out with a collector installed. *)
let fresh () =
  { id = -1; arrival_ns = 0; scale = 1.0; scale_fp = 65536; start_ns = -1; span = Span.null }

(* One process-wide pool: requests are plain memory, so sharing across
   engines/apps is safe and keeps the pool warm between runs. *)
let pool = lazy (Pool.create ~name:"request" ~dummy:(fresh ()) fresh)

(* Pool-backed construction: allocation-free once the freelists are warm. *)
let alloc ~id ~arrival_ns ~scale =
  let r = Pool.acquire (Lazy.force pool) in
  r.id <- id;
  r.arrival_ns <- arrival_ns;
  r.scale <- scale;
  r.scale_fp <- fp_of_scale scale;
  r.start_ns <- -1;
  (* Re-arm the span only under a collector: the hooks all no-op while
     tracing is disabled, so the shared null span must never be mutated
     and stale tokens from a previous traced life cannot fire.  The
     upgrade from [Span.null] is the one-time cost of enabling tracing
     on a warm pool (and the ordinary record-construction cost of a
     traced pool miss). *)
  if Atomic.get Observed.word land Observed.span <> 0 then begin
    if r.span == Span.null then r.span <- Span.make_span ();
    Span.reset r.span ~id ~arrival_ns
  end;
  r

(* Return a completed request to the pool.  The caller must hold the only
   live reference (the serve-path tails do: metrics copy what they need
   before freeing). *)
let free r = Pool.release (Lazy.force pool) r

(* Stamp the moment processing begins (idempotent). *)
let note_start t ~now = if t.start_ns < 0 then t.start_ns <- now

(* Scale an integer cost by the request's size factor. *)
let cost t base = int_of_float (Float.round (float_of_int base *. t.scale))
