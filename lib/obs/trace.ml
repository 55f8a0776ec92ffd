(* The global trace destination.

   One current-sink cell plays the role of the per-process trace agent a
   real runtime would own.  It is an [Atomic] written only by [with_sink],
   so native domains read it safely while a scope is installed.  Emitters
   follow the pattern

     if Trace.enabled () then Trace.emit ~t:(Engine.time eng) (Event.Pause ...)

   so that with tracing disabled the entire cost is one load and one
   physical comparison, and the event payload is never allocated. *)

let current = Atomic.make Sink.null

let enabled () = not (Sink.is_null (Atomic.get current))

let emit ~t kind = Sink.record (Atomic.get current) ~t kind

(* Run [f] with [s] installed, restoring the previous sink on exit (also
   on exception), so nested scopes and tests compose. *)
let with_sink s f =
  let prev = Atomic.exchange current s in
  Fun.protect ~finally:(fun () -> Atomic.set current prev) f
