(* The global trace destination.

   One current-sink cell plays the role of the per-process trace agent a
   real runtime would own.  It is an [Atomic] written only by [with_sink],
   so native domains read it safely while a scope is installed.  Emitters
   follow the pattern

     if Trace.enabled () then Trace.emit ~t:(Engine.time eng) (Event.Pause ...)

   so that with tracing disabled the entire cost is a bit test of
   [Observed.word], and the event payload is never allocated.  The
   per-operation kinds have typed emitters that take the payload's fields
   and record them without building an event at all:

     if Trace.enabled () then Trace.task_done ~t ~task ~busy_ns *)

let current = Atomic.make Sink.null

let enabled () = Atomic.get Observed.word land Observed.trace <> 0

let emit ~t kind = Sink.record (Atomic.get current) ~t kind

let hook_sample ~t ~task ~dt_ns = Sink.hook_sample (Atomic.get current) ~t ~task ~dt_ns

let task_spawn ~t ~task ~parent ~name =
  Sink.task_spawn (Atomic.get current) ~t ~task ~parent ~name

let task_done ~t ~task ~busy_ns = Sink.task_done (Atomic.get current) ~t ~task ~busy_ns

let steal ~t ~task ~from_lane ~to_lane =
  Sink.steal (Atomic.get current) ~t ~task ~from_lane ~to_lane

(* Run [f] with [s] installed, restoring the previous sink on exit (also
   on exception), so nested scopes and tests compose. *)
let with_sink s f =
  Observed.install current Observed.trace ~live:(fun s -> not (Sink.is_null s)) s f
