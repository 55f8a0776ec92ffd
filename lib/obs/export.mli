(** Trace exporters: JSONL (canonical, invertible) and Chrome trace_event
    JSON (loadable in chrome://tracing and Perfetto).

    Unit convention: every timestamp and duration inside the tree is
    integer nanoseconds (virtual on the simulator, wall-clock on the
    native backend).  Exporters convert only at the edge: JSONL keeps raw
    ns, the Chrome format requires microseconds ({!us_of_ns}), and the
    Prometheus exposition in {!Metrics} keeps ns in [_ns]-suffixed
    series. *)

val jsonl : Event.t list -> string
(** One compact JSON object per line. *)

val jsonl_to_buf : Buffer.t -> Event.t list -> unit

val parse_jsonl : string -> Event.t list
(** Exact inverse of {!jsonl}; blank lines are skipped.
    @raise Json.Parse_error on malformed records. *)

val chrome : Event.t list -> string
(** Chrome trace_event object format: regions become named threads of one
    ["parcae"] process, with region-lifetime and pause duration slices;
    controller state, DoP, budget, cores, and Decima samples become
    counter tracks; the remaining protocol events become instants with
    their payload in [args]. *)

val us_of_ns : int -> float
(** The ns-to-us conversion the Chrome exporter applies to every [ts]:
    [us_of_ns 1_234_567 = 1234.567]. *)

val events_of_sink : Sink.t -> Event.t list
(** The sink's retained events, prepended with a {!Event.Trace_overflow}
    marker when the ring overwrote anything — exporting a saturated sink
    never hides the loss. *)

val jsonl_of_sink : Sink.t -> string
(** {!jsonl} of {!events_of_sink}. *)

val chrome_of_sink : Sink.t -> string
(** {!chrome} of {!events_of_sink}. *)

val write_file : string -> string -> unit
(** [write_file path contents] — plain file dump helper for the CLI. *)
