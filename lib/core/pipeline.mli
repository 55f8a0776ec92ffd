(** Pipeline-stage helpers implementing the pause/flush protocol of the
    paper's Section 4.6 for API-level (hand-written) parallelizations.

    Stages communicate through shared channels carrying work items or one
    of two sentinels: [Flush] (a pause is in progress; stripped on reset)
    and [Eos] (end of stream; persists across reconfigurations).  A lane
    that consumes a sentinel puts it back for its sibling lanes; the
    {e last} lane of a stage to exit forwards the sentinel downstream,
    which guarantees every in-flight item precedes the sentinel — the
    ordering hazard of the paper's Section 7.2.2 cannot occur.

    {!drain_stage} builds every consuming stage; [~max_batch:1] makes it
    the per-item stage, one [recv] and one body call per invocation. *)

type 'a msg =
  | Item of 'a
  | Flush  (** pause sentinel *)
  | Eos  (** end of stream *)

val send : 'a msg Parcae_platform.Chan.t -> 'a -> unit
(** Send a work item. *)

val load : 'a Parcae_platform.Chan.t -> unit -> float
(** Queue occupancy as a load callback. *)

val reset_channel : 'a msg Parcae_platform.Chan.t -> unit
(** Strip pause sentinels, keeping work items and any [Eos]; an [Eos]
    with items behind it moves behind them, so no item is stranded. *)

val inject_flush : 'a msg Parcae_platform.Chan.t -> unit
(** Inject a pause sentinel (typically from a region's [on_pause]
    callback, to wake lanes blocked on an empty work queue).  Sentinel
    sends bypass channel capacity so the protocol can never deadlock. *)

val inject_eos : 'a msg Parcae_platform.Chan.t -> unit
(** Inject an end-of-stream sentinel (the load generator does this after
    the last request). *)

type sentinel = S_flush | S_eos

val forward_to : 'a msg Parcae_platform.Chan.t -> sentinel -> unit
(** Forward a sentinel into a downstream channel. *)

type 'a stage_handle = {
  task : Task.t;
  reset : unit -> unit;  (** clear exit bookkeeping between pause/resume *)
}

val drain_stage :
  ?ttype:Task.ttype ->
  ?poll:bool ->
  ?max_batch:int ->
  ?load:(unit -> float) ->
  ?init:(unit -> unit) ->
  ?nested:Task.nested_choice list ->
  ?next:'a msg Parcae_platform.Chan.t ->
  ?span_of:('a -> Parcae_obs.Span.span) ->
  ?span_clock:(unit -> int) ->
  name:string ->
  input:'a msg Parcae_platform.Chan.t ->
  forward:(sentinel -> unit) ->
  (Task.ctx -> 'a -> Task_status.t) ->
  'a stage_handle
(** A pipeline stage: receives items from [input], processes them with
    the body, exits on a sentinel.  [poll] makes the stage check
    [get_status] before blocking on input — master stages use this.
    [forward] is invoked once, by the last exiting lane, to propagate the
    sentinel downstream (pass [fun _ -> ()] for sinks).

    Each invocation claims up to [max_batch] (default 4) messages with
    one [recv_batch] — never more than this lane's share of the input's
    current depth (depth / DoP), and at least one — so batching
    cannot starve sibling lanes and light load degenerates to per-item
    behaviour — runs the body on each item, and (when [next] is given)
    forwards the processed items downstream with one [send_batch],
    reusing the received list cells and [Item] boxes so the stage
    boundary allocates nothing on the fast path.  The body must not send
    the item itself when [next] is used.  Reports the processed count
    through [ctx.items] so Decima still counts per-item instances.  A
    sentinel or a pause cuts the claim: the unprocessed suffix is
    returned to the input (surviving reconfiguration), the processed
    prefix is flushed downstream before the exit is counted, and the
    sentinel protocol proceeds as for a single item.  With
    [~max_batch:1] every claim is one [recv] of one message.

    When both [span_of] (item → its request span) and [span_clock] (a
    non-allocating monotonic-ns read, typically [fun () -> Engine.time
    eng]) are given, each body call is bracketed with
    {!Parcae_obs.Span.enter}/{!Parcae_obs.Span.exit} so per-stage compute
    and inter-stage waits land on the request's span; with no collector
    installed this costs one atomic load per item.
    @raise Invalid_argument if [max_batch < 1]. *)

val source :
  ?ttype:Task.ttype ->
  ?load:(unit -> float) ->
  ?init:(unit -> unit) ->
  name:string ->
  forward:(sentinel -> unit) ->
  (Task.ctx -> Task_status.t) ->
  'a stage_handle
(** A source task: generates work with no input channel; the body returns
    [Iterating] after emitting an item and [Complete] at end of stream. *)

val make_reset :
  stages:'a stage_handle list -> channels:'b msg Parcae_platform.Chan.t list -> unit -> unit
(** Combine stage resets and channel sentinel-stripping into a region
    [on_reset] callback. *)
