(** The tail-latency observatory behind [parcae_demo latency].

    Pure analysis over an installed {!Parcae_obs.Span} collector, plus
    optionally a flight-recorder log for exemplar correlation: a
    quantile ladder with per-quantile phase attribution, the K slowest
    requests with their span timelines and the nearest reconfiguration
    or controller decision, and {!Parcae_analysis.Diag} findings
    L100-L107.  The demo binary renders the report and exits 2 on an
    error finding (DESIGN.md section 15).

    Attribution honesty: the per-quantile breakdown never averages
    phases across requests.  It picks the retained request whose total
    is nearest the HDR quantile estimate and reports that request's
    phases, which sum to its total exactly — a concrete exemplar can't
    mislead the way averaged p99 phase shares do. *)

type phase_cut = (Parcae_obs.Span.phase * int) list
(** Per-phase nanoseconds; sums exactly to the owning request's total. *)

type qbreak = {
  qb_q : float;  (** the quantile, e.g. [0.99] *)
  qb_est_ns : int;  (** HDR estimate over every completion *)
  qb_total_ns : int;  (** the exemplar request's exact total *)
  qb_phases : phase_cut;
}

type exemplar = {
  ex_id : int;
  ex_end_ns : int;
  ex_total_ns : int;
  ex_phases : phase_cut;
  ex_stages : (string * int) list;  (** per-stage compute timeline *)
  ex_nearest : string option;
      (** nearest reconfiguration or controller decision relative to
          completion, human-readable; [None] without flight input *)
}

type report = {
  r_completed : int;
  r_drops : int;
  r_double_finishes : int;
  r_mean_ns : float;
  r_max_ns : int;
  r_quantiles : qbreak list;
  r_exemplars : exemplar list;
  r_findings : Parcae_analysis.Diag.t list;
      (** errors: L100 SLO breach, L107 phase-sum invariant violation;
          warnings: L101 queue-dominated p99, L102
          reconfiguration-dominated, L103 channel-wait-dominated, L104
          GC-dominated, L105 span-ring overflow; info: L106 heavy tail
          (p999 > 20x p50). *)
}

val analysis_quantiles : float list
(** The ladder analyzed: p50, p90, p99, p999. *)

val analyze :
  ?flight:Parcae_obs.Flight.entry list ->
  ?slo:int * float ->
  ?top:int ->
  Parcae_obs.Span.t ->
  report
(** Analyze the collector's retained spans.  [flight] supplies
    reconfiguration decisions/overheads for nearest-event correlation;
    [top] (default 5) bounds the slowest-K exemplar list.
    [slo = (target_ns, budget)] adds L100 when more than a fraction
    [budget] of requests took longer than [target_ns], decided as the
    HDR's [(1 - budget)] quantile exceeding [target_ns] (exact unless
    the target lies within the quantile's 1/128 bucket width). *)

val render : report -> string
(** Human-readable report (the non-[--json] output). *)

val to_json : report -> Parcae_obs.Json.t
(** The [--json] / [/latency.json] analyzer payload. *)
