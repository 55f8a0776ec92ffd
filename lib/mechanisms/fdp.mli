(** Feedback-Directed Pipelining (Suleman et al.), re-implemented on the
    Parcae API (the paper's Section 6.3.2).

    Proportional closed-loop control: starting from one thread per task,
    repeatedly grant a thread to the LIMITER (the parallel task with the
    lowest service capacity dop / exec_time), judge the grant on a clean
    measurement window, keep it if throughput did not regress and
    otherwise revert and try the next limiter; converge when no candidate
    improves.  When no free threads remain, reclaim one from the
    highest-capacity task. *)

val make : unit -> Parcae_runtime.Morta.mechanism
(** A grant is reverted when throughput falls below 0.98 of the
    previous window's; 8 consecutive non-improving probes converge. *)
