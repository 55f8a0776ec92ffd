(** Throughput Balance with Fusion (the paper's Section 6.3.2), the best
    mechanism for "maximize throughput with N threads" (Table 8.5).

    Assigns each parallel task a DoP proportional to its measured
    per-instance execution time under the global constraint sum(dP) <= N
    (the allocation of Figure 5.9).  If the per-stage execution times are
    badly unbalanced, switches the region to the registered *fused* scheme
    in which the parallel stages are collapsed into a single parallel task
    (Figure 6.2(b)), avoiding the inefficiency of an unbalanced pipeline
    and the inter-stage channel hops. *)

val proportional_dops :
  Parcae_core.Task.par_descriptor -> Parcae_runtime.Decima.t -> int -> int array
(** DoP vector proportional to per-task execution times over [navail]
    threads (sequential tasks stay at 1). *)

val imbalance_of : Parcae_core.Task.par_descriptor -> Parcae_runtime.Decima.t -> float
(** (max - min) / max of per-stage execution times across parallel tasks;
    0 when balanced. *)

val make : ?fused_choice:int -> ?warmup:int -> unit -> Parcae_runtime.Morta.mechanism
(** [fused_choice] is the scheme index with collapsed stages, chosen when
    {!imbalance_of} exceeds 0.5; [warmup] the instances required per task
    before acting (default 30). *)
