(* Test runner aggregating all suites. *)
let () =
  Alcotest.run "parcae"
    [
      ("util", Test_util.suite);
      ("sim", Test_sim.suite);
      ("core", Test_core.suite);
      ("runtime", Test_runtime.suite);
      ("workloads", Test_workloads.suite);
      ("nona", Test_nona.suite);
      ("controller", Test_controller.suite);
      ("properties", Test_properties.suite);
      ("mechanisms", Test_mechanisms.suite);
      ("doacross", Test_doacross.suite);
      ("resize", Test_resize.suite);
      ("failures", Test_failures.suite);
      ("parser", Test_parser.suite);
      ("analysis", Test_analysis.suite);
      ("trace", Test_trace.suite);
      ("sink", Test_sink.suite);
      ("trace-oracle", Test_trace_oracle.suite);
      ("metrics", Test_metrics.suite);
      ("flight", Test_flight.suite);
      ("sched", Test_sched.suite);
      ("schedule", Test_schedule.suite);
      ("native", Test_native.suite);
      ("pool", Test_pool.suite);
      ("timeline", Test_timeline.suite);
      ("sanitize", Test_sanitize.suite);
      ("span", Test_span.suite);
      ("claims", Test_claims.suite);
    ]
