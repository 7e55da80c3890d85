(** Test entry point: aggregates every suite. *)

let () =
  Alcotest.run "bamboo"
    (Test_support.tests @ Test_graph.tests @ Test_frontend.tests @ Test_interp.tests
   @ Test_ir.tests @ Test_analysis.tests @ Test_check.tests @ Test_runtime.tests @ Test_pset.tests
   @ Test_sim.tests @ Test_layout.tests @ Test_synth.tests
   @ Test_benchmarks.tests @ Test_experiments.tests @ Test_exec.tests
   @ Test_interp_equiv.tests @ Test_serve.tests)
