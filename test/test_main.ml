let () =
  Alcotest.run "mda_repro"
    (List.concat
       [ Test_util.suite;
         Test_guest.suite;
         Test_host.suite;
         Test_machine.suite;
         Test_interp.suite;
         Test_runtime.suite;
         Test_analysis.suite;
         Test_validator.suite;
         Test_peephole.suite;
         Test_bt_units.suite;
         Test_fastpath.suite;
         Test_bt.suite;
         Test_asm.suite;
         Test_workloads.suite;
         Test_equiv.suite;
         Test_differential.suite;
         Test_pool.suite;
         Test_cache.suite;
         Test_fault.suite;
         Test_obs.suite;
         Test_golden.suite;
         Test_cli.suite;
         Test_registry.suite;
         Test_server.suite;
         Test_models.suite;
         Test_harness.suite ])
