let () =
  Alcotest.run "tdat"
    [
      ("timerange", Test_timerange.suite);
      ("stats", Test_stats.suite);
      ("pkt", Test_pkt.suite);
      ("ingest", Test_ingest.suite);
      ("bgp", Test_bgp.suite);
      ("netsim", Test_netsim.suite);
      ("tcpsim", Test_tcpsim.suite);
      ("bgpsim", Test_bgpsim.suite);
      ("analyzer", Test_analyzer.suite);
      ("parallel", Test_parallel.suite);
      ("detectors", Test_detectors.suite);
      ("fleet", Test_fleet.suite);
      ("properties", Test_properties.suite);
      ("equiv", Test_equiv.suite);
      ("audit", Test_audit.suite);
      ("lint", Test_lint.suite);
      ("study", Test_study.suite);
      ("serve", Test_serve.suite);
      ("obs", Test_obs.suite);
      ("misc", Test_misc.suite);
      ("scaling", Test_scaling.suite);
    ]
