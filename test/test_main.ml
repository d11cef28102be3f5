let () =
  Alcotest.run "sigrec"
    [
      ("u256", Test_u256.suite);
      ("keccak", Test_keccak.suite);
      ("evm-code", Test_evm_code.suite);
      ("machine", Test_machine.suite);
      ("interp", Test_interp.suite);
      ("abi", Test_abi.suite);
      ("decode", Test_decode.suite);
      ("hc", Test_hc.suite);
      ("symex", Test_symex.suite);
      ("solc", Test_solc.suite);
      ("ids", Test_ids.suite);
      ("recover", Test_recover.suite);
      ("foreign", Test_foreign.suite);
      ("robustness", Test_robustness.suite);
      ("aggregate", Test_aggregate.suite);
      ("engine", Test_engine.suite);
      ("static", Test_static.suite);
      ("corpus", Test_corpus.suite);
      ("tools", Test_tools.suite);
      ("input", Test_input.suite);
      ("serve", Test_serve.suite);
      ("json", Test_json.suite);
      ("pool", Test_pool.suite);
      ("trace", Test_trace.suite);
      ("metrics", Test_metrics.suite);
      ("drift", Test_drift.suite);
      ("proptest", Test_prop.suite);
      ("layout", Test_layout.suite);
      ("classify", Test_classify.suite);
    ]
