let () =
  Alcotest.run "mrdb"
    [
      ("util", Test_util.suite);
      ("memsim", Test_memsim.suite);
      ("tracefast", Test_tracefast.suite);
      ("storage", Test_storage.suite);
      ("indexes", Test_indexes.suite);
      ("encodings", Test_encodings.suite);
      ("compress", Test_compress.suite);
      ("csv", Test_csv.suite);
      ("relalg", Test_relalg.suite);
      ("sampling", Test_sampling.suite);
      ("engines", Test_engines.suite);
      ("parallel", Test_parallel.suite);
      ("c_emitter", Test_c_emitter.suite);
      ("compiled", Test_compiled.suite);
      ("update", Test_update.suite);
      ("costmodel", Test_costmodel.suite);
      ("model_validation", Test_model_validation.suite);
      ("layoutopt", Test_layoutopt.suite);
      ("advisor", Test_advisor.suite);
      ("workloads", Test_workloads.suite);
      ("edge_cases", Test_edge_cases.suite);
      ("robustness", Test_robustness.suite);
      ("recovery", Test_recovery.suite);
      ("txn", Test_txn.suite);
      ("shard", Test_shard.suite);
      ("fuzz_corpus", Fuzz_corpus.suite);
      ("db", Test_db.suite);
      ("obs", Test_obs.suite);
    ]
