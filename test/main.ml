let () =
  Alcotest.run "gdprs"
    [
      ("term", Suite_term.tests);
      ("unify", Suite_unify.tests);
      ("arith", Suite_arith.tests);
      ("database", Suite_database.tests);
      ("reader", Suite_reader.tests);
      ("solve", Suite_solve.tests);
      ("obs", Suite_obs.tests);
      ("engine-props", Suite_engine_props.tests);
      ("provenance", Suite_provenance.tests);
      ("magic", Suite_magic.tests);
      ("incremental", Suite_incremental.tests);
      ("snapshot", Suite_snapshot.tests);
      ("fuzzy", Suite_fuzzy.tests);
      ("temporal", Suite_temporal.tests);
      ("space", Suite_space.tests);
      ("spatial-index", Suite_spatial_index.tests);
      ("domain", Suite_domain.tests);
      ("gfact", Suite_gfact.tests);
      ("formula", Suite_formula.tests);
      ("spec", Suite_spec.tests);
      ("query", Suite_query.tests);
      ("meta-spatial", Suite_meta_spatial.tests);
      ("meta-temporal", Suite_meta_temporal.tests);
      ("meta-fuzzy", Suite_meta_fuzzy.tests);
      ("lang", Suite_lang.tests);
      ("render", Suite_render.tests);
      ("workload", Suite_workload.tests);
      ("pretty", Suite_pretty.tests);
      ("lint", Suite_lint.tests);
      ("explain", Suite_explain.tests);
      ("compare", Suite_compare.tests);
    ]
