#include <memory>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "tuner/candidate_gen.h"
#include "tuner/relaxation.h"
#include "workload/schema_util.h"

namespace bati {
namespace {

TEST(Relaxation, RespectsBudgetAndCardinality) {
  for (int64_t budget : {0, 10, 150, 800}) {
    const WorkloadBundle& bundle = LoadBundle("tpch");
    RunSpec spec;
    spec.workload = "tpch";
    spec.algorithm = "relaxation";
    spec.budget = budget;
    spec.max_indexes = 5;
    RunOutcome outcome = RunOnce(bundle, spec);
    EXPECT_LE(outcome.calls_used, budget);
    EXPECT_LE(outcome.config_size, 5u);
  }
}

TEST(Relaxation, FindsImprovementOnTpch) {
  const WorkloadBundle& bundle = LoadBundle("tpch");
  RunSpec spec;
  spec.workload = "tpch";
  spec.algorithm = "relaxation";
  spec.budget = 500;
  spec.max_indexes = 10;
  RunOutcome outcome = RunOnce(bundle, spec);
  EXPECT_GT(outcome.true_improvement, 15.0);
}

TEST(Relaxation, HonorsStorageConstraint) {
  const WorkloadBundle& bundle = LoadBundle("tpch");
  const Database& db = *bundle.workload.database;
  std::vector<double> sizes;
  for (const Index& ix : bundle.candidates.indexes) {
    sizes.push_back(ix.SizeBytes(db));
  }
  std::nth_element(sizes.begin(), sizes.begin() + sizes.size() / 2,
                   sizes.end());
  double cap = 2.0 * sizes[sizes.size() / 2];

  TuningContext ctx;
  ctx.workload = &bundle.workload;
  ctx.candidates = &bundle.candidates;
  ctx.constraints.max_indexes = 10;
  ctx.constraints.max_storage_bytes = cap;
  CostService service(bundle.optimizer.get(), &bundle.workload,
                      &bundle.candidates.indexes, 400);
  RelaxationTuner tuner(ctx);
  TuningResult result = tuner.Tune(service);
  double used = 0.0;
  for (size_t pos : result.best_config.ToIndices()) {
    used += bundle.candidates.indexes[pos].SizeBytes(db);
  }
  EXPECT_LE(used, cap + 1e-6);
}

TEST(Relaxation, MergesReduceCountWhenUniverseHasMergedForms) {
  // Q1 wants t(a) INCLUDE(c), Q2 wants t(a, b) INCLUDE(d). The hand-made
  // universe holds both and their merged form t(a, b) INCLUDE(c, d), which
  // no query's provenance names, so only a merge transformation can reach
  // it. Under K = 1 the seed {t(a)+c, t(a,b)+d} must relax into the merge,
  // which serves both queries.
  auto db = std::make_shared<Database>("merge");
  Table t("t", 1000000);
  t.AddColumn(schema_util::IntCol("a", 1000, 0, 1000));
  t.AddColumn(schema_util::IntCol("b", 1000, 0, 1000));
  t.AddColumn(schema_util::IntCol("c", 1000, 0, 1000));
  t.AddColumn(schema_util::IntCol("d", 1000, 0, 1000));
  BATI_CHECK_OK(db->AddTable(std::move(t)).status());
  const Workload w = schema_util::BindAll(
      "merge", db,
      {"SELECT c FROM t WHERE a = 5",
       "SELECT d FROM t WHERE a = 7 AND b = 3"},
      {"q1", "q2"});
  Index narrow;
  narrow.table_id = 0;
  narrow.key_columns = {0};
  narrow.include_columns = {2};
  Index wide;
  wide.table_id = 0;
  wide.key_columns = {0, 1};
  wide.include_columns = {3};
  const std::optional<Index> merged = MergeIndexes(narrow, wide);
  ASSERT_TRUE(merged.has_value());
  ASSERT_EQ(merged->key_columns, (std::vector<int>{0, 1}));
  ASSERT_EQ(merged->include_columns, (std::vector<int>{2, 3}));
  CandidateSet candidates;
  candidates.indexes = {narrow, wide, *merged};
  candidates.per_query = {{0}, {1}};
  for (const Index& ix : candidates.indexes) {
    candidates.size_bytes.push_back(ix.SizeBytes(*db));
  }

  WhatIfOptimizer optimizer(db);
  TuningContext ctx;
  ctx.workload = &w;
  ctx.candidates = &candidates;
  ctx.constraints.max_indexes = 1;
  CostService service(&optimizer, &w, &candidates.indexes, 50);
  RelaxationTuner tuner(ctx);
  TuningResult result = tuner.Tune(service);
  EXPECT_EQ(result.best_config.ToIndices(), (std::vector<size_t>{2}));
  EXPECT_GT(service.TrueImprovement(result.best_config), 50.0);
}

TEST(Relaxation, AnytimeEvenWithTinyBudget) {
  // With almost no budget the seed phase sees few singletons; the result
  // must still be feasible and harmless.
  const WorkloadBundle& bundle = LoadBundle("toy");
  RunSpec spec;
  spec.workload = "toy";
  spec.algorithm = "relaxation";
  spec.budget = 3;
  spec.max_indexes = 1;
  RunOutcome outcome = RunOnce(bundle, spec);
  EXPECT_LE(outcome.config_size, 1u);
  EXPECT_GE(outcome.true_improvement, -1e-9);
}

}  // namespace
}  // namespace bati
