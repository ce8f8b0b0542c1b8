// Edge-case and failure-injection tests across modules: degenerate
// workloads, exhausted budgets, universe mismatches, and empty inputs.

#include <memory>

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "mcts/mcts_tuner.h"
#include <numeric>

#include "tuner/greedy.h"
#include "workload/schema_util.h"

namespace bati {
namespace {

using schema_util::IntCol;

// A workload whose only query has no indexable columns at all.
Workload UnindexableWorkload() {
  auto db = std::make_shared<Database>("plain");
  Table t("t", 1000);
  t.AddColumn(IntCol("x", 100, 0, 100));
  BATI_CHECK_OK(db->AddTable(std::move(t)).status());
  return schema_util::BindAll("plain", db, {"SELECT COUNT(*) FROM t"},
                              {"q1"});
}

TEST(EdgeCases, WorkloadWithoutIndexableColumns) {
  Workload w = UnindexableWorkload();
  CandidateSet candidates = GenerateCandidates(w);
  EXPECT_EQ(candidates.size(), 0);
  WhatIfOptimizer optimizer(w.database);
  CostService service(&optimizer, &w, &candidates.indexes, 10);
  TuningContext ctx;
  ctx.workload = &w;
  ctx.candidates = &candidates;
  ctx.constraints.max_indexes = 5;
  for (const char* algo : {"vanilla-greedy", "two-phase-greedy", "mcts",
                           "dta", "relaxation"}) {
    auto tuner = MakeTuner(algo, ctx, 1);
    TuningResult result = tuner->Tune(service);
    EXPECT_TRUE(result.best_config.empty()) << algo;
    EXPECT_DOUBLE_EQ(result.derived_improvement, 0.0) << algo;
  }
}

TEST(EdgeCases, SingleQuerySingleCandidate) {
  auto db = std::make_shared<Database>("tiny");
  Table t("t", 1000000);
  t.AddColumn(IntCol("k", 1000, 0, 1000));
  BATI_CHECK_OK(db->AddTable(std::move(t)).status());
  Workload w = schema_util::BindAll(
      "tiny", db, {"SELECT k FROM t WHERE k = 7"}, {"q1"});
  CandidateSet candidates = GenerateCandidates(w);
  ASSERT_GE(candidates.size(), 1);
  WhatIfOptimizer optimizer(db);
  CostService service(&optimizer, &w, &candidates.indexes, 5);
  TuningContext ctx;
  ctx.workload = &w;
  ctx.candidates = &candidates;
  ctx.constraints.max_indexes = 1;
  MctsTuner tuner(ctx);
  TuningResult result = tuner.Tune(service);
  EXPECT_EQ(result.best_config.count(), 1u);
  EXPECT_GT(service.TrueImprovement(result.best_config), 50.0);
}

TEST(EdgeCases, CardinalityZeroMeansNoIndexes) {
  const WorkloadBundle& bundle = LoadBundle("tpch");
  RunSpec spec;
  spec.workload = "tpch";
  spec.algorithm = "mcts";
  spec.budget = 50;
  spec.max_indexes = 0;
  RunOutcome outcome = RunOnce(bundle, spec);
  EXPECT_EQ(outcome.config_size, 0u);
  EXPECT_NEAR(outcome.true_improvement, 0.0, 1e-9);
}

TEST(EdgeCases, ImpossiblyTightStorageYieldsEmptyConfig) {
  const WorkloadBundle& bundle = LoadBundle("tpch");
  RunSpec spec;
  spec.workload = "tpch";
  spec.algorithm = "mcts";
  spec.budget = 100;
  spec.max_indexes = 10;
  spec.max_storage_bytes = 1.0;  // one byte: nothing fits
  RunOutcome outcome = RunOnce(bundle, spec);
  EXPECT_EQ(outcome.config_size, 0u);
}

TEST(EdgeCases, MaterializeRejectsWrongUniverse) {
  const WorkloadBundle& bundle = LoadBundle("toy");
  CostService service(bundle.optimizer.get(), &bundle.workload,
                      &bundle.candidates.indexes, 5);
  Config wrong(static_cast<size_t>(bundle.candidates.size()) + 3);
  EXPECT_DEATH(service.Materialize(wrong), "CHECK failed");
}

TEST(EdgeCases, BitsetCrossUniverseOpsRejected) {
  DynamicBitset a(10), b(11);
  EXPECT_DEATH(a | b, "CHECK failed");
  EXPECT_DEATH(a.IsSubsetOf(b), "CHECK failed");
  EXPECT_DEATH(a.test(10), "CHECK failed");
}

TEST(EdgeCases, GreedyFromNonEmptyInitialConfig) {
  const WorkloadBundle& bundle = LoadBundle("tpch");
  TuningContext ctx;
  ctx.workload = &bundle.workload;
  ctx.candidates = &bundle.candidates;
  ctx.constraints.max_indexes = 3;
  CostService service(bundle.optimizer.get(), &bundle.workload,
                      &bundle.candidates.indexes, 500);
  Config initial = service.EmptyConfig();
  initial.set(0);
  std::vector<int> queries(static_cast<size_t>(bundle.workload.num_queries()));
  std::iota(queries.begin(), queries.end(), 0);
  std::vector<int> all(static_cast<size_t>(bundle.candidates.size()));
  std::iota(all.begin(), all.end(), 0);
  Config result = GreedyEnumerate(ctx, service, queries, all, initial,
                                  AllowAllWhatIf());
  EXPECT_TRUE(initial.IsSubsetOf(result));
  EXPECT_LE(result.count(), 3u);
}

TEST(EdgeCases, BudgetOneStillTerminatesEverywhere) {
  for (const char* algo :
       {"vanilla-greedy", "two-phase-greedy", "autoadmin-greedy",
        "dba-bandits", "no-dba", "dta", "mcts", "relaxation"}) {
    const WorkloadBundle& bundle = LoadBundle("toy");
    RunSpec spec;
    spec.workload = "toy";
    spec.algorithm = algo;
    spec.budget = 1;
    spec.max_indexes = 2;
    RunOutcome outcome = RunOnce(bundle, spec);
    EXPECT_LE(outcome.calls_used, 1) << algo;
  }
}

TEST(EdgeCases, DuplicateIndicesInFromIndices) {
  DynamicBitset b = DynamicBitset::FromIndices(10, {3, 3, 3});
  EXPECT_EQ(b.count(), 1u);
}

TEST(EdgeCases, HugeUniverseBitsetOps) {
  const size_t n = 10000;
  DynamicBitset a(n), b(n);
  for (size_t i = 0; i < n; i += 7) a.set(i);
  for (size_t i = 0; i < n; i += 11) b.set(i);
  DynamicBitset u = a | b;
  EXPECT_GE(u.count(), a.count());
  EXPECT_TRUE(a.IsSubsetOf(u));
  EXPECT_TRUE(b.IsSubsetOf(u));
}

}  // namespace
}  // namespace bati
