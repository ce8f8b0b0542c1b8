// Parameterized property sweeps: invariants that must hold for every
// (workload, algorithm) combination — budget compliance, constraint
// compliance, layout validity, and derivation consistency.

#include <tuple>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "harness/experiment.h"

namespace bati {
namespace {

using SweepParam = std::tuple<const char*, const char*>;  // workload, algo

class TunerSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(TunerSweep, BudgetConstraintsAndLayoutInvariants) {
  const auto& [workload, algo] = GetParam();
  const WorkloadBundle& bundle = LoadBundle(workload);
  const int64_t budget = 150;
  const int k = 5;

  TuningContext ctx;
  ctx.workload = &bundle.workload;
  ctx.candidates = &bundle.candidates;
  ctx.constraints.max_indexes = k;
  CostService service(bundle.optimizer.get(), &bundle.workload,
                      &bundle.candidates.indexes, budget);
  auto tuner = MakeTuner(algo, ctx, /*seed=*/29);
  TuningResult result = tuner->Tune(service);

  // Budget is a hard cap and the layout records exactly the calls made.
  EXPECT_LE(service.calls_made(), budget);
  EXPECT_EQ(static_cast<int64_t>(service.layout().size()),
            service.calls_made());

  // The recommendation satisfies the cardinality constraint.
  EXPECT_LE(result.best_config.count(), static_cast<size_t>(k));

  // Every layout cell is valid and unique (a cache prevents re-buying).
  // Keyed on the configuration itself, so two distinct configurations with
  // colliding hashes are not mistaken for a repeated cell.
  std::vector<std::unordered_set<Config, DynamicBitsetHash>> seen(
      static_cast<size_t>(bundle.workload.num_queries()));
  for (const LayoutEntry& entry : service.layout()) {
    ASSERT_GE(entry.query_id, 0);
    ASSERT_LT(entry.query_id, bundle.workload.num_queries());
    EXPECT_FALSE(entry.config.empty());
    EXPECT_TRUE(
        seen[static_cast<size_t>(entry.query_id)].insert(entry.config).second)
        << "duplicate counted what-if call";
  }

  // Derived improvement of the recommendation can never exceed the true
  // improvement (derivation is an upper bound on cost, so a lower bound on
  // improvement), and both are within [0, 100].
  double derived = service.DerivedImprovement(result.best_config);
  double truth = service.TrueImprovement(result.best_config);
  EXPECT_LE(derived, truth + 1e-6);
  EXPECT_GE(derived, -1e-9);
  EXPECT_LE(truth, 100.0);
}

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  std::string name = std::string(std::get<0>(info.param)) + "_" +
                     std::get<1>(info.param);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, TunerSweep,
    ::testing::Combine(
        ::testing::Values("toy", "tpch", "job"),
        ::testing::Values("vanilla-greedy", "two-phase-greedy",
                          "autoadmin-greedy", "dba-bandits", "no-dba", "dta",
                          "mcts", "mcts-uct-bce", "mcts-boltz",
                          "mcts-prior-hybrid", "mcts-prior-bg-rave",
                          "mcts-prior-bg-rnd")),
    SweepName);

// Derivation invariants on progressively filled caches, across workloads.
class DerivationSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(DerivationSweep, DerivedCostIsMonotonicallyRefined) {
  const WorkloadBundle& bundle = LoadBundle(GetParam());
  CostService service(bundle.optimizer.get(), &bundle.workload,
                      &bundle.candidates.indexes, 60);
  Rng rng(97);
  const int n = service.num_candidates();
  Config probe = service.EmptyConfig();
  for (int i = 0; i < 6; ++i) {
    probe.set(static_cast<size_t>(rng.UniformInt(0, n - 1)));
  }
  double previous = service.DerivedCost(0, probe);
  EXPECT_DOUBLE_EQ(previous, service.BaseCost(0));
  // Bounded iteration count: on small universes the distinct subsets of the
  // probe can run out before the budget does.
  for (int iter = 0; iter < 500 && service.HasBudget(); ++iter) {
    // Evaluate random subsets of the probe for query 0; each new cell can
    // only tighten (never loosen) the derived cost of the probe.
    Config subset = service.EmptyConfig();
    for (size_t pos : probe.ToIndices()) {
      if (rng.Bernoulli(0.5)) subset.set(pos);
    }
    if (subset.empty()) continue;
    service.WhatIfCost(0, subset);
    double now = service.DerivedCost(0, probe);
    EXPECT_LE(now, previous + 1e-12);
    previous = now;
  }
  EXPECT_GT(service.calls_made(), 0);
}

INSTANTIATE_TEST_SUITE_P(Workloads, DerivationSweep,
                         ::testing::Values("toy", "tpch", "tpcds"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           std::string s = i.param;
                           for (char& c : s) {
                             if (c == '-') c = '_';
                           }
                           return s;
                         });

}  // namespace
}  // namespace bati
