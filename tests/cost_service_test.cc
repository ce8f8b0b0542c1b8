#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "harness/experiment.h"
#include "whatif/cost_service.h"

namespace bati {
namespace {

struct Fixture {
  const WorkloadBundle& bundle;
  CostService service;

  explicit Fixture(int64_t budget, const char* workload = "toy")
      : bundle(LoadBundle(workload)),
        service(bundle.optimizer.get(), &bundle.workload,
                &bundle.candidates.indexes, budget) {}
};

TEST(CostService, BaseCostsAreFreeAndPositive) {
  Fixture f(10);
  EXPECT_EQ(f.service.calls_made(), 0);
  double sum = 0.0;
  for (int q = 0; q < f.service.num_queries(); ++q) {
    EXPECT_GT(f.service.BaseCost(q), 0.0);
    sum += f.service.BaseCost(q);
  }
  EXPECT_DOUBLE_EQ(sum, f.service.BaseWorkloadCost());
  EXPECT_EQ(f.service.calls_made(), 0);  // still free
}

TEST(CostService, WhatIfConsumesBudgetOncePerCell) {
  Fixture f(3);
  Config c = f.service.EmptyConfig();
  c.set(0);
  auto cost1 = f.service.WhatIfCost(0, c);
  ASSERT_TRUE(cost1.has_value());
  EXPECT_EQ(f.service.calls_made(), 1);
  // Cache hit: free, same value.
  auto cost2 = f.service.WhatIfCost(0, c);
  ASSERT_TRUE(cost2.has_value());
  EXPECT_DOUBLE_EQ(*cost1, *cost2);
  EXPECT_EQ(f.service.calls_made(), 1);
  EXPECT_EQ(f.service.cache_hits(), 1);
}

TEST(CostService, BudgetExhaustionReturnsNullopt) {
  Fixture f(2);
  Config a = f.service.EmptyConfig();
  a.set(0);
  Config b = f.service.EmptyConfig();
  b.set(1);
  Config c = f.service.EmptyConfig();
  c.set(2);
  EXPECT_TRUE(f.service.WhatIfCost(0, a).has_value());
  EXPECT_TRUE(f.service.WhatIfCost(0, b).has_value());
  EXPECT_FALSE(f.service.HasBudget());
  EXPECT_FALSE(f.service.WhatIfCost(0, c).has_value());
  // Cached cells remain free even with no budget.
  EXPECT_TRUE(f.service.WhatIfCost(0, a).has_value());
}

TEST(CostService, UncachedCellIsFreeExactlyWhenNothingCanHappen) {
  const WorkloadBundle& bundle = LoadBundle("toy");
  auto make = [&](int64_t budget, const BudgetGovernorOptions& governor) {
    CostEngineOptions options;
    options.governor = governor;
    return std::make_unique<CostService>(bundle.optimizer.get(),
                                         &bundle.workload,
                                         &bundle.candidates.indexes, budget,
                                         options);
  };
  auto single = [&](const CostService& service, size_t pos) {
    Config c = service.EmptyConfig();
    c.set(pos);
    return c;
  };
  // An uncached cell when the predicate holds: nullopt, nothing moves.
  auto expect_inert = [&](CostService& service, size_t pos) {
    const CostEngineStats before = service.EngineStats();
    EXPECT_FALSE(service.WhatIfCost(0, single(service, pos)).has_value());
    const CostEngineStats after = service.EngineStats();
    EXPECT_EQ(after.what_if_calls, before.what_if_calls);
    EXPECT_EQ(after.cache_hits, before.cache_hits);
    EXPECT_EQ(after.derived_lookups, before.derived_lookups);
    EXPECT_EQ(after.lower_bound_lookups, before.lower_bound_lookups);
    EXPECT_EQ(after.governor_skipped_calls, before.governor_skipped_calls);
  };

  // Ungoverned: free once the meter is exhausted, not before.
  {
    auto service = make(2, BudgetGovernorOptions{});
    EXPECT_FALSE(service->UncachedCellIsFree());
    ASSERT_TRUE(service->WhatIfCost(0, single(*service, 0)).has_value());
    EXPECT_FALSE(service->UncachedCellIsFree());
    ASSERT_TRUE(service->WhatIfCost(0, single(*service, 1)).has_value());
    EXPECT_TRUE(service->UncachedCellIsFree());
    expect_inert(*service, 2);
  }
  // A reallocating governor is quoted only while a unit can be spent:
  // after exhaustion it is not asked, so the cell is inert and banks
  // nothing.
  {
    BudgetGovernorOptions realloc;
    realloc.enabled = true;
    realloc.early_stop = false;
    realloc.skip_what_if = true;
    auto service = make(2, realloc);
    EXPECT_FALSE(service->UncachedCellIsFree());
    service->WhatIfCost(0, single(*service, 0));
    service->WhatIfCost(0, single(*service, 1));
    ASSERT_FALSE(service->meter().HasBudget());
    EXPECT_TRUE(service->UncachedCellIsFree());
    const int64_t banked = service->EngineStats().governor_banked_calls;
    expect_inert(*service, 2);
    EXPECT_EQ(service->EngineStats().governor_banked_calls, banked);
  }
  // An early-stop-only governor never skips: after exhaustion its quote
  // reads no index and OnCell() charges, so the cell is inert.
  {
    BudgetGovernorOptions stop_only;
    stop_only.enabled = true;
    stop_only.early_stop = true;
    stop_only.skip_what_if = false;
    auto service = make(1, stop_only);
    EXPECT_FALSE(service->UncachedCellIsFree());
    ASSERT_TRUE(service->WhatIfCost(0, single(*service, 0)).has_value());
    ASSERT_FALSE(service->GovernorStopped());
    EXPECT_TRUE(service->UncachedCellIsFree());
    expect_inert(*service, 1);
  }
  // Early stop: free once the governor has stopped, with budget left.
  {
    BudgetGovernorOptions stop;
    stop.enabled = true;
    stop.early_stop = true;
    stop.skip_what_if = false;
    stop.stop.min_budget_fraction = 0.0;
    stop.stop.window_calls = 1;
    stop.stop.abs_threshold_pct = 1e9;  // any projection is below it
    auto service = make(10, stop);
    service->BeginRound();
    EXPECT_FALSE(service->UncachedCellIsFree());
    ASSERT_TRUE(service->WhatIfCost(0, single(*service, 0)).has_value());
    EXPECT_FALSE(service->UncachedCellIsFree());
    service->BeginRound();
    ASSERT_TRUE(service->GovernorStopped());
    EXPECT_TRUE(service->meter().HasBudget());
    EXPECT_TRUE(service->UncachedCellIsFree());
    expect_inert(*service, 1);
  }
}

TEST(CostService, EmptyConfigIsAlwaysFree) {
  Fixture f(0);
  auto cost = f.service.WhatIfCost(0, f.service.EmptyConfig());
  ASSERT_TRUE(cost.has_value());
  EXPECT_DOUBLE_EQ(*cost, f.service.BaseCost(0));
  EXPECT_EQ(f.service.calls_made(), 0);
}

TEST(CostService, LayoutTraceRecordsCallsInOrder) {
  Fixture f(5);
  Config a = f.service.EmptyConfig();
  a.set(0);
  Config ab = a.With(1);
  f.service.WhatIfCost(1, a);
  f.service.WhatIfCost(0, ab);
  f.service.WhatIfCost(1, a);  // cached: not in layout
  ASSERT_EQ(f.service.layout().size(), 2u);
  EXPECT_EQ(f.service.layout()[0].query_id, 1);
  EXPECT_EQ(f.service.layout()[0].config, a);
  EXPECT_EQ(f.service.layout()[1].query_id, 0);
  EXPECT_EQ(f.service.layout()[1].config, ab);
}

// d(q, C) is an upper bound on c(q, C), equals it when known, and is
// monotonically refined as the cache grows (Equation 1 semantics).
TEST(CostService, DerivedCostUpperBoundsAndMatchesKnown) {
  Fixture f(100, "tpch");
  Rng rng(3);
  const int n = f.service.num_candidates();
  std::vector<Config> probes;
  for (int t = 0; t < 20; ++t) {
    Config c = f.service.EmptyConfig();
    for (int i = 0; i < 4; ++i) {
      c.set(static_cast<size_t>(rng.UniformInt(0, n - 1)));
    }
    probes.push_back(c);
  }
  // Populate some of the cache.
  for (int t = 0; t < 10; ++t) {
    int q = static_cast<int>(rng.UniformInt(0, f.service.num_queries() - 1));
    f.service.WhatIfCost(q, probes[static_cast<size_t>(t)]);
  }
  for (const Config& c : probes) {
    for (int q = 0; q < f.service.num_queries(); ++q) {
      double derived = f.service.DerivedCost(q, c);
      double truth = f.bundle.optimizer->Cost(
          f.bundle.workload.queries[static_cast<size_t>(q)],
          f.service.Materialize(c));
      EXPECT_GE(derived, truth - 1e-9);        // upper bound
      EXPECT_LE(derived, f.service.BaseCost(q) + 1e-9);
      if (f.service.CachedCost(q, c).has_value()) {
        EXPECT_DOUBLE_EQ(derived, truth);  // exact when known
      }
    }
  }
}

TEST(CostService, DerivedCostUsesBestCachedSubset) {
  Fixture f(10, "tpch");
  Config a = f.service.EmptyConfig();
  a.set(0);
  Config abc = a.With(1).With(2);
  double cost_a = *f.service.WhatIfCost(0, a);
  // {0} is a subset of {0,1,2}: derivation must use it.
  EXPECT_LE(f.service.DerivedCost(0, abc), cost_a + 1e-12);
  // But not vice versa: derivation for {1} can't use {0}.
  Config b = f.service.EmptyConfig();
  b.set(1);
  EXPECT_DOUBLE_EQ(f.service.DerivedCost(0, b), f.service.BaseCost(0));
}

TEST(CostService, PairDerivationUsesExactPairCell) {
  Fixture f(50, "tpch");
  // Evaluate singletons {0}, {1} for query 0 and the pair {0,1}.
  Config s0 = f.service.EmptyConfig();
  s0.set(0);
  Config s1 = f.service.EmptyConfig();
  s1.set(1);
  double c0 = *f.service.WhatIfCost(0, s0);
  double c1 = *f.service.WhatIfCost(0, s1);
  Config pair = s0.With(1);
  double pair_cost = *f.service.WhatIfCost(0, pair);
  // Derivation (Eq. 1) may use the exact pair cell.
  EXPECT_DOUBLE_EQ(f.service.DerivedCost(0, pair),
                   std::min({f.service.BaseCost(0), c0, c1, pair_cost}));
}

TEST(CostService, ImprovementIsZeroForEmptyConfig) {
  Fixture f(10);
  EXPECT_DOUBLE_EQ(f.service.DerivedImprovement(f.service.EmptyConfig()),
                   0.0);
  EXPECT_NEAR(f.service.TrueImprovement(f.service.EmptyConfig()), 0.0, 1e-9);
}

TEST(CostService, TrueImprovementDoesNotSpendBudget) {
  Fixture f(5, "tpch");
  Config c = f.service.EmptyConfig();
  c.set(0);
  c.set(1);
  int64_t before = f.service.calls_made();
  double improvement = f.service.TrueImprovement(c);
  EXPECT_EQ(f.service.calls_made(), before);
  EXPECT_GE(improvement, 0.0);
  EXPECT_LE(improvement, 100.0);
}

TEST(CostService, SimulatedSecondsAccumulateOnlyOnRealCalls) {
  Fixture f(5, "tpch");
  EXPECT_DOUBLE_EQ(f.service.SimulatedWhatIfSeconds(), 0.0);
  Config c = f.service.EmptyConfig();
  c.set(0);
  f.service.WhatIfCost(0, c);
  double after_one = f.service.SimulatedWhatIfSeconds();
  EXPECT_GT(after_one, 0.0);
  f.service.WhatIfCost(0, c);  // cached
  EXPECT_DOUBLE_EQ(f.service.SimulatedWhatIfSeconds(), after_one);
}

TEST(CostService, MaterializeRoundTripsPositions) {
  Fixture f(5, "tpch");
  Config c = f.service.EmptyConfig();
  c.set(2);
  c.set(5);
  std::vector<Index> mats = f.service.Materialize(c);
  ASSERT_EQ(mats.size(), 2u);
  EXPECT_TRUE(mats[0] == f.bundle.candidates.indexes[2]);
  EXPECT_TRUE(mats[1] == f.bundle.candidates.indexes[5]);
}

// The calling process's thread count from /proc/self/status, or -1 where
// that file does not exist.
int ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

// A CostService owns no threads: a batched WhatIfCostMany() runs every
// cell on the calling thread, with or without the fault/retry loop. Fleet
// workers fork sessions and rely on this.
TEST(CostService, BatchedEvaluationStartsNoThreads) {
  if (ProcessThreads() < 0) GTEST_SKIP() << "no /proc/self/status";
  const WorkloadBundle& bundle = LoadBundle("tpch");
  std::vector<int> queries;
  for (int q = 0; q < bundle.workload.num_queries(); ++q) queries.push_back(q);
  ASSERT_EQ(queries.size(), 22u);
  for (const bool faulted : {false, true}) {
    CostEngineOptions options;
    if (faulted) {
      options.faults.enabled = true;
      options.faults.transient_rate = 0.2;
      options.faults.spike_rate = 0.1;
    }
    CostService service(bundle.optimizer.get(), &bundle.workload,
                        &bundle.candidates.indexes, /*budget=*/1000, options);
    Config config = service.EmptyConfig();
    config.set(0);
    config.set(3);
    const int before = ProcessThreads();
    std::vector<std::optional<double>> costs =
        service.WhatIfCostMany(queries, config);
    EXPECT_EQ(ProcessThreads(), before) << "faulted=" << faulted;
    ASSERT_EQ(costs.size(), queries.size());
    for (const std::optional<double>& cost : costs) {
      EXPECT_TRUE(cost.has_value());
    }
  }
}

}  // namespace
}  // namespace bati
