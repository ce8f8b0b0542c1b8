#include <fstream>
#include <limits>
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

/// Prices the extension {} ∪ {pos} for query 0 with no call limit and
/// checks which way ExtensionCost() went. `one_step`: the answer is the
/// base cost d(0, {}) and only delta_posting_free moves (no charge, no
/// governor decision, no lookup); otherwise exactly one what-if call is
/// charged and its cost is the answer.
void ExpectExtension(CostService& service, size_t pos, bool one_step) {
  SCOPED_TRACE("pos " + std::to_string(pos));
  const int query = 0;
  const double start = service.BaseCost(query);
  const CostEngineStats before = service.EngineStats();
  const double cost = service.ExtensionCost(
      {&query, 1}, service.EmptyConfig(), pos, {&start, 1}, start,
      std::numeric_limits<int64_t>::max());
  const CostEngineStats after = service.EngineStats();
  EXPECT_EQ(after.delta_posting_free - before.delta_posting_free,
            one_step ? 1 : 0);
  EXPECT_EQ(after.what_if_calls - before.what_if_calls, one_step ? 0 : 1);
  EXPECT_EQ(after.cache_hits, before.cache_hits);
  EXPECT_EQ(after.delta_lookups, before.delta_lookups);
  EXPECT_EQ(after.governor_skipped_calls, before.governor_skipped_calls);
  if (one_step) {
    EXPECT_EQ(cost, start);
    EXPECT_EQ(after.derived_lookups, before.derived_lookups);
    EXPECT_EQ(after.lower_bound_lookups, before.lower_bound_lookups);
  } else {
    Config cell = service.EmptyConfig();
    cell.set(pos);
    EXPECT_EQ(service.CachedCost(query, cell), cost);
  }
}

TEST(CostService, ExtensionCostIsOneStepExactlyWhenNothingCanHappen) {
  const WorkloadBundle& bundle = LoadBundle("toy");
  auto make = [&](int64_t budget, const BudgetGovernorOptions& governor) {
    CostEngineOptions options;
    options.governor = governor;
    return std::make_unique<CostService>(bundle.optimizer.get(),
                                         &bundle.workload,
                                         &bundle.candidates.indexes, budget,
                                         options);
  };
  // Every extension below adds a candidate no cached cell contains, so it
  // is priced in one step exactly when no call can be spent.

  // Ungoverned: one step once the meter is exhausted, not before.
  {
    auto service = make(2, BudgetGovernorOptions{});
    ExpectExtension(*service, 0, /*one_step=*/false);
    ExpectExtension(*service, 1, /*one_step=*/false);
    ASSERT_FALSE(service->HasBudget());
    ExpectExtension(*service, 2, /*one_step=*/true);
  }
  // A reallocating governor is quoted only while a unit can be spent:
  // after exhaustion it is not asked, so the extension banks nothing.
  {
    BudgetGovernorOptions realloc;
    realloc.enabled = true;
    realloc.early_stop = false;
    realloc.skip_what_if = true;
    auto service = make(2, realloc);
    ExpectExtension(*service, 0, /*one_step=*/false);
    ExpectExtension(*service, 1, /*one_step=*/false);
    ASSERT_FALSE(service->meter().HasBudget());
    const int64_t banked = service->EngineStats().governor_banked_calls;
    ExpectExtension(*service, 2, /*one_step=*/true);
    EXPECT_EQ(service->EngineStats().governor_banked_calls, banked);
  }
  // An early-stop-only governor never skips: after exhaustion its quote
  // reads no index and OnCell() charges, so the extension is one step.
  {
    BudgetGovernorOptions stop_only;
    stop_only.enabled = true;
    stop_only.early_stop = true;
    stop_only.skip_what_if = false;
    auto service = make(1, stop_only);
    ExpectExtension(*service, 0, /*one_step=*/false);
    ASSERT_FALSE(service->GovernorStopped());
    ExpectExtension(*service, 1, /*one_step=*/true);
  }
  // Early stop: one step once the governor has stopped, with budget left.
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
    ExpectExtension(*service, 0, /*one_step=*/false);
    service->BeginRound();
    ASSERT_TRUE(service->GovernorStopped());
    EXPECT_TRUE(service->meter().HasBudget());
    ExpectExtension(*service, 1, /*one_step=*/true);
  }
  // A call limit already reached makes the extension one step with budget
  // left; one not yet reached does not.
  {
    auto service = make(10, BudgetGovernorOptions{});
    const int query = 0;
    const double start = service->BaseCost(query);
    EXPECT_EQ(service->ExtensionCost({&query, 1}, service->EmptyConfig(), 0,
                                     {&start, 1}, start, /*call_limit=*/0),
              start);
    EXPECT_EQ(service->EngineStats().delta_posting_free, 1);
    EXPECT_EQ(service->calls_made(), 0);
    ExpectExtension(*service, 0, /*one_step=*/false);
  }
}

/// The loop ExtensionCost() replaces, spelled out: per query, a what-if
/// call while the limit allows, else the derived cost of the extension.
/// Returns the cost; `derived` counts the queries priced by derivation.
double NaiveExtensionCost(CostService& service, const std::vector<int>& ids,
                          const Config& extension, int64_t call_limit,
                          int64_t* derived) {
  double cost = 0.0;
  for (int q : ids) {
    if (service.calls_made() < call_limit) {
      if (auto c = service.WhatIfCost(q, extension); c.has_value()) {
        cost += *c;
        continue;
      }
    }
    cost += service.DerivedCost(q, extension);
    ++*derived;
  }
  return cost;
}

// ExtensionCost() on one service equals the naive per-query loop on a twin
// service bit for bit, leaves both in the same budget state, and advances
// each counter by exactly the probes it made: one delta lookup per query
// priced by derivation, or one delta_posting_free and nothing else when
// the extension is priced in one step. Random caches on tpch, with an
// exhausted budget, a reallocating governor, a stopped governor, and call
// limits that deny every size, are already reached, or are reached
// mid-extension.
TEST(CostService, ExtensionCostMatchesNaivePerQueryLoop) {
  const WorkloadBundle& bundle = LoadBundle("tpch");
  BudgetGovernorOptions realloc;
  realloc.enabled = true;
  realloc.early_stop = false;
  realloc.skip_what_if = true;
  realloc.realloc.skip_rel_threshold = 0.2;
  BudgetGovernorOptions stop;
  stop.enabled = true;
  stop.skip_what_if = false;
  stop.stop.min_budget_fraction = 0.0;
  stop.stop.window_calls = 1;
  stop.stop.abs_threshold_pct = 1e9;  // stops at the second round
  const struct {
    const char* name;
    int64_t budget;
    BudgetGovernorOptions governor;
  } cases[] = {{"plain", 400, {}},
               {"exhausted", 30, {}},
               {"realloc", 60, realloc},
               {"stopped", 400, stop}};
  int64_t one_steps = 0;
  int64_t mid_limit = 0;
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    CostEngineOptions options;
    options.governor = c.governor;
    CostService a(bundle.optimizer.get(), &bundle.workload,
                  &bundle.candidates.indexes, c.budget, options);
    CostService b(bundle.optimizer.get(), &bundle.workload,
                  &bundle.candidates.indexes, c.budget, options);
    const int m = a.num_queries();
    const int n = a.num_candidates();
    // Cells are drawn over a small pool so they overlap; extensions also
    // add candidates outside it, which no cell contains until priced.
    std::vector<size_t> pool;
    for (int i = 0; i < 8; ++i) pool.push_back(static_cast<size_t>(i * 3));
    Rng rng(17);
    auto pool_config = [&](int max_members) {
      Config config = a.EmptyConfig();
      const int64_t members = rng.UniformInt(0, max_members);
      for (int64_t i = 0; i < members; ++i) {
        config.set(pool[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))]);
      }
      return config;
    };
    for (int step = 0; step < 120; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      if (step % 15 == 0) {
        a.BeginRound();
        b.BeginRound();
      }
      // Grow both caches identically.
      const Config cell = pool_config(3);
      const int cell_query = static_cast<int>(rng.UniformInt(0, m - 1));
      ASSERT_EQ(a.WhatIfCost(cell_query, cell),
                b.WhatIfCost(cell_query, cell));

      const Config base = pool_config(2);
      size_t pos = rng.Bernoulli(0.5)
                       ? pool[static_cast<size_t>(rng.UniformInt(
                             0, static_cast<int64_t>(pool.size()) - 1))]
                       : static_cast<size_t>(rng.UniformInt(0, n - 1));
      if (base.test(pos)) continue;
      std::vector<int> ids;
      for (int q = 0; q < m; ++q) {
        if (rng.Bernoulli(0.3)) ids.push_back(q);
      }
      const int64_t calls = a.calls_made();
      const int64_t limits[] = {std::numeric_limits<int64_t>::max(),
                                std::numeric_limits<int64_t>::min(), calls,
                                calls + 1, calls + 2};
      const int64_t limit = limits[rng.UniformInt(0, 4)];

      std::vector<double> derived;
      double derived_sum = 0.0;
      for (int q : ids) {
        derived.push_back(a.DerivedCost(q, base));
        derived_sum += derived.back();
      }
      // One step iff no cached cell contains pos and no call can be spent.
      bool contained = false;
      for (const LayoutEntry& entry : b.layout()) {
        contained = contained || entry.config.test(pos);
      }
      const bool one_step =
          !contained && (calls >= limit || !b.HasBudget());

      const CostEngineStats a0 = a.EngineStats();
      const CostEngineStats b0 = b.EngineStats();
      const double got =
          a.ExtensionCost(ids, base, pos, derived, derived_sum, limit);
      int64_t fallbacks = 0;
      const double want =
          NaiveExtensionCost(b, ids, base.With(pos), limit, &fallbacks);
      const CostEngineStats a1 = a.EngineStats();
      const CostEngineStats b1 = b.EngineStats();

      EXPECT_EQ(got, want);
      EXPECT_EQ(a.calls_made(), b.calls_made());
      EXPECT_EQ(a.HasBudget(), b.HasBudget());
      EXPECT_EQ(a1.cache_hits - a0.cache_hits, b1.cache_hits - b0.cache_hits);
      EXPECT_EQ(a1.governor_skipped_calls, b1.governor_skipped_calls);
      EXPECT_EQ(a1.lower_bound_lookups - a0.lower_bound_lookups,
                b1.lower_bound_lookups - b0.lower_bound_lookups);
      EXPECT_EQ(a1.delta_posting_free - a0.delta_posting_free,
                one_step ? 1 : 0);
      EXPECT_EQ(a1.delta_lookups - a0.delta_lookups,
                one_step ? 0 : fallbacks);
      // Governor quotes make the same derived lookups on both sides; the
      // naive loop's derivations add one each.
      EXPECT_EQ(a1.derived_lookups - a0.derived_lookups + fallbacks,
                b1.derived_lookups - b0.derived_lookups);
      one_steps += one_step ? 1 : 0;
      mid_limit += limit == calls + 1 && b.calls_made() == limit &&
                   fallbacks > 0;
    }
    if (std::string(c.name) == "stopped") {
      EXPECT_TRUE(a.GovernorStopped());
    }
    if (std::string(c.name) == "exhausted") {
      EXPECT_FALSE(a.HasBudget());
    }
  }
  // The shortcut and the mid-extension limit were both exercised.
  EXPECT_GT(one_steps, 0);
  EXPECT_GT(mid_limit, 0);
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
