// Property tests for the derivation layer of the cost engine: the
// posting-list DerivedCostIndex must be bit-identical to the brute-force
// Equation-1 subset-minimum scan it replaced, and the batched what-if entry
// point must be indistinguishable from a sequential WhatIfCost() loop.

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "harness/experiment.h"
#include "whatif/cost_service.h"
#include "whatif/derived_cost_index.h"

namespace bati {
namespace {

/// The reference implementation: the monolithic linear scan over all cached
/// (config, cost) cells (what CostService::DerivedCost did before the index).
double BruteForceSubsetMin(const std::vector<std::pair<Config, double>>& cache,
                           const Config& probe, double base) {
  double best = base;
  for (const auto& [config, cost] : cache) {
    if (cost < best && config.IsSubsetOf(probe)) best = cost;
  }
  return best;
}

Config RandomConfig(Rng& rng, size_t universe, int max_members) {
  Config c(universe);
  int members = static_cast<int>(rng.UniformInt(1, max_members));
  for (int i = 0; i < members; ++i) {
    c.set(static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(universe) - 1)));
  }
  return c;
}

TEST(DerivedCostIndex, MatchesBruteForceOnRandomCaches) {
  constexpr size_t kUniverse = 24;
  constexpr int kQueries = 3;
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    DerivedCostIndex index(kQueries, static_cast<int>(kUniverse));
    std::vector<std::vector<std::pair<Config, double>>> brute(kQueries);
    std::vector<double> base(kQueries);
    for (int q = 0; q < kQueries; ++q) base[static_cast<size_t>(q)] =
        rng.Uniform(50.0, 200.0);

    // Populate a random cache. Duplicate cells are skipped, as the façade
    // guarantees (a cell is evaluated at most once).
    int cells = static_cast<int>(rng.UniformInt(10, 120));
    for (int i = 0; i < cells; ++i) {
      int q = static_cast<int>(rng.UniformInt(0, kQueries - 1));
      Config c = RandomConfig(rng, kUniverse, 6);
      if (index.Find(q, c) != nullptr) continue;
      // Costs can tie (integral draws) to exercise tie semantics.
      double cost = static_cast<double>(
          rng.UniformInt(1, 100));
      index.Add(q, c, c.ToIndices(), cost);
      brute[static_cast<size_t>(q)].emplace_back(c, cost);
    }

    // Exact-cell lookups agree with the raw cache.
    for (int q = 0; q < kQueries; ++q) {
      for (const auto& [config, cost] : brute[static_cast<size_t>(q)]) {
        const double* found = index.Find(q, config);
        ASSERT_NE(found, nullptr);
        EXPECT_EQ(*found, cost);  // bit-identical, no tolerance
      }
    }

    // Subset-minimum, incremental with-add, and delta lookups all agree
    // with the brute-force scan on random probes.
    for (int probe_i = 0; probe_i < 40; ++probe_i) {
      Config probe = RandomConfig(rng, kUniverse, 8);
      int q = static_cast<int>(rng.UniformInt(0, kQueries - 1));
      double b = base[static_cast<size_t>(q)];
      double expected =
          BruteForceSubsetMin(brute[static_cast<size_t>(q)], probe, b);
      EXPECT_EQ(index.SubsetMin(q, probe, b), expected);

      size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(kUniverse) - 1));
      if (probe.test(pos)) continue;
      double with_add = index.SubsetMinWithAdd(q, probe, pos, expected);
      double expected_with = BruteForceSubsetMin(
          brute[static_cast<size_t>(q)], probe.With(pos), b);
      EXPECT_EQ(with_add, expected_with);
      EXPECT_EQ(index.DeltaAdd(q, probe, pos, b),
                expected_with - expected);
      EXPECT_LE(index.DeltaAdd(q, probe, pos, b), 0.0);
    }
  }
}

TEST(DerivedCostIndex, SingletonMinUsesOnlySingletons) {
  DerivedCostIndex index(1, 8);
  Config s0(8);
  s0.set(0);
  Config pair = s0.With(1);
  index.Add(0, pair, pair.ToIndices(), 10.0);  // cheap pair, not a singleton
  index.Add(0, s0, s0.ToIndices(), 40.0);
  // Equation 2 ignores the cheap pair cell; Equation 1 uses it.
  EXPECT_EQ(index.SingletonMin(0, pair, 100.0), 40.0);
  EXPECT_EQ(index.SubsetMin(0, pair, 100.0), 10.0);
  // Singleton lookup for a config without cached singletons falls to base.
  Config s2(8);
  s2.set(2);
  EXPECT_EQ(index.SingletonMin(0, s2, 100.0), 100.0);
}

struct ServicePair {
  const WorkloadBundle& bundle;
  CostService sequential;
  CostService batched;

  explicit ServicePair(int64_t budget, const char* workload = "tpch")
      : bundle(LoadBundle(workload)),
        sequential(bundle.optimizer.get(), &bundle.workload,
                   &bundle.candidates.indexes, budget),
        batched(bundle.optimizer.get(), &bundle.workload,
                &bundle.candidates.indexes, budget) {}
};

std::vector<int> AllQueries(const CostService& service) {
  std::vector<int> out;
  for (int q = 0; q < service.num_queries(); ++q) out.push_back(q);
  return out;
}

TEST(WhatIfCostMany, MatchesSequentialLoop) {
  ServicePair f(500);
  Rng rng(11);
  const int n = f.sequential.num_candidates();
  for (int round = 0; round < 6; ++round) {
    Config c = RandomConfig(rng, static_cast<size_t>(n), 4);
    std::vector<int> queries = AllQueries(f.sequential);
    // tpch has enough queries to cross the executor's parallel threshold.
    ASSERT_GE(queries.size(), WhatIfExecutor::kParallelThreshold);
    std::vector<std::optional<double>> batch =
        f.batched.WhatIfCostMany(queries, c);
    for (size_t i = 0; i < queries.size(); ++i) {
      std::optional<double> seq = f.sequential.WhatIfCost(queries[i], c);
      ASSERT_EQ(seq.has_value(), batch[i].has_value());
      if (seq.has_value()) {
        EXPECT_EQ(*seq, *batch[i]);  // bit-identical
      }
    }
  }
  // Identical budget consumption, layout, and accounting.
  EXPECT_EQ(f.sequential.calls_made(), f.batched.calls_made());
  EXPECT_EQ(f.sequential.cache_hits(), f.batched.cache_hits());
  ASSERT_EQ(f.sequential.layout().size(), f.batched.layout().size());
  for (size_t i = 0; i < f.sequential.layout().size(); ++i) {
    EXPECT_EQ(f.sequential.layout()[i].query_id,
              f.batched.layout()[i].query_id);
    EXPECT_EQ(f.sequential.layout()[i].config, f.batched.layout()[i].config);
  }
  EXPECT_EQ(f.sequential.SimulatedWhatIfSeconds(),
            f.batched.SimulatedWhatIfSeconds());
  // Derived costs after the rounds agree too (same cache contents).
  Config probe = RandomConfig(rng, static_cast<size_t>(n), 6);
  for (int q = 0; q < f.sequential.num_queries(); ++q) {
    EXPECT_EQ(f.sequential.DerivedCost(q, probe),
              f.batched.DerivedCost(q, probe));
  }
}

TEST(WhatIfCostMany, RepeatedBatchesReuseThePoolSafely) {
  // Back-to-back batched rounds publish a fresh job to the same worker pool
  // each time. A worker that observed round k but stalled must not be able
  // to claim a ticket, write a result, or advance the completion count of
  // round k+1 (regression test for the per-job executor state).
  ServicePair f(2000);
  Rng rng(17);
  const int n = f.batched.num_candidates();
  for (int round = 0; round < 30; ++round) {
    Config c = RandomConfig(rng, static_cast<size_t>(n), 5);
    std::vector<int> queries = AllQueries(f.batched);
    ASSERT_GE(queries.size(), WhatIfExecutor::kParallelThreshold);
    std::vector<std::optional<double>> batch =
        f.batched.WhatIfCostMany(queries, c);
    for (size_t i = 0; i < queries.size(); ++i) {
      std::optional<double> seq = f.sequential.WhatIfCost(queries[i], c);
      ASSERT_EQ(seq.has_value(), batch[i].has_value());
      if (seq.has_value()) {
        EXPECT_EQ(*seq, *batch[i]);
      }
    }
  }
  EXPECT_EQ(f.sequential.calls_made(), f.batched.calls_made());
  EXPECT_EQ(f.sequential.cache_hits(), f.batched.cache_hits());
}

TEST(WhatIfCostMany, RespectsBudgetCapMidBatch) {
  ServicePair f(5);
  Rng rng(13);
  const int n = f.batched.num_candidates();
  Config c = RandomConfig(rng, static_cast<size_t>(n), 3);
  std::vector<int> queries = AllQueries(f.batched);
  ASSERT_GT(queries.size(), 5u);
  std::vector<std::optional<double>> batch =
      f.batched.WhatIfCostMany(queries, c);
  // Exactly the first five cells were bought, in input order.
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batch[i].has_value(), i < 5u);
  }
  EXPECT_EQ(f.batched.calls_made(), 5);
  EXPECT_FALSE(f.batched.HasBudget());
  // The sequential loop buys the same cells.
  for (size_t i = 0; i < queries.size(); ++i) {
    std::optional<double> seq = f.sequential.WhatIfCost(queries[i], c);
    ASSERT_EQ(seq.has_value(), batch[i].has_value());
    if (seq.has_value()) {
      EXPECT_EQ(*seq, *batch[i]);
    }
  }
}

TEST(WhatIfCostMany, DuplicateQueriesAreCacheHits) {
  ServicePair f(100);
  Config c(static_cast<size_t>(f.batched.num_candidates()));
  c.set(0);
  std::vector<int> queries = {0, 1, 0, 2, 1, 0};
  std::vector<std::optional<double>> batch =
      f.batched.WhatIfCostMany(queries, c);
  ASSERT_TRUE(batch[0].has_value());
  EXPECT_EQ(*batch[0], *batch[2]);
  EXPECT_EQ(*batch[0], *batch[5]);
  EXPECT_EQ(*batch[1], *batch[4]);
  // Three distinct cells bought, three duplicate slots served for free —
  // exactly what the sequential loop does.
  EXPECT_EQ(f.batched.calls_made(), 3);
  EXPECT_EQ(f.batched.cache_hits(), 3);
  for (size_t i = 0; i < queries.size(); ++i) {
    std::optional<double> seq = f.sequential.WhatIfCost(queries[i], c);
    ASSERT_TRUE(seq.has_value());
    EXPECT_EQ(*seq, *batch[i]);
  }
}

TEST(EngineStats, CountersTrackActivity) {
  ServicePair f(50);
  Config c(static_cast<size_t>(f.batched.num_candidates()));
  c.set(0);
  c.set(1);
  std::vector<int> queries = AllQueries(f.batched);
  f.batched.WhatIfCostMany(queries, c);
  f.batched.WhatIfCost(0, c);  // cache hit
  f.batched.DerivedWorkloadCost(c);
  CostEngineStats stats = f.batched.EngineStats();
  EXPECT_EQ(stats.what_if_calls, f.batched.calls_made());
  EXPECT_GE(stats.cache_hits, 1);
  EXPECT_EQ(stats.batched_cells, f.batched.calls_made());
  EXPECT_EQ(stats.index_entries, f.batched.calls_made());
  EXPECT_GE(stats.derived_lookups, f.batched.num_queries());
  EXPECT_GT(stats.simulated_whatif_seconds, 0.0);
  EXPECT_GT(stats.executor_wall_seconds, 0.0);
  // Both renderings mention every counter.
  EXPECT_NE(stats.ToString().find("what-if calls"), std::string::npos);
  EXPECT_NE(stats.ToJson().find("\"index_pruned_entries\""),
            std::string::npos);
}

}  // namespace
}  // namespace bati
