// Property tests for the derivation layer of the cost engine: the
// posting-list DerivedCostIndex must be bit-identical to the brute-force
// Equation-1 subset-minimum scan it replaced, and the batched what-if entry
// point must be indistinguishable from a sequential WhatIfCost() loop.

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "harness/experiment.h"
#include "whatif/cost_service.h"
#include "whatif/derived_cost_index.h"

namespace bati {
namespace {

using Cache = std::vector<std::pair<Config, double>>;

/// The reference implementation: the monolithic linear scan over all cached
/// (config, cost) cells (what CostService::DerivedCost did before the index).
double BruteForceSubsetMin(const Cache& cache, const Config& probe,
                           double base) {
  double best = base;
  for (const auto& [config, cost] : cache) {
    if (cost < best && config.IsSubsetOf(probe)) best = cost;
  }
  return best;
}

std::optional<double> BruteForceFind(const Cache& cache,
                                     const Config& probe) {
  for (const auto& [config, cost] : cache) {
    if (config == probe) return cost;
  }
  return std::nullopt;
}

double BruteForceSupersetMax(const Cache& cache, const Config& probe,
                             double floor) {
  double bound = floor;
  for (const auto& [config, cost] : cache) {
    if (probe.IsSubsetOf(config)) bound = std::max(bound, cost);
  }
  return bound;
}

double BruteForceAdditive(const Cache& cache, const Config& probe,
                          double base, double floor) {
  double bound = base;
  for (size_t pos : probe.ToIndices()) {
    const std::optional<double> single = BruteForceFind(
        cache, Config::FromIndices(probe.universe_size(), {pos}));
    if (!single.has_value()) return floor;
    bound -= std::max(0.0, base - *single);
  }
  return std::max(bound, floor);
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

/// A config drawn from `pool`, so random configs overlap often enough to
/// be subsets of one another even in a wide universe.
Config PoolConfig(Rng& rng, size_t universe, const std::vector<size_t>& pool,
                  int max_members) {
  Config c(universe);
  int members = static_cast<int>(rng.UniformInt(1, max_members));
  for (int i = 0; i < members; ++i) {
    c.set(pool[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))]);
  }
  return c;
}

/// Candidate positions the random caches draw from. A universe of up to 64
/// uses every position. Wider universes use a few residues mod 64 repeated
/// in words spread across the universe: positions 64 apart share a
/// signature bit, so the signature filter passes entries the exact member
/// test must reject, and probes span word boundaries.
std::vector<size_t> PositionPool(size_t universe) {
  std::vector<size_t> pool;
  if (universe <= 64) {
    for (size_t pos = 0; pos < universe; ++pos) pool.push_back(pos);
    return pool;
  }
  const size_t words = (universe + 63) / 64;
  for (size_t j = 0; j < 8; ++j) {
    const size_t word = j * (words - 1) / 7;
    for (size_t residue : {0, 1, 31, 63}) {
      const size_t pos = word * 64 + residue;
      if (pos < universe &&
          std::find(pool.begin(), pool.end(), pos) == pool.end()) {
        pool.push_back(pos);
      }
    }
  }
  return pool;
}

void CheckAgainstBruteForce(size_t universe) {
  constexpr int kQueries = 3;
  const std::vector<size_t> pool = PositionPool(universe);
  Rng rng(7 + universe);
  for (int trial = 0; trial < 20; ++trial) {
    DerivedCostIndex index(kQueries, static_cast<int>(universe));
    std::vector<Cache> brute(kQueries);
    std::vector<double> base(kQueries);
    for (int q = 0; q < kQueries; ++q) base[static_cast<size_t>(q)] =
        rng.Uniform(50.0, 200.0);

    // Populate a random cache. Duplicate cells are skipped, as the façade
    // guarantees (a cell is evaluated at most once). Configurations are
    // often reused across queries, and every insert is bracketed by Find()
    // calls on the same configuration, so the resolve memo sees a miss,
    // then the Add(), then must answer with a hit.
    int cells = static_cast<int>(rng.UniformInt(10, 120));
    Config last = PoolConfig(rng, universe, pool, 6);
    for (int i = 0; i < cells; ++i) {
      int q = static_cast<int>(rng.UniformInt(0, kQueries - 1));
      Config c =
          rng.Bernoulli(0.3) ? last : PoolConfig(rng, universe, pool, 6);
      Cache& cache = brute[static_cast<size_t>(q)];
      const std::optional<double> known = BruteForceFind(cache, c);
      ASSERT_EQ(index.Find(q, c), known);
      if (known.has_value()) continue;
      // Costs can tie (integral draws) to exercise tie semantics.
      double cost = static_cast<double>(rng.UniformInt(1, 100));
      index.Add(q, c, c.ToIndices(), cost);
      cache.emplace_back(c, cost);
      ASSERT_EQ(index.Find(q, c), cost);
      // The memo now holds `c`; the previous configuration still resolves
      // through the table, for every query.
      for (int other = 0; other < kQueries; ++other) {
        ASSERT_EQ(index.Find(other, last),
                  BruteForceFind(brute[static_cast<size_t>(other)], last));
      }
      ASSERT_EQ(index.Find(q, c), cost);
      last = c;
    }

    // Exact-cell lookups agree with the raw cache.
    for (int q = 0; q < kQueries; ++q) {
      for (const auto& [config, cost] : brute[static_cast<size_t>(q)]) {
        EXPECT_EQ(index.Find(q, config), cost);  // bit-identical
      }
    }

    // Subset-minimum, incremental with-add, delta, singleton and both lower
    // bounds all agree with brute-force scans on random probes.
    for (int probe_i = 0; probe_i < 40; ++probe_i) {
      Config probe = probe_i % 4 == 0 ? RandomConfig(rng, universe, 8)
                                      : PoolConfig(rng, universe, pool, 8);
      int q = static_cast<int>(rng.UniformInt(0, kQueries - 1));
      const Cache& cache = brute[static_cast<size_t>(q)];
      double b = base[static_cast<size_t>(q)];
      double expected = BruteForceSubsetMin(cache, probe, b);
      EXPECT_EQ(index.SubsetMin(q, probe, b), expected);

      Config small = PoolConfig(rng, universe, pool, 3);
      const double floor = probe_i % 2 == 0 ? 0.0 : 30.0;
      EXPECT_EQ(index.SupersetMaxLowerBound(q, small, floor),
                BruteForceSupersetMax(cache, small, floor));
      EXPECT_EQ(index.SupersetMaxLowerBound(q, probe, floor),
                BruteForceSupersetMax(cache, probe, floor));
      EXPECT_EQ(index.AdditiveLowerBound(q, small, b, floor),
                BruteForceAdditive(cache, small, b, floor));

      double singleton = b;
      for (size_t pos : probe.ToIndices()) {
        const std::optional<double> c =
            BruteForceFind(cache, Config::FromIndices(universe, {pos}));
        if (c.has_value()) singleton = std::min(singleton, *c);
      }
      EXPECT_EQ(index.SingletonMin(q, probe, b), singleton);

      size_t pos = pool[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
      if (probe.test(pos)) continue;
      double with_add = index.SubsetMinWithAdd(q, probe, pos, expected);
      double expected_with = BruteForceSubsetMin(cache, probe.With(pos), b);
      EXPECT_EQ(with_add, expected_with);
      EXPECT_EQ(index.DeltaAdd(q, probe, pos, b),
                expected_with - expected);
      EXPECT_LE(index.DeltaAdd(q, probe, pos, b), 0.0);
    }
  }
}

TEST(DerivedCostIndex, MatchesBruteForceOnRandomCaches) {
  // One word; three words (positions 64 apart share a signature bit); and
  // Real-M's candidate count.
  for (size_t universe : {24, 130, 5142}) {
    SCOPED_TRACE("universe " + std::to_string(universe));
    CheckAgainstBruteForce(universe);
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

TEST(WhatIfCostMany, RepeatedBatchesMatchTheLoop) {
  // Thirty back-to-back batched rounds on one service stay bit-identical
  // to the sequential loop, round after round.
  ServicePair f(2000);
  Rng rng(17);
  const int n = f.batched.num_candidates();
  for (int round = 0; round < 30; ++round) {
    Config c = RandomConfig(rng, static_cast<size_t>(n), 5);
    std::vector<int> queries = AllQueries(f.batched);
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
