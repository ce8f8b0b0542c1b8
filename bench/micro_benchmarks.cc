// Google-benchmark micro suite for the core components: SQL parsing,
// what-if optimization, derived-cost lookup, candidate generation, and one
// full MCTS episode cycle.

#include <benchmark/benchmark.h>

#include "catalog/histogram.h"
#include "harness/experiment.h"
#include "mcts/mcts_tuner.h"
#include "sql/ddl.h"
#include "sql/parser.h"
#include "whatif/cost_service.h"
#include "whatif/derived_cost_index.h"
#include "workload/binder.h"
#include "workload/compression.h"
#include "workload/loader.h"

namespace bati {
namespace {

void BM_SqlParse(benchmark::State& state) {
  const char* sql =
      "SELECT l_orderkey, SUM(l_extendedprice), o_orderdate, o_shippriority "
      "FROM customer, orders, lineitem WHERE c_mktsegment = 'BUILDING' AND "
      "c_custkey = o_custkey AND l_orderkey = o_orderkey AND o_orderdate < "
      "1165 AND l_shipdate > 1165 GROUP BY l_orderkey, o_orderdate, "
      "o_shippriority ORDER BY o_orderdate";
  for (auto _ : state) {
    auto stmt = sql::Parse(sql);
    benchmark::DoNotOptimize(stmt);
  }
}
BENCHMARK(BM_SqlParse);

void BM_BindQuery(benchmark::State& state) {
  const WorkloadBundle& bundle = LoadBundle("tpch");
  const char* sql =
      "SELECT n_name, SUM(l_extendedprice) FROM customer, orders, lineitem, "
      "supplier, nation, region WHERE c_custkey = o_custkey AND l_orderkey = "
      "o_orderkey AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey AND "
      "s_nationkey = n_nationkey AND n_regionkey = r_regionkey AND r_name = "
      "'ASIA' GROUP BY n_name";
  for (auto _ : state) {
    auto q = BindSql(sql, *bundle.workload.database);
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_BindQuery);

void BM_WhatIfCall(benchmark::State& state) {
  const WorkloadBundle& bundle = LoadBundle("tpcds");
  // A mid-sized configuration of the first 8 candidates.
  std::vector<Index> config(bundle.candidates.indexes.begin(),
                            bundle.candidates.indexes.begin() + 8);
  const Query& q = bundle.workload.queries[10];
  for (auto _ : state) {
    double cost = bundle.optimizer->Cost(q, config);
    benchmark::DoNotOptimize(cost);
  }
}
BENCHMARK(BM_WhatIfCall);

void BM_DerivedCostLookup(benchmark::State& state) {
  const WorkloadBundle& bundle = LoadBundle("tpcds");
  CostService service(bundle.optimizer.get(), &bundle.workload,
                      &bundle.candidates.indexes, 500);
  Rng rng(7);
  // Populate the cache like a tuning run would.
  while (service.HasBudget()) {
    Config c = service.EmptyConfig();
    for (int i = 0; i < 3; ++i) {
      c.set(static_cast<size_t>(
          rng.UniformInt(0, service.num_candidates() - 1)));
    }
    service.WhatIfCost(
        static_cast<int>(rng.UniformInt(0, service.num_queries() - 1)), c);
  }
  Config probe = service.EmptyConfig();
  for (int i = 0; i < 10; ++i) {
    probe.set(static_cast<size_t>(
        rng.UniformInt(0, service.num_candidates() - 1)));
  }
  for (auto _ : state) {
    double d = service.DerivedWorkloadCost(probe);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_DerivedCostLookup);

void BM_CandidateGeneration(benchmark::State& state) {
  const WorkloadBundle& bundle = LoadBundle("tpcds");
  for (auto _ : state) {
    CandidateSet c = GenerateCandidates(bundle.workload);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_CandidateGeneration);

void BM_HistogramRangeFraction(benchmark::State& state) {
  Histogram h = Histogram::Zipf(0, 1e6, 64, 1.3);
  Rng rng(4);
  for (auto _ : state) {
    double lo = rng.Uniform(0, 9e5);
    double f = h.RangeFraction(lo, lo + 1e5);
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_HistogramRangeFraction);

void BM_WorkloadCompression(benchmark::State& state) {
  const WorkloadBundle& bundle = LoadBundle("tpcds");
  for (auto _ : state) {
    CompressedWorkload c = CompressWorkload(bundle.workload);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_WorkloadCompression);

void BM_DdlParse(benchmark::State& state) {
  const WorkloadBundle& bundle = LoadBundle("tpch");
  std::string ddl = DumpSchemaDdl(*bundle.workload.database);
  for (auto _ : state) {
    auto parsed = sql::ParseDdl(ddl);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_DdlParse);

void BM_SubsetScanDerivedCost(benchmark::State& state) {
  // Worst-case derived lookup: wide universe (Real-M) with a populated
  // cache; measures the bitset subset-test hot loop.
  const WorkloadBundle& bundle = LoadBundle("real-m");
  CostService service(bundle.optimizer.get(), &bundle.workload,
                      &bundle.candidates.indexes, 300);
  Rng rng(9);
  while (service.HasBudget()) {
    Config c = service.EmptyConfig();
    for (int i = 0; i < 4; ++i) {
      c.set(static_cast<size_t>(
          rng.UniformInt(0, service.num_candidates() - 1)));
    }
    service.WhatIfCost(
        static_cast<int>(rng.UniformInt(0, service.num_queries() - 1)), c);
  }
  Config probe = service.EmptyConfig();
  for (int i = 0; i < 12; ++i) {
    probe.set(static_cast<size_t>(
        rng.UniformInt(0, service.num_candidates() - 1)));
  }
  for (auto _ : state) {
    double d = service.DerivedCost(
        static_cast<int>(rng.UniformInt(0, service.num_queries() - 1)),
        probe);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_SubsetScanDerivedCost);

// ---- Derived-cost index vs the monolithic linear scan. -------------------
// Shared synthetic setup: one query, a cache of state.range(0) cells over a
// 64-candidate universe, and a fixed set of probe configurations. The two
// benchmarks below answer the same Equation-1 lookups; the indexed one must
// be several times faster at >= 1000 entries (the layering's raison d'etre).

/// A one-query cache of random cells over a universe of `universe`
/// candidates. At 64 candidates a configuration is one word and the entry
/// signature is exact; at 5,142 (Real-M's candidate count) positions 64
/// apart alias onto one signature bit.
struct SyntheticCache {
  DerivedCostIndex index;
  std::vector<std::pair<Config, double>> flat;  // the pre-refactor cache
  std::vector<Config> probes;
  double base = 1000.0;

  SyntheticCache(int entries, int universe) : index(1, universe) {
    Rng rng(21);
    const auto draw = [&rng, universe] {
      return static_cast<size_t>(rng.UniformInt(0, universe - 1));
    };
    while (static_cast<int>(flat.size()) < entries) {
      Config c(static_cast<size_t>(universe));
      int members = static_cast<int>(rng.UniformInt(1, 6));
      for (int i = 0; i < members; ++i) c.set(draw());
      if (index.Find(0, c).has_value()) continue;
      double cost = rng.Uniform(1.0, 999.0);
      index.Add(0, c, c.ToIndices(), cost);
      flat.emplace_back(c, cost);
    }
    for (int i = 0; i < 64; ++i) {
      Config p(static_cast<size_t>(universe));
      for (int j = 0; j < 10; ++j) p.set(draw());
      probes.push_back(p);
    }
  }
};

// Arguments: cached entries, candidate universe.
void BM_DerivedLookupBruteForce(benchmark::State& state) {
  SyntheticCache cache(static_cast<int>(state.range(0)),
                       static_cast<int>(state.range(1)));
  size_t i = 0;
  for (auto _ : state) {
    const Config& probe = cache.probes[i++ % cache.probes.size()];
    double best = cache.base;
    for (const auto& [config, cost] : cache.flat) {
      if (cost < best && config.IsSubsetOf(probe)) best = cost;
    }
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DerivedLookupBruteForce)
    ->Args({1000, 64})
    ->Args({4000, 64})
    ->Args({4000, 5142});

void BM_DerivedLookupIndexed(benchmark::State& state) {
  SyntheticCache cache(static_cast<int>(state.range(0)),
                       static_cast<int>(state.range(1)));
  size_t i = 0;
  for (auto _ : state) {
    const Config& probe = cache.probes[i++ % cache.probes.size()];
    double d = cache.index.SubsetMin(0, probe, cache.base);
    benchmark::DoNotOptimize(d);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DerivedLookupIndexed)
    ->Args({1000, 64})
    ->Args({4000, 64})
    ->Args({4000, 5142});

void BM_DerivedDeltaAdd(benchmark::State& state) {
  // The greedy inner-argmax probe: d(q, C u {pos}) - d(q, C) through the
  // posting list of `pos` only.
  SyntheticCache cache(static_cast<int>(state.range(0)), 64);
  size_t i = 0;
  for (auto _ : state) {
    const Config& probe = cache.probes[i++ % cache.probes.size()];
    size_t pos = i % 64;
    if (probe.test(pos)) pos = (pos + 1) % 64;
    double delta = cache.index.DeltaAdd(0, probe, pos, cache.base);
    benchmark::DoNotOptimize(delta);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DerivedDeltaAdd)->Arg(1000)->Arg(4000);

void BM_BatchedWhatIfCostMany(benchmark::State& state) {
  // One tuning "round": what-if the whole workload against one
  // configuration through the batched engine entry point (one executor
  // batch, evaluated on this thread).
  const WorkloadBundle& bundle = LoadBundle("tpcds");
  CostService service(bundle.optimizer.get(), &bundle.workload,
                      &bundle.candidates.indexes, 1 << 30);
  Rng rng(5);
  std::vector<int> queries(static_cast<size_t>(service.num_queries()));
  for (int q = 0; q < service.num_queries(); ++q) {
    queries[static_cast<size_t>(q)] = q;
  }
  for (auto _ : state) {
    Config c = service.EmptyConfig();
    for (int i = 0; i < 4; ++i) {
      c.set(static_cast<size_t>(
          rng.UniformInt(0, service.num_candidates() - 1)));
    }
    auto costs = service.WhatIfCostMany(queries, c);
    benchmark::DoNotOptimize(costs);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(queries.size()));
}
BENCHMARK(BM_BatchedWhatIfCostMany)->Unit(benchmark::kMicrosecond);

void BM_SequentialWhatIfLoop(benchmark::State& state) {
  // The pre-refactor shape of the same round, for comparison.
  const WorkloadBundle& bundle = LoadBundle("tpcds");
  CostService service(bundle.optimizer.get(), &bundle.workload,
                      &bundle.candidates.indexes, 1 << 30);
  Rng rng(5);
  for (auto _ : state) {
    Config c = service.EmptyConfig();
    for (int i = 0; i < 4; ++i) {
      c.set(static_cast<size_t>(
          rng.UniformInt(0, service.num_candidates() - 1)));
    }
    for (int q = 0; q < service.num_queries(); ++q) {
      auto cost = service.WhatIfCost(q, c);
      benchmark::DoNotOptimize(cost);
    }
  }
  state.SetItemsProcessed(state.iterations() * service.num_queries());
}
BENCHMARK(BM_SequentialWhatIfLoop)->Unit(benchmark::kMicrosecond);

void BM_MctsFullRun(benchmark::State& state) {
  const WorkloadBundle& bundle = LoadBundle("tpch");
  for (auto _ : state) {
    RunSpec spec;
    spec.workload = "tpch";
    spec.algorithm = "mcts";
    spec.budget = state.range(0);
    spec.max_indexes = 10;
    RunOutcome outcome = RunOnce(bundle, spec);
    benchmark::DoNotOptimize(outcome);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MctsFullRun)->Arg(100)->Arg(500)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bati

BENCHMARK_MAIN();
