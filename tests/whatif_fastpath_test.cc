// Property tests for the what-if hot-path refactor's core invariant: the
// fast path (SoA StatsView reads, memoized query skeletons, arena scratch)
// is bit-identical to the preserved reference implementation — same plans,
// same costs, byte for byte — for every query, configuration, cost-model
// variant, and across all eight tuning algorithms end to end.

#include <optional>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "optimizer/what_if.h"
#include "optimizer/what_if_reference.h"
#include "tuner/candidate_gen.h"
#include "whatif/cost_service.h"
#include "workload/generators.h"

namespace bati {
namespace {

void ExpectPlanIdentical(const PlanExplanation& fast,
                         const PlanExplanation& ref,
                         const std::string& label) {
  ASSERT_EQ(fast.steps.size(), ref.steps.size()) << label;
  for (size_t i = 0; i < fast.steps.size(); ++i) {
    const PlanStep& a = fast.steps[i];
    const PlanStep& b = ref.steps[i];
    EXPECT_EQ(a.scan_id, b.scan_id) << label << " step " << i;
    EXPECT_EQ(a.access, b.access) << label << " step " << i;
    EXPECT_EQ(a.index_pos, b.index_pos) << label << " step " << i;
    EXPECT_EQ(a.join, b.join) << label << " step " << i;
    // Bitwise, not approximate: memoized arithmetic must not perturb a
    // single ulp.
    EXPECT_EQ(a.step_cost, b.step_cost) << label << " step " << i;
    EXPECT_EQ(a.output_rows, b.output_rows) << label << " step " << i;
  }
  EXPECT_EQ(fast.post_processing_cost, ref.post_processing_cost) << label;
  EXPECT_EQ(fast.total_cost, ref.total_cost) << label;
}

/// Random configurations over the candidate universe, deterministic seed.
std::vector<std::vector<Index>> SampleConfigs(const CandidateSet& candidates,
                                              int count, int max_size,
                                              uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::vector<Index>> configs;
  configs.push_back({});  // the empty configuration
  const int universe = candidates.size();
  if (universe == 0) return configs;
  std::uniform_int_distribution<int> size_dist(1, max_size);
  std::uniform_int_distribution<int> pick(0, universe - 1);
  for (int i = 0; i < count; ++i) {
    std::vector<int> chosen;
    const int want = size_dist(rng);
    for (int k = 0; k < want; ++k) chosen.push_back(pick(rng));
    std::sort(chosen.begin(), chosen.end());
    chosen.erase(std::unique(chosen.begin(), chosen.end()), chosen.end());
    std::vector<Index> config;
    for (int pos : chosen) {
      config.push_back(candidates.indexes[static_cast<size_t>(pos)]);
    }
    configs.push_back(std::move(config));
  }
  return configs;
}

/// The reference implementation's cost for (`query`, `config`) under the
/// catalog and cost-model parameters `optimizer` was built with.
double ReferenceCost(const WhatIfOptimizer& optimizer, const Query& query,
                     const std::vector<Index>& config) {
  return ExplainReference(optimizer.database(), optimizer.params(), query,
                          config)
      .total_cost;
}

void CheckWorkloadIdentity(const std::string& name,
                           CostModelParams params) {
  const Workload w = MakeWorkloadByName(name);
  ASSERT_NE(w.database, nullptr) << name;
  const CandidateSet candidates = GenerateCandidates(w);
  WhatIfOptimizer fast(w.database, params);
  const auto configs = SampleConfigs(candidates, 40, 6, 0xFA57 + w.queries.size());
  for (const Query& q : w.queries) {
    for (size_t ci = 0; ci < configs.size(); ++ci) {
      ExpectPlanIdentical(fast.Explain(q, configs[ci]),
                          ExplainReference(*w.database, params, q, configs[ci]),
                          name + "/" + q.name + "/config" + std::to_string(ci));
    }
  }
}

TEST(WhatIfFastPathTest, BitIdenticalToReference) {
  CheckWorkloadIdentity("toy", CostModelParams{});
  CheckWorkloadIdentity("tpch", CostModelParams{});
}

TEST(WhatIfFastPathTest, BitIdenticalWithExponentialBackoff) {
  CostModelParams p;
  p.exponential_backoff = true;
  CheckWorkloadIdentity("tpch", p);
}

TEST(WhatIfFastPathTest, BitIdenticalWithMonotonicityNoise) {
  CostModelParams p;
  p.monotonicity_noise = 0.05;
  CheckWorkloadIdentity("toy", p);
}

TEST(WhatIfFastPathTest, BitIdenticalOnRealDScale) {
  // A handful of Real-D-scale queries (7,912 tables, ~15.6 joins) through
  // both paths; the full sweep lives in the benchmark, not the test suite.
  const Workload w = MakeWorkloadByName("real-d");
  ASSERT_NE(w.database, nullptr);
  const CandidateSet candidates = GenerateCandidates(w);
  WhatIfOptimizer fast(w.database);
  const auto configs = SampleConfigs(candidates, 10, 8, 0xD001);
  for (int qi = 0; qi < std::min(8, w.num_queries()); ++qi) {
    const Query& q = w.queries[static_cast<size_t>(qi)];
    for (size_t ci = 0; ci < configs.size(); ++ci) {
      ExpectPlanIdentical(
          fast.Explain(q, configs[ci]),
          ExplainReference(*w.database, fast.params(), q, configs[ci]),
          "real-d/" + q.name + "/config" + std::to_string(ci));
    }
  }
}

// The memo serves skeletons across calls and configurations without leaking
// any configuration-dependent state: hits grow, results stay equal.
TEST(WhatIfFastPathTest, MemoHitsAcrossConfigs) {
  const Workload w = MakeWorkloadByName("tpch");
  const CandidateSet candidates = GenerateCandidates(w);
  WhatIfOptimizer fast(w.database);
  const auto configs = SampleConfigs(candidates, 12, 5, 7);
  const Query& q = w.queries.front();
  for (const auto& config : configs) {
    EXPECT_EQ(fast.Cost(q, config), ReferenceCost(fast, q, config));
  }
  PlanMemoStats stats = fast.memo_stats();
  EXPECT_EQ(stats.misses, 1);  // one skeleton build for the one query
  EXPECT_EQ(stats.hits, static_cast<int64_t>(configs.size()) - 1);
  EXPECT_EQ(stats.entries, 1);
}

// A stale memo entry must never be served: mutating a query in place (same
// address, different content) invalidates via the content signature.
TEST(WhatIfFastPathTest, MemoInvalidatesOnContentChange) {
  Workload w = MakeWorkloadByName("tpch");
  const CandidateSet candidates = GenerateCandidates(w);
  WhatIfOptimizer fast(w.database);
  Query& q = w.queries.front();
  const auto configs = SampleConfigs(candidates, 4, 5, 99);

  EXPECT_EQ(fast.Cost(q, configs[1]), ReferenceCost(fast, q, configs[1]));
  ASSERT_FALSE(q.filters.empty());
  // Tighten a filter in place: the cached skeleton's selectivities are now
  // stale and the signature check must force a rebuild.
  q.filters.front().selectivity *= 0.125;
  for (const auto& config : configs) {
    EXPECT_EQ(fast.Cost(q, config), ReferenceCost(fast, q, config))
        << "after in-place mutation";
  }
  PlanMemoStats stats = fast.memo_stats();
  EXPECT_GE(stats.misses, 2);
}

// Each optimizer's memo is its own: an optimizer built where a destroyed one
// lived, over the same query objects but with other cost-model parameters,
// must not be served the old optimizer's skeletons from a thread's L1.
TEST(WhatIfFastPathTest, MemoIsPrivateToEachOptimizer) {
  const Workload w = MakeWorkloadByName("tpch");
  const CandidateSet candidates = GenerateCandidates(w);
  const auto configs = SampleConfigs(candidates, 4, 5, 5);
  CostModelParams backoff;
  backoff.exponential_backoff = true;
  std::optional<WhatIfOptimizer> slot;
  slot.emplace(w.database);
  for (const Query& q : w.queries) slot->Cost(q, configs[1]);
  slot.reset();
  slot.emplace(w.database, backoff);  // same address, other parameters
  for (const Query& q : w.queries) {
    for (const auto& config : configs) {
      EXPECT_EQ(slot->Cost(q, config), ReferenceCost(*slot, q, config))
          << q.name;
    }
  }
  EXPECT_EQ(slot->memo_stats().misses, w.num_queries());
}

// End-to-end bit-identity: every algorithm runs once on the production
// optimizer, and every cost the run asked it for must equal the reference
// implementation's bit for bit. A session asks for three kinds of cells:
// each layout entry (the charged what-if calls), each query's base cost
// c(q, {}) and each query's cost under the recommended configuration (the
// true-improvement evaluation). Tuners are deterministic given their
// answers, so a run on the reference path would follow the same trajectory.
class FastPathSessionTest : public testing::TestWithParam<const char*> {};

TEST_P(FastPathSessionTest, EveryOptimizerCallMatchesReference) {
  const std::string algorithm = GetParam();
  for (const char* workload_name : {"toy", "tpch"}) {
    const WorkloadBundle& bundle = LoadBundle(workload_name);
    const WhatIfOptimizer& optimizer = *bundle.optimizer;

    RunSpec spec;
    spec.workload = workload_name;
    spec.algorithm = algorithm;
    spec.budget = std::string(workload_name) == "toy" ? 60 : 200;
    spec.max_indexes = 5;
    spec.seed = 11;
    TuningSession session(bundle, spec);
    session.Run();
    const CostService& service = session.service();

    const std::string label = std::string(workload_name) + "/" + algorithm;
    // `seen` is the cost the run got for (query_id, config).
    auto expect_reference = [&](int query_id,
                                const std::vector<Index>& config, double seen,
                                const char* cell) {
      const Query& q = bundle.workload.queries[static_cast<size_t>(query_id)];
      EXPECT_EQ(seen, ReferenceCost(optimizer, q, config))
          << label << " " << cell << " " << q.name;
    };
    ASSERT_FALSE(service.layout().empty()) << label;
    for (const LayoutEntry& entry : service.layout()) {
      expect_reference(entry.query_id, service.Materialize(entry.config),
                       service.CachedCost(entry.query_id, entry.config).value(),
                       "layout");
    }
    const std::vector<Index> best =
        service.Materialize(session.result().best_config);
    for (int q = 0; q < bundle.workload.num_queries(); ++q) {
      const Query& query = bundle.workload.queries[static_cast<size_t>(q)];
      expect_reference(q, {}, service.BaseCost(q), "base");
      expect_reference(q, best, optimizer.Cost(query, best), "best");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, FastPathSessionTest,
    testing::Values("vanilla-greedy", "two-phase-greedy", "autoadmin-greedy",
                    "dba-bandits", "no-dba", "dta", "relaxation", "mcts"),
    [](const testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace bati
