#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "faults/fault_injector.h"
#include "harness/experiment.h"
#include "whatif/cost_service.h"
#include "whatif/whatif_executor.h"

namespace bati {
namespace {

const char* kAllAlgorithms[] = {
    "vanilla-greedy", "two-phase-greedy", "autoadmin-greedy", "dba-bandits",
    "no-dba",         "dta",              "relaxation",       "mcts",
};

FaultOptions Faults(double transient, double sticky, double spike,
                    uint64_t seed = 11) {
  FaultOptions f;
  f.enabled = true;
  f.seed = seed;
  f.transient_rate = transient;
  f.sticky_rate = sticky;
  f.spike_rate = spike;
  return f;
}

// ---- The injector: a pure, seeded, order-independent fault schedule. ----

TEST(FaultInjector, DecideIsPureAndSeeded) {
  FaultInjector a(Faults(0.3, 0.1, 0.2, 42));
  FaultInjector b(Faults(0.3, 0.1, 0.2, 42));
  FaultInjector c(Faults(0.3, 0.1, 0.2, 43));
  bool any_difference = false;
  for (int q = 0; q < 50; ++q) {
    for (int attempt = 1; attempt <= 4; ++attempt) {
      const uint64_t hash = 0x9e3779b9ULL * static_cast<uint64_t>(q + 1);
      const FaultDecision da = a.Decide(q, hash, attempt);
      const FaultDecision db = b.Decide(q, hash, attempt);
      EXPECT_EQ(da.kind, db.kind);
      EXPECT_EQ(da.latency_multiplier, db.latency_multiplier);
      const FaultDecision dc = c.Decide(q, hash, attempt);
      any_difference = any_difference || dc.kind != da.kind ||
                       dc.latency_multiplier != da.latency_multiplier;
    }
  }
  EXPECT_TRUE(any_difference) << "different seeds gave the same schedule";
}

TEST(FaultInjector, StickyIsAPropertyOfTheCell) {
  FaultInjector inj(Faults(0.0, 0.5, 0.0));
  int sticky_cells = 0;
  for (int q = 0; q < 200; ++q) {
    const uint64_t hash = 0x51ed270b * static_cast<uint64_t>(q + 7);
    const FaultKind first = inj.Decide(q, hash, 1).kind;
    for (int attempt = 2; attempt <= 6; ++attempt) {
      EXPECT_EQ(inj.Decide(q, hash, attempt).kind, first)
          << "sticky decision changed across attempts";
    }
    if (first == FaultKind::kSticky) ++sticky_cells;
  }
  // Rate 0.5 over 200 cells: expect roughly half, generous tolerance.
  EXPECT_GT(sticky_cells, 60);
  EXPECT_LT(sticky_cells, 140);
}

TEST(FaultInjector, TransientRateIsRoughlyHonored) {
  FaultInjector inj(Faults(0.2, 0.0, 0.0));
  int faults = 0;
  const int kDraws = 2000;
  for (int i = 0; i < kDraws; ++i) {
    const uint64_t hash = 0xabcdULL + static_cast<uint64_t>(i) * 977;
    if (inj.Decide(i % 37, hash, 1 + i % 3).kind == FaultKind::kTransient) {
      ++faults;
    }
  }
  EXPECT_GT(faults, kDraws * 0.2 * 0.6);
  EXPECT_LT(faults, kDraws * 0.2 * 1.6);
}

TEST(RetryPolicy, BackoffIsExponentialAndCapped) {
  RetryPolicy p;
  p.initial_backoff_seconds = 0.25;
  p.backoff_multiplier = 2.0;
  p.max_backoff_seconds = 1.0;
  EXPECT_DOUBLE_EQ(p.BackoffSeconds(1), 0.25);
  EXPECT_DOUBLE_EQ(p.BackoffSeconds(2), 0.5);
  EXPECT_DOUBLE_EQ(p.BackoffSeconds(3), 1.0);
  EXPECT_DOUBLE_EQ(p.BackoffSeconds(4), 1.0);  // capped
}

// ---- Degradation semantics on the engine. ------------------------------

TEST(FaultedEngine, BudgetChargedOnlyOnSuccess) {
  const WorkloadBundle& bundle = LoadBundle("toy");
  CostEngineOptions options;
  options.faults = Faults(0.0, 1.0, 0.0);  // every cell sticky: all fail
  CostService service(bundle.optimizer.get(), &bundle.workload,
                      &bundle.candidates.indexes, 100, options);
  Config config = service.EmptyConfig();
  config.set(0);
  int cells = 0;
  for (int q = 0; q < service.num_queries(); ++q) {
    std::optional<double> cost = service.WhatIfCost(q, config);
    ASSERT_TRUE(cost.has_value());
    // Nothing cached: the degraded answer is the base cost.
    EXPECT_DOUBLE_EQ(*cost, service.BaseCost(q));
    ++cells;
  }
  EXPECT_EQ(service.calls_made(), 0);            // never charged
  EXPECT_TRUE(service.layout().empty());         // no layout entries
  EXPECT_EQ(service.degraded_cells(), cells);    // every cell degraded
  const CostEngineStats stats = service.EngineStats();
  EXPECT_EQ(stats.degraded_cells, cells);
  EXPECT_GT(stats.fault_sticky_failures, 0);
  EXPECT_GT(service.SimulatedWhatIfSeconds(), 0.0)  // failed attempts burn
      << "failed attempts must still burn simulated time";
}

TEST(FaultedEngine, TimeoutsBurnExactlyTheTimeout) {
  const WorkloadBundle& bundle = LoadBundle("toy");
  CostEngineOptions options;
  options.faults = Faults(0.0, 0.0, 1.0);  // every attempt spikes
  options.faults.spike_factor = 1000.0;
  options.retry.max_attempts = 2;
  options.retry.call_timeout_seconds = 0.001;  // far below a spiked call
  options.retry.initial_backoff_seconds = 0.5;
  CostService service(bundle.optimizer.get(), &bundle.workload,
                      &bundle.candidates.indexes, 100, options);
  Config config = service.EmptyConfig();
  config.set(0);
  std::optional<double> cost = service.WhatIfCost(0, config);
  ASSERT_TRUE(cost.has_value());
  EXPECT_EQ(service.calls_made(), 0);
  const CostEngineStats stats = service.EngineStats();
  EXPECT_EQ(stats.fault_timeouts, 2);  // both attempts timed out
  EXPECT_EQ(stats.degraded_cells, 1);
  // 2 timeouts at 0.001 plus one 0.5s backoff between them.
  EXPECT_DOUBLE_EQ(service.SimulatedWhatIfSeconds(), 0.002 + 0.5);
}

TEST(FaultedEngine, DegradedAnswerUsesTheDerivedCost) {
  const WorkloadBundle& bundle = LoadBundle("toy");
  // Seed chosen so this particular schedule leaves some cells working:
  // first evaluate a subset successfully, then force degradation of a
  // superset and check the answer equals the cached-subset minimum.
  CostEngineOptions options;
  options.faults = Faults(0.0, 0.0, 0.0);
  CostService service(bundle.optimizer.get(), &bundle.workload,
                      &bundle.candidates.indexes, 100, options);
  Config sub = service.EmptyConfig();
  sub.set(0);
  std::optional<double> sub_cost = service.WhatIfCost(0, sub);
  ASSERT_TRUE(sub_cost.has_value());

  CostEngineOptions sticky_options;
  sticky_options.faults = Faults(0.0, 1.0, 0.0);
  CostService sticky(bundle.optimizer.get(), &bundle.workload,
                     &bundle.candidates.indexes, 100, sticky_options);
  std::optional<double> s1 = sticky.WhatIfCost(0, sub);  // degrades
  ASSERT_TRUE(s1.has_value());
  EXPECT_DOUBLE_EQ(*s1, sticky.BaseCost(0));
  EXPECT_EQ(sticky.degraded_cells(), 1);
}

// ---- Concurrent batched evaluation == sequential loop, under faults. ----
//
// TPC-H has 22 queries, which clears the executor's 16-cell thread-pool
// threshold, so WhatIfCostMany() runs the retry loops concurrently. The
// fault schedule is a pure per-(cell, attempt) function, so results and
// every counter must be bit-identical to the sequential WhatIfCost() loop.
// This test runs under the TSan leg of tools/run_sanitizers.sh.

void ExpectBatchMatchesLoop(int64_t budget, const FaultOptions& faults) {
  const WorkloadBundle& bundle = LoadBundle("tpch");
  const int m = bundle.workload.num_queries();
  ASSERT_GE(m, static_cast<int>(WhatIfExecutor::kParallelThreshold));
  CostEngineOptions options;
  options.faults = faults;
  CostService batched(bundle.optimizer.get(), &bundle.workload,
                      &bundle.candidates.indexes, budget, options);
  CostService looped(bundle.optimizer.get(), &bundle.workload,
                     &bundle.candidates.indexes, budget, options);
  std::vector<int> all_queries(static_cast<size_t>(m));
  for (int q = 0; q < m; ++q) all_queries[static_cast<size_t>(q)] = q;

  for (size_t pos = 0; pos < 3; ++pos) {
    batched.BeginRound();
    looped.BeginRound();
    Config config = batched.EmptyConfig();
    config.set(pos);
    config.set(pos + 3);
    std::vector<std::optional<double>> many =
        batched.WhatIfCostMany(all_queries, config);
    for (int q = 0; q < m; ++q) {
      std::optional<double> one = looped.WhatIfCost(q, config);
      ASSERT_EQ(many[static_cast<size_t>(q)].has_value(), one.has_value())
          << "q" << q << " pos " << pos;
      if (one.has_value()) {
        EXPECT_EQ(*many[static_cast<size_t>(q)], *one) << "q" << q;
      }
    }
  }
  EXPECT_EQ(batched.calls_made(), looped.calls_made());
  EXPECT_EQ(batched.degraded_cells(), looped.degraded_cells());
  EXPECT_EQ(batched.SimulatedWhatIfSeconds(),
            looped.SimulatedWhatIfSeconds());
  const CostEngineStats sb = batched.EngineStats();
  const CostEngineStats sl = looped.EngineStats();
  EXPECT_EQ(sb.fault_transient_errors, sl.fault_transient_errors);
  EXPECT_EQ(sb.fault_sticky_failures, sl.fault_sticky_failures);
  EXPECT_EQ(sb.fault_timeouts, sl.fault_timeouts);
  EXPECT_EQ(sb.retry_attempts, sl.retry_attempts);
  ASSERT_EQ(batched.layout().size(), looped.layout().size());
  for (size_t i = 0; i < batched.layout().size(); ++i) {
    EXPECT_EQ(batched.layout()[i].query_id, looped.layout()[i].query_id);
    EXPECT_TRUE(batched.layout()[i].config == looped.layout()[i].config);
    EXPECT_EQ(batched.layout()[i].round, looped.layout()[i].round);
  }
}

TEST(FaultedEngine, ConcurrentBatchMatchesSequentialLoop) {
  ExpectBatchMatchesLoop(1000, Faults(0.25, 0.1, 0.1, 17));
}

TEST(FaultedEngine, ConcurrentBatchMatchesSequentialLoopTightBudget) {
  // Budget smaller than one batch: the chunked evaluate-then-commit path
  // must attempt exactly the cells the sequential loop attempts.
  ExpectBatchMatchesLoop(30, Faults(0.3, 0.15, 0.0, 23));
}

// ---- Default off: bit-identical to the fault-free engine. --------------

// Every deterministic field of two runs: the outcome and the engine
// counters (executor wall time is the only nondeterministic one).
void ExpectSameRun(const RunOutcome& a, const RunOutcome& b) {
  EXPECT_EQ(a.true_improvement, b.true_improvement);
  EXPECT_EQ(a.derived_improvement, b.derived_improvement);
  EXPECT_EQ(a.calls_used, b.calls_used);
  EXPECT_EQ(a.config_size, b.config_size);
  EXPECT_EQ(a.config_positions, b.config_positions);
  EXPECT_EQ(a.whatif_seconds, b.whatif_seconds);
  EXPECT_EQ(a.other_seconds, b.other_seconds);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.governor_skipped, b.governor_skipped);
  EXPECT_EQ(a.governor_banked, b.governor_banked);
  EXPECT_EQ(a.governor_reallocated, b.governor_reallocated);
  EXPECT_EQ(a.governor_stop_round, b.governor_stop_round);
  EXPECT_EQ(b.degraded_cells, 0);
  CostEngineStats ea = a.engine;
  CostEngineStats eb = b.engine;
  ea.executor_wall_seconds = eb.executor_wall_seconds = 0.0;
  EXPECT_EQ(ea.ToJson(), eb.ToJson());
}

TEST(FaultedEngine, ZeroRatesMatchFaultFree) {
  // With fault injection *armed* but all rates zero, every attempt
  // succeeds first try: outcome and accounting equal the fault-free
  // engine — the cells take the same path either way.
  for (const char* algorithm : kAllAlgorithms) {
    SCOPED_TRACE(algorithm);
    const WorkloadBundle& bundle = LoadBundle("toy");
    RunSpec plain;
    plain.workload = "toy";
    plain.algorithm = algorithm;
    plain.budget = 60;
    plain.max_indexes = 5;
    plain.seed = 7;
    RunSpec faulted = plain;
    faulted.faults = Faults(0.0, 0.0, 0.0);
    const RunOutcome a = RunOnce(bundle, plain);
    const RunOutcome b = RunOnce(bundle, faulted);
    EXPECT_EQ(a.true_improvement, b.true_improvement);
    EXPECT_EQ(a.derived_improvement, b.derived_improvement);
    EXPECT_EQ(a.calls_used, b.calls_used);
    EXPECT_EQ(a.config_size, b.config_size);
    EXPECT_EQ(a.whatif_seconds, b.whatif_seconds);
    EXPECT_EQ(a.trace, b.trace);
    EXPECT_EQ(b.degraded_cells, 0);
  }
  // Governed batched tuners: the governor's improvement curve is indexed
  // by the charge count, which an armed fault model must not shift. (Toy
  // batches are too small for early stopping to notice; TPC-H's are not.)
  for (const char* algorithm : {"dba-bandits", "no-dba"}) {
    SCOPED_TRACE(std::string("tpch/governed/") + algorithm);
    const WorkloadBundle& bundle = LoadBundle("tpch");
    RunSpec plain;
    plain.workload = "tpch";
    plain.algorithm = algorithm;
    plain.budget = 60;
    plain.max_indexes = 5;
    plain.seed = 7;
    plain.governor = BudgetGovernorOptions::Enabled();
    RunSpec faulted = plain;
    faulted.faults = Faults(0.0, 0.0, 0.0);
    ExpectSameRun(RunOnce(bundle, plain), RunOnce(bundle, faulted));
  }
}

// ---- The headline robustness property: every algorithm completes. ------

void ExpectAllAlgorithmsComplete(const char* workload, int64_t budget) {
  const WorkloadBundle& bundle = LoadBundle(workload);
  for (const char* algorithm : kAllAlgorithms) {
    SCOPED_TRACE(std::string(workload) + "/" + algorithm);
    RunSpec spec;
    spec.workload = workload;
    spec.algorithm = algorithm;
    spec.budget = budget;
    spec.max_indexes = 5;
    spec.seed = 7;
    // The schedule is a pure function of (seed, cell), so algorithms that
    // visit the same cells see correlated draws; this seed gives every
    // algorithm at least one injected fault at these rates.
    spec.faults = Faults(0.1, 0.02, 0.05, 11);
    const RunOutcome outcome = RunOnce(bundle, spec);
    EXPECT_LE(outcome.calls_used, spec.budget);
    EXPECT_GE(outcome.true_improvement, 0.0);
    // The fault model intervened and the run still finished.
    EXPECT_GT(outcome.engine.fault_transient_errors +
                  outcome.engine.fault_sticky_failures +
                  outcome.engine.fault_timeouts,
              0);
    EXPECT_EQ(outcome.degraded_cells, outcome.engine.degraded_cells);
  }
}

TEST(FaultedEngine, AllAlgorithmsCompleteUnderTenPercentFaults) {
  ExpectAllAlgorithmsComplete("toy", 60);
}

TEST(FaultedEngine, AllAlgorithmsCompleteUnderTenPercentFaultsTpch) {
  // 22 queries: a WhatIfCostMany() batch crosses the thread-pool
  // threshold, so the retry loop runs concurrently here.
  ExpectAllAlgorithmsComplete("tpch", 120);
}

TEST(FaultedEngine, AllAlgorithmsCompleteUnderTenPercentFaultsTpcds) {
  ExpectAllAlgorithmsComplete("tpcds", 120);
}

}  // namespace
}  // namespace bati
