#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "budget/early_stop.h"
#include "budget/governor.h"
#include "budget/improvement_curve.h"
#include "budget/reallocator.h"
#include "harness/experiment.h"

namespace bati {
namespace {

const char* kAllAlgorithms[] = {
    "vanilla-greedy", "two-phase-greedy", "autoadmin-greedy", "dba-bandits",
    "no-dba",         "dta",              "relaxation",       "mcts",
};

// ---- Property: a zero-threshold governor is a provable no-op. ----------
//
// Every skip and stop comparison in the governor is strict against a
// quantity clamped to >= 0, so with all thresholds at zero the governor
// observes but never intervenes. The tuning outcome must therefore be
// bit-identical to an ungoverned run, for every algorithm.

void ExpectIdenticalOutcomes(const std::string& workload,
                             const std::string& algorithm, int64_t budget) {
  const WorkloadBundle& bundle = LoadBundle(workload);
  RunSpec plain;
  plain.workload = workload;
  plain.algorithm = algorithm;
  plain.budget = budget;
  plain.max_indexes = 5;
  plain.seed = 7;

  RunSpec governed = plain;
  governed.governor = BudgetGovernorOptions::ZeroThresholds();

  RunOutcome a = RunOnce(bundle, plain);
  RunOutcome b = RunOnce(bundle, governed);

  SCOPED_TRACE(workload + "/" + algorithm);
  EXPECT_EQ(a.true_improvement, b.true_improvement);
  EXPECT_EQ(a.derived_improvement, b.derived_improvement);
  EXPECT_EQ(a.calls_used, b.calls_used);
  EXPECT_EQ(a.config_size, b.config_size);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.engine.cache_hits, b.engine.cache_hits);
  // The governor observed but never intervened.
  EXPECT_EQ(b.engine.governor_skipped_calls, 0);
  EXPECT_EQ(b.engine.governor_banked_calls, 0);
  EXPECT_EQ(b.engine.governor_reallocated_calls, 0);
  EXPECT_EQ(b.engine.governor_stop_round, -1);
}

TEST(GovernorNoOp, ZeroThresholdsAllAlgorithmsToy) {
  for (const char* algorithm : kAllAlgorithms) {
    ExpectIdenticalOutcomes("toy", algorithm, 60);
  }
}

TEST(GovernorNoOp, ZeroThresholdsAllAlgorithmsTpch) {
  for (const char* algorithm : kAllAlgorithms) {
    ExpectIdenticalOutcomes("tpch", algorithm, 200);
  }
}

TEST(GovernorNoOp, ZeroThresholdsSampledAlgorithmsTpcds) {
  // Keep the large workload to a representative subset for test runtime.
  for (const char* algorithm : {"two-phase-greedy", "mcts", "dta"}) {
    ExpectIdenticalOutcomes("tpcds", algorithm, 300);
  }
}

TEST(GovernorNoOp, DisabledGovernorLeavesStatsEmpty) {
  const WorkloadBundle& bundle = LoadBundle("toy");
  RunSpec spec;
  spec.workload = "toy";
  spec.algorithm = "vanilla-greedy";
  spec.budget = 50;
  RunOutcome out = RunOnce(bundle, spec);
  EXPECT_EQ(out.engine.governor_skipped_calls, 0);
  EXPECT_EQ(out.engine.governor_stop_round, -1);
  EXPECT_EQ(out.engine.governor_stop_calls, -1);
}

// ---- ImprovementCurve units. -------------------------------------------

TEST(ImprovementCurve, BestCostIsMonotoneNonIncreasing) {
  ImprovementCurve curve(100.0);
  curve.Observe(1, 90.0);
  curve.Observe(2, 95.0);  // worse observation: clamped, never rises
  curve.Observe(3, 80.0);
  EXPECT_EQ(curve.points().size(), 3u);
  EXPECT_EQ(curve.CostAt(0), 100.0);
  EXPECT_EQ(curve.CostAt(1), 90.0);
  EXPECT_EQ(curve.CostAt(2), 90.0);  // the rise was clamped
  EXPECT_EQ(curve.CostAt(3), 80.0);
  EXPECT_EQ(curve.best_cost(), 80.0);
  double prev = curve.base_cost();
  for (const ImprovementCurve::Point& p : curve.points()) {
    EXPECT_LE(p.best_cost, prev);
    prev = p.best_cost;
  }
}

TEST(ImprovementCurve, CacheHitsDoNotAdvanceBudgetAxis) {
  ImprovementCurve curve(100.0);
  curve.Observe(5, 90.0);
  // A cheaper cost at the same spend (e.g. a cache hit tightening the
  // floor) updates the existing point instead of adding a new x.
  curve.Observe(5, 85.0);
  ASSERT_EQ(curve.points().size(), 1u);
  EXPECT_EQ(curve.points().back().calls, 5);
  EXPECT_EQ(curve.points().back().best_cost, 85.0);
  // X stays strictly increasing across distinct spends.
  curve.Observe(6, 84.0);
  ASSERT_EQ(curve.points().size(), 2u);
  EXPECT_LT(curve.points()[0].calls, curve.points()[1].calls);
}

TEST(ImprovementCurve, GainSinceAndImprovementPercent) {
  ImprovementCurve curve(200.0);
  curve.Observe(10, 150.0);
  curve.Observe(20, 100.0);
  EXPECT_DOUBLE_EQ(curve.ImprovementPercent(), 50.0);
  EXPECT_DOUBLE_EQ(curve.GainSince(10), 25.0);
  EXPECT_DOUBLE_EQ(curve.GainSince(20), 0.0);
  EXPECT_GE(curve.GainSince(0), 0.0);
}

TEST(ImprovementCurve, MarkRoundRecordsSpendAndCost) {
  ImprovementCurve curve(100.0);
  curve.Observe(3, 70.0);
  curve.MarkRound(1, 3);
  curve.Observe(8, 60.0);
  curve.MarkRound(2, 8);
  ASSERT_EQ(curve.rounds().size(), 2u);
  EXPECT_EQ(curve.rounds()[0].round, 1);
  EXPECT_EQ(curve.rounds()[0].calls, 3);
  EXPECT_EQ(curve.rounds()[0].best_cost, 70.0);
  EXPECT_EQ(curve.rounds()[1].best_cost, 60.0);
}

// ---- BudgetReallocator accounting. -------------------------------------

TEST(Reallocator, ZeroThresholdsNeverSkipEvenOnZeroGap) {
  ReallocatorOptions zero;
  zero.skip_abs_threshold = 0.0;
  zero.skip_rel_threshold = 0.0;
  BudgetReallocator realloc(zero, 100);
  CellQuote quote;
  quote.base_cost = 100.0;
  quote.derived_upper = 50.0;
  quote.cost_lower = 50.0;  // gap == 0: still must not skip (strict <)
  EXPECT_FALSE(realloc.ShouldSkip(quote));
}

TEST(Reallocator, SkipsTightBracketsAtPositiveThresholds) {
  ReallocatorOptions opt;
  opt.skip_abs_threshold = 0.0;
  opt.skip_rel_threshold = 0.01;
  BudgetReallocator realloc(opt, 100);
  CellQuote tight;
  tight.base_cost = 100.0;
  tight.derived_upper = 50.5;
  tight.cost_lower = 50.0;  // gap 0.5 < 1.0 = rel * base
  EXPECT_TRUE(realloc.ShouldSkip(tight));
  CellQuote wide = tight;
  wide.cost_lower = 40.0;  // gap 10.5 >= 1.0
  EXPECT_FALSE(realloc.ShouldSkip(wide));
}

TEST(Reallocator, BankConservationInvariant) {
  BudgetReallocator realloc(ReallocatorOptions{}, /*budget=*/4);
  // 3 skips while the FCFS budget would still have run: all banked.
  realloc.OnSkip();
  realloc.OnCharge(0);
  realloc.OnSkip();
  realloc.OnCharge(1);
  realloc.OnSkip();
  EXPECT_EQ(realloc.skipped(), 3);
  EXPECT_EQ(realloc.reallocated(), 0);
  EXPECT_EQ(realloc.banked(), 3);
  // calls_before + skipped >= B: an ungoverned run would be exhausted, so
  // these charges are paid for by the earlier skips.
  realloc.OnCharge(2);  // 2 + 3 >= 4 -> reallocated
  realloc.OnCharge(3);  // 3 + 3 >= 4 -> reallocated
  EXPECT_EQ(realloc.reallocated(), 2);
  EXPECT_EQ(realloc.banked(), 1);
  EXPECT_EQ(realloc.skipped(), realloc.banked() + realloc.reallocated());
  EXPECT_GE(realloc.banked(), 0);
}

// ---- EarlyStopChecker. --------------------------------------------------

TEST(EarlyStop, ZeroThresholdsNeverStop) {
  EarlyStopOptions zero;
  zero.abs_threshold_pct = 0.0;
  zero.rel_threshold = 0.0;
  zero.min_budget_fraction = 0.0;
  zero.window_calls = 4;
  EarlyStopChecker checker(zero, /*budget=*/100);
  ImprovementCurve curve(100.0);
  curve.Observe(50, 100.0);  // perfectly flat: ub == 0, still no stop
  EXPECT_FALSE(checker.ShouldStop(curve, 50, 50));
  EXPECT_EQ(checker.last_upper_bound_pct(), 0.0);
}

TEST(EarlyStop, FlatCurveStopsAfterWarmup) {
  EarlyStopOptions opt;  // defaults: abs 0.1 pct pts
  opt.window_calls = 10;
  EarlyStopChecker checker(opt, /*budget=*/100);
  ImprovementCurve curve(100.0);
  curve.Observe(10, 60.0);
  curve.Observe(50, 60.0);  // no gain for 40 calls
  // Before the min-budget warmup: no stop regardless of the curve.
  EXPECT_FALSE(checker.ShouldStop(curve, 15, 85));
  // Past warmup with a flat trailing window: stop.
  EXPECT_TRUE(checker.ShouldStop(curve, 50, 50));
}

TEST(EarlyStop, SteepCurveKeepsRunning) {
  EarlyStopOptions opt;
  opt.window_calls = 10;
  EarlyStopChecker checker(opt, /*budget=*/100);
  ImprovementCurve curve(100.0);
  curve.Observe(40, 80.0);
  curve.Observe(50, 60.0);  // 20 pct points over the trailing 10 calls
  EXPECT_FALSE(checker.ShouldStop(curve, 50, 50));
  EXPECT_GT(checker.last_upper_bound_pct(), 0.1);
}

// ---- Governed end-to-end smoke test. ------------------------------------

TEST(GovernorSmoke, DefaultThresholdsInterveneAndStayWithinBudget) {
  const WorkloadBundle& bundle = LoadBundle("tpch");
  RunSpec spec;
  spec.workload = "tpch";
  spec.algorithm = "two-phase-greedy";
  spec.budget = 400;
  spec.max_indexes = 5;
  spec.governor = BudgetGovernorOptions::Enabled();
  RunOutcome out = RunOnce(bundle, spec);
  // The meter stays a hard cap regardless of skipping.
  EXPECT_LE(out.calls_used, spec.budget);
  // Accounting invariant surfaces intact through the harness.
  EXPECT_EQ(out.engine.governor_skipped_calls,
            out.engine.governor_banked_calls +
                out.engine.governor_reallocated_calls);
  EXPECT_GE(out.engine.governor_banked_calls, 0);
  // The run still produces a usable recommendation.
  EXPECT_GT(out.derived_improvement, 0.0);
}

}  // namespace
}  // namespace bati
