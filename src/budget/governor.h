#ifndef BATI_BUDGET_GOVERNOR_H_
#define BATI_BUDGET_GOVERNOR_H_

#include <cstdint>
#include <memory>

#include "budget/early_stop.h"
#include "budget/improvement_curve.h"
#include "budget/reallocator.h"
#include "obs/metrics.h"

namespace bati {

/// Configuration of the budget-governor subsystem. Disabled by default:
/// with `enabled == false` the cost engine never constructs a governor and
/// every run is bit-identical to an ungoverned one. With the governor
/// enabled but both feature flags off — or with all thresholds zero — the
/// governor observes but never intervenes (the provable no-op the property
/// tests pin down).
struct BudgetGovernorOptions {
  /// Master switch for the whole subsystem.
  bool enabled = false;
  /// Wii-style skipping of provably-bounded what-if calls (reallocator).
  bool skip_what_if = true;
  /// Esc-style early stopping on the improvement curve.
  bool early_stop = true;
  ReallocatorOptions realloc;
  EarlyStopOptions stop;

  /// Convenience: a fully enabled governor at default thresholds.
  static BudgetGovernorOptions Enabled() {
    BudgetGovernorOptions o;
    o.enabled = true;
    return o;
  }
  /// Convenience: enabled with every threshold zero (provable no-op).
  static BudgetGovernorOptions ZeroThresholds() {
    BudgetGovernorOptions o;
    o.enabled = true;
    o.realloc.skip_abs_threshold = 0.0;
    o.realloc.skip_rel_threshold = 0.0;
    o.stop.abs_threshold_pct = 0.0;
    o.stop.rel_threshold = 0.0;
    return o;
  }
};

/// Snapshot of the governor's decisions, surfaced through CostEngineStats,
/// `bati_tune --json`, and the bench programs.
struct GovernorStats {
  int64_t skipped_calls = 0;
  int64_t banked_calls = 0;
  int64_t reallocated_calls = 0;
  /// Tuner round at which early stop fired; -1 when it never did.
  int stop_round = -1;
  /// Charged calls at the moment early stop fired; -1 when it never did.
  int64_t stop_calls = -1;
  /// The last computed upper bound on remaining improvement (pct points);
  /// -1 before the first early-stop evaluation.
  double remaining_improvement_ub_pct = -1.0;
};

/// The budget governor, the policy layer between the cost engine and the
/// budget meter. It composes
///
///  * an ImprovementCurve fed by every charged call and round boundary,
///  * an EarlyStopChecker evaluated at round boundaries, and
///  * a BudgetReallocator consulted per uncached cell.
///
/// The engine consults it at three points: OnCell() before charging an
/// uncached what-if cell, OnCharged() after a charged cell has been
/// evaluated and cached, and OnRound() at tuner-declared round boundaries
/// (CostService::BeginRound()).
///
/// Stopping is evaluated only at OnRound(): within a round (and therefore
/// within one batched WhatIfCostMany() charge loop) the stop state is
/// constant, which keeps governed runs deterministic and batch charging
/// aligned with the sequential loop. Decisions depend only on the quotes
/// and notifications received, never on wall-clock time or randomness, so
/// governed runs stay exactly reproducible.
class BudgetGovernor {
 public:
  /// `budget` is the what-if call budget B; `base_workload_cost` the
  /// workload cost at zero spend (the curve's origin).
  BudgetGovernor(const BudgetGovernorOptions& options, int64_t budget,
                 double base_workload_cost);

  /// Decision for one uncached cell about to be charged.
  CellDecision OnCell(const CellQuote& quote);

  /// A charged cell finished evaluating. `quote` is the quote OnCell() saw
  /// (calls_made still pre-charge), `cost` the evaluated what-if cost, and
  /// `best_workload_cost` the engine's optimistic workload floor (sum of
  /// per-query minima over cached cells) after caching this cell.
  void OnCharged(const CellQuote& quote, double cost,
                 double best_workload_cost);

  /// A tuner declared the start of round `round` (1-based, monotone).
  void OnRound(int round, int64_t calls_made, int64_t remaining_budget,
               double best_workload_cost);

  /// True once early stopping has fired. Sticky: from then on the engine
  /// treats the budget as exhausted (WhatIfCost() returns nullopt,
  /// HasBudget() is false), which every tuner already handles as its
  /// termination signal.
  bool ShouldStop() const { return stopped_; }

  const ImprovementCurve& curve() const { return curve_; }
  const BudgetGovernorOptions& options() const { return options_; }
  GovernorStats stats() const;

  /// True when OnCell() will consult the reallocator, i.e. quotes need the
  /// derived upper / cost lower bounds. With skipping off the engine can
  /// hand over cheap quotes (budget state only) and save the bound probes.
  bool WantsCostBounds() const { return options_.skip_what_if; }

  /// Wires decision counters and the remaining-improvement gauge (null
  /// unwires). Pure observation: decisions are unchanged, and governed runs
  /// stay bit-identical with or without a registry.
  void SetObservability(MetricsRegistry* metrics);

 private:
  BudgetGovernorOptions options_;
  ImprovementCurve curve_;
  EarlyStopChecker stop_checker_;
  BudgetReallocator reallocator_;
  bool stopped_ = false;
  int stop_round_ = -1;
  int64_t stop_calls_ = -1;
  // Observability instruments (null when not wired).
  Counter* obs_skips_ = nullptr;
  Counter* obs_stop_evals_ = nullptr;
  Gauge* obs_remaining_ub_pct_ = nullptr;
};

}  // namespace bati

#endif  // BATI_BUDGET_GOVERNOR_H_
