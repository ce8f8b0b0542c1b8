#ifndef BATI_BUDGET_EARLY_STOP_H_
#define BATI_BUDGET_EARLY_STOP_H_

#include <cstdint>

#include "budget/improvement_curve.h"

namespace bati {

/// Thresholds for Esc-style early stopping. All comparisons are *strict*,
/// so zero thresholds provably never stop (the remaining-improvement upper
/// bound is always >= 0): the checker is a no-op at zero thresholds.
struct EarlyStopOptions {
  /// Stop when the projected remaining improvement is below this many
  /// percentage points.
  double abs_threshold_pct = 0.1;
  /// ... or below this fraction of the improvement already achieved.
  double rel_threshold = 0.005;
  /// Never stop before this fraction of the budget is spent (warm-up; the
  /// curve is too short to extrapolate earlier). Calibrated on the tpch /
  /// tpcds benches: 0.2 stops mcts right after its prior phase, where the
  /// curve plateaus locally before the episode phase lifts it again.
  double min_budget_fraction = 0.3;
  /// Trailing window, in charged calls, over which the improvement rate is
  /// measured. 0 selects max(16, budget / 20).
  int64_t window_calls = 0;
};

/// The early-stopping checker: brackets the improvement still reachable
/// with the unspent budget and signals stop when the bracket collapses
/// below the thresholds.
///
///  * Lower bound on remaining improvement: 0 — the best configuration
///    found never gets worse.
///  * Upper bound: the improvement rate over the trailing window projected
///    across the remaining budget, rate * remaining. Under the empirical
///    diminishing-returns behaviour of the improvement curve (the paper's
///    convergence plots flatten monotonically) the trailing rate bounds the
///    future rate, making the projection an upper bound on what the
///    remaining calls can still buy.
///
/// Stop fires when  ub < abs_threshold_pct  or  ub < rel_threshold * eta,
/// where eta is the improvement already achieved.
class EarlyStopChecker {
 public:
  EarlyStopChecker(EarlyStopOptions options, int64_t budget);

  /// True when tuning should halt given the curve and budget state.
  bool ShouldStop(const ImprovementCurve& curve, int64_t calls_made,
                  int64_t remaining_budget) const;

  /// The upper bound on remaining improvement (percentage points) the
  /// last ShouldStop() evaluation computed; for observability.
  double last_upper_bound_pct() const { return last_upper_bound_pct_; }

 private:
  EarlyStopOptions options_;
  int64_t budget_;
  int64_t window_;
  mutable double last_upper_bound_pct_ = -1.0;
};

}  // namespace bati

#endif  // BATI_BUDGET_EARLY_STOP_H_
