#ifndef BATI_BUDGET_BUDGET_POLICY_H_
#define BATI_BUDGET_BUDGET_POLICY_H_

#include <cstdint>

namespace bati {

/// Everything a budget policy may inspect about one uncached what-if cell
/// *before* the cell is charged against the budget. The cost engine computes
/// the bounds; the policy only decides. All costs are in optimizer cost
/// units for the cell's query.
struct CellQuote {
  int query_id = -1;
  /// c(q, {}): the query's base cost (always known, never charged).
  double base_cost = 0.0;
  /// d(q, C): the Equation-1 derived cost — an upper bound on the true
  /// what-if cost c(q, C), and exactly the value the caller would fall back
  /// to if the call were skipped or the budget were exhausted.
  double derived_upper = 0.0;
  /// A lower bound on c(q, C), clamped into [0, derived_upper]. Combines
  /// the cached-superset bound (cost monotonicity) with the additive
  /// singleton-improvement bound; see DerivedCostIndex.
  double cost_lower = 0.0;
  /// Budget state at decision time (before any charge for this cell).
  int64_t calls_made = 0;
  int64_t remaining_budget = 0;
};

/// A policy's verdict for one uncached cell.
enum class CellDecision {
  /// Charge one budget unit and run the optimizer (the ungoverned default).
  kCharge,
  /// Do not charge; answer the caller with `derived_upper` instead. Sound
  /// up to `derived_upper - cost_lower` error in the reported cost.
  kSkip,
};

/// Interface between the cost engine and the budget-governor subsystem.
/// The engine consults the policy at three points:
///
///  * OnCell()    — before charging an uncached what-if cell;
///  * OnCharged() — after a charged cell has been evaluated and cached;
///  * OnRound()   — at tuner-declared round boundaries
///    (CostService::BeginRound()).
///
/// ShouldStop() is sticky: once it returns true the engine treats the
/// budget as exhausted (WhatIfCost() returns nullopt, HasBudget() is
/// false), which every tuner already handles as its termination signal.
///
/// A policy must be deterministic: decisions may depend only on the quotes
/// and notifications it received, never on wall-clock time or randomness,
/// so governed runs stay exactly reproducible.
class BudgetPolicy {
 public:
  virtual ~BudgetPolicy() = default;

  /// Decision for one uncached cell about to be charged.
  virtual CellDecision OnCell(const CellQuote& quote) = 0;

  /// A charged cell finished evaluating. `quote` is the quote OnCell() saw
  /// (calls_made still pre-charge), `cost` the evaluated what-if cost, and
  /// `best_workload_cost` the engine's optimistic workload floor (sum of
  /// per-query minima over cached cells) after caching this cell.
  virtual void OnCharged(const CellQuote& quote, double cost,
                         double best_workload_cost) = 0;

  /// A tuner declared the start of round `round` (1-based, monotone).
  virtual void OnRound(int round, int64_t calls_made, int64_t remaining_budget,
                       double best_workload_cost) = 0;

  /// True once the policy has decided tuning should halt.
  virtual bool ShouldStop() const = 0;
};

}  // namespace bati

#endif  // BATI_BUDGET_BUDGET_POLICY_H_
