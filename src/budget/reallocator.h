#ifndef BATI_BUDGET_REALLOCATOR_H_
#define BATI_BUDGET_REALLOCATOR_H_

#include <cstdint>

namespace bati {

/// Everything the budget governor may inspect about one uncached what-if
/// cell *before* the cell is charged against the budget. The cost engine
/// computes the bounds; the governor only decides. All costs are in
/// optimizer cost units for the cell's query.
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

/// The governor's verdict for one uncached cell.
enum class CellDecision {
  /// Charge one budget unit and run the optimizer (the ungoverned default).
  kCharge,
  /// Do not charge; answer the caller with `derived_upper` instead. Sound
  /// up to `derived_upper - cost_lower` error in the reported cost.
  kSkip,
};

/// Thresholds for Wii-style what-if call skipping. Comparisons are
/// *strict* and the cost gap is clamped to >= 0, so zero thresholds
/// provably never skip: the reallocator is a no-op at zero thresholds.
struct ReallocatorOptions {
  /// Skip a cell when derived_upper - cost_lower is below this absolute
  /// cost gap...
  double skip_abs_threshold = 0.0;
  /// ... or below this fraction of the cell's query base cost.
  double skip_rel_threshold = 0.01;
};

/// The dynamic budget reallocator: skips what-if calls whose answer is
/// already bracketed tightly by derived-cost bounds, banks the saved budget
/// units, and accounts for their reallocation to later calls.
///
/// A skipped cell's caller receives the derived upper bound d(q, C) — the
/// same value it would fall back to on budget exhaustion — so the decision
/// errs by at most the bracket width derived_upper - cost_lower, which the
/// thresholds cap.
///
/// Bank accounting. The budget B stays a hard cap enforced by the meter;
/// skipping simply leaves units unspent for later. A charged call is
/// counted as *reallocated* when, at charge time, calls_made + skipped >= B
/// — i.e. an ungoverned first-come-first-served run would already have
/// exhausted the budget, so this call was paid for by earlier skips. The
/// invariant  skipped == banked + reallocated  (banked >= 0) is conserved
/// at every step.
class BudgetReallocator {
 public:
  BudgetReallocator(ReallocatorOptions options, int64_t budget);

  /// True when the quote's cost bracket is tighter than the thresholds.
  bool ShouldSkip(const CellQuote& quote) const;

  /// Records a skip decision (one budget unit banked).
  void OnSkip() { ++skipped_; }

  /// Records a charge; `calls_before` is calls_made at charge time.
  void OnCharge(int64_t calls_before) {
    if (calls_before + skipped_ >= budget_) ++reallocated_;
  }

  /// Total skip decisions (budget units saved).
  int64_t skipped() const { return skipped_; }
  /// Saved units re-spent on calls an ungoverned run could not have made.
  int64_t reallocated() const { return reallocated_; }
  /// Saved units still unspent. skipped() == banked() + reallocated().
  int64_t banked() const { return skipped_ - reallocated_; }

 private:
  ReallocatorOptions options_;
  int64_t budget_;
  int64_t skipped_ = 0;
  int64_t reallocated_ = 0;
};

}  // namespace bati

#endif  // BATI_BUDGET_REALLOCATOR_H_
