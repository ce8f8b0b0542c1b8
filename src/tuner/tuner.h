#ifndef BATI_TUNER_TUNER_H_
#define BATI_TUNER_TUNER_H_

#include <string>

#include "tuner/candidate_gen.h"
#include "whatif/cost_service.h"

namespace bati {

/// Constraints on the *outcome* of tuning (distinct from the what-if-call
/// budget, which constrains the search itself; paper Section 1).
struct TuningConstraints {
  /// Cardinality constraint K: maximum indexes in the recommendation.
  int max_indexes = 10;
  /// Storage constraint in bytes; 0 disables it. The paper's DTA comparison
  /// uses 3x the database size.
  double max_storage_bytes = 0.0;
};

/// Everything a tuner needs besides the metered cost service.
struct TuningContext {
  const Workload* workload = nullptr;
  const CandidateSet* candidates = nullptr;
  TuningConstraints constraints;
};

/// Outcome of one tuning run.
struct TuningResult {
  Config best_config;
  /// eta(W, C) by derived cost at the end of the run, percent.
  double derived_improvement = 0.0;
  /// What-if calls actually consumed.
  int64_t what_if_calls = 0;
  std::string algorithm;
};

/// Interface of all budget-aware configuration-enumeration algorithms. A
/// tuner observes query costs only through the CostService, which meters the
/// what-if budget.
class Tuner {
 public:
  virtual ~Tuner() = default;

  /// Runs configuration enumeration until the result is final or the
  /// service's budget is exhausted.
  virtual TuningResult Tune(CostService& service) = 0;

  /// Short display name, e.g. "vanilla-greedy".
  virtual std::string name() const = 0;

  /// Best-improvement-so-far after each episode/round of the last Tune()
  /// call, for convergence plots (paper Figures 14 and 21); nullptr when the
  /// algorithm has no incremental notion of progress.
  virtual const std::vector<double>* progress_trace() const {
    return nullptr;
  }
};

/// Total index storage of `config` in bytes, summed over its members in
/// ascending position order; 0 when the storage constraint is disabled
/// (FitsStorage() then never reads it).
double StorageBytes(const TuningContext& ctx, const Config& config);

/// True if adding candidate `pos` to a configuration whose StorageBytes()
/// is `config_bytes` keeps total index storage within the constraint
/// (always true when the constraint is disabled).
inline bool FitsStorage(const TuningContext& ctx, double config_bytes,
                        int pos) {
  const double max = ctx.constraints.max_storage_bytes;
  if (max <= 0.0) return true;
  const double size = ctx.candidates->size_bytes[static_cast<size_t>(pos)];
  return config_bytes + size <= max;
}

}  // namespace bati

#endif  // BATI_TUNER_TUNER_H_
