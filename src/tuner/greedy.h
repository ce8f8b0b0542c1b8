#ifndef BATI_TUNER_GREEDY_H_
#define BATI_TUNER_GREEDY_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "tuner/tuner.h"

namespace bati {

/// Decides whether the greedy core may spend a what-if call on a
/// (query, configuration) cell; when it does not (or budget is gone) the
/// derived cost is used instead. This is how the FCFS and
/// atomic-configuration budget-allocation strategies of Section 4.2 are
/// expressed as layouts over the budget allocation matrix. A plain value:
/// a call is allowed iff the configuration has at most `max_size` members
/// and fewer than `call_limit` calls have been made so far.
struct WhatIfFilter {
  int64_t max_size = std::numeric_limits<int64_t>::max();
  int64_t call_limit = std::numeric_limits<int64_t>::max();

  bool Allows(size_t config_size, int64_t calls_made) const {
    return calls_made < CallLimit(config_size);
  }

  /// The call limit in effect for configurations of `config_size` members:
  /// `call_limit`, or INT64_MIN (no call) above `max_size`.
  int64_t CallLimit(size_t config_size) const {
    return static_cast<int64_t>(config_size) <= max_size
               ? call_limit
               : std::numeric_limits<int64_t>::min();
  }
};

/// Always allow (plain FCFS: spend budget until it runs out).
constexpr WhatIfFilter AllowAllWhatIf() {
  return {};
}

/// Allow only atomic configurations of size <= `atomic_size` (AutoAdmin's
/// special-configuration strategy; Figure 5(d) uses size 1).
constexpr WhatIfFilter AtomicOnlyWhatIf(int atomic_size) {
  return {.max_size = atomic_size};
}

/// Never allow, not even on the empty configuration (pure cost-derivation
/// search; used by MCTS's Best-Greedy extraction, which must not spend
/// budget).
constexpr WhatIfFilter DenyAllWhatIf() {
  return {.call_limit = std::numeric_limits<int64_t>::min()};
}

/// The greedy configuration-enumeration core (paper Algorithm 1) restricted
/// to the queries in `query_ids` and the candidate positions in `allowed`,
/// starting from `initial` (normally empty). Costs go through `service`
/// under `filter`; when a what-if call is disallowed or the budget is
/// exhausted, the derived cost is used — incrementally, via the engine's
/// posting-list index (CostService::ExtensionCost), so the inner argmax
/// does not rescan the cache per candidate. An extension that no cached
/// cell contains and that cannot spend a call is priced d(W', best) in one
/// step, with no per-query work. Respects the cardinality and storage
/// constraints in `ctx`. When `trace` is non-null, the derived improvement
/// after each accepted extension is appended to it. Returns the best
/// configuration found.
Config GreedyEnumerate(const TuningContext& ctx, CostService& service,
                       const std::vector<int>& query_ids,
                       const std::vector<int>& allowed, const Config& initial,
                       const WhatIfFilter& filter,
                       std::vector<double>* trace = nullptr);

/// Vanilla greedy (Algorithm 1) over the whole workload with FCFS budget
/// allocation — the first baseline of Section 4.2.
class GreedyTuner : public Tuner {
 public:
  explicit GreedyTuner(TuningContext ctx) : ctx_(std::move(ctx)) {}
  TuningResult Tune(CostService& service) override;
  std::string name() const override { return "vanilla-greedy"; }
  const std::vector<double>* progress_trace() const override {
    return &trace_;
  }

 private:
  TuningContext ctx_;
  std::vector<double> trace_;
};

/// Two-phase greedy (Algorithm 2): per-query greedy first, then greedy over
/// the union of per-query winners, FCFS within both phases.
class TwoPhaseGreedyTuner : public Tuner {
 public:
  explicit TwoPhaseGreedyTuner(TuningContext ctx) : ctx_(std::move(ctx)) {}
  TuningResult Tune(CostService& service) override;
  std::string name() const override { return "two-phase-greedy"; }
  const std::vector<double>* progress_trace() const override {
    return &trace_;
  }

 private:
  TuningContext ctx_;
  std::vector<double> trace_;
};

/// AutoAdmin greedy: two-phase search where what-if calls are spent only on
/// atomic (singleton) configurations; all larger configurations use derived
/// costs (Section 4.2.2, "special configurations").
class AutoAdminGreedyTuner : public Tuner {
 public:
  explicit AutoAdminGreedyTuner(TuningContext ctx) : ctx_(std::move(ctx)) {}
  TuningResult Tune(CostService& service) override;
  std::string name() const override { return "autoadmin-greedy"; }
  const std::vector<double>* progress_trace() const override {
    return &trace_;
  }

 private:
  TuningContext ctx_;
  std::vector<double> trace_;
};

}  // namespace bati

#endif  // BATI_TUNER_GREEDY_H_
