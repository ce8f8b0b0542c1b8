#ifndef BATI_BANDIT_DBA_BANDITS_H_
#define BATI_BANDIT_DBA_BANDITS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tuner/tuner.h"

namespace bati {

/// Re-implementation of the DBA-bandits baseline [Perera et al.] in the
/// paper's "static workload" setting (Section 7.2.1): a contextual
/// combinatorial bandit (C2UCB-style) with a linear reward model over
/// hand-crafted index features. Each round selects a super-arm of up to K
/// indexes by UCB score, then spends one what-if call per workload query to
/// observe the configuration's cost and refine the model; rounds repeat until
/// the what-if budget is exhausted. The best configuration over all rounds is
/// returned, mirroring how the paper reports this baseline.
class DbaBanditsTuner : public Tuner {
 public:
  DbaBanditsTuner(TuningContext ctx, uint64_t seed);

  TuningResult Tune(CostService& service) override;
  std::string name() const override { return "dba-bandits"; }

  /// Best true-improvement-so-far after each completed round (Figure 14).
  const std::vector<double>& round_trace() const { return round_trace_; }

  const std::vector<double>* progress_trace() const override {
    return &round_trace_;
  }

 private:
  std::vector<double> Featurize(int candidate_pos) const;

  TuningContext ctx_;
  Rng rng_;
  std::vector<double> round_trace_;
};

}  // namespace bati

#endif  // BATI_BANDIT_DBA_BANDITS_H_
