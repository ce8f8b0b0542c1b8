#ifndef BATI_DTA_DTA_TUNER_H_
#define BATI_DTA_DTA_TUNER_H_

#include <string>
#include <vector>

#include "tuner/greedy.h"
#include "tuner/tuner.h"

namespace bati {

/// A Database-Tuning-Advisor-like anytime tuner (paper Section 7.3's
/// comparison point). Mirrors DTA's time-sliced architecture: queries are
/// consumed in batches ordered by a cost-based priority queue (most expensive
/// first); each slice tunes its batch at query level (greedy + FCFS), merges
/// candidate winners (index merging), and refreshes a workload-level greedy
/// recommendation over everything seen so far. The recommendation is anytime:
/// whenever the budget runs out, the best configuration found so far stands.
/// Because expensive queries are tuned first, budget can be exhausted on a
/// costly query before broadly useful indexes are found — reproducing the
/// non-monotonic quality-vs-budget behaviour the paper observes for DTA.
class DtaTuner : public Tuner {
 public:
  explicit DtaTuner(TuningContext ctx);

  TuningResult Tune(CostService& service) override;
  std::string name() const override { return "dta"; }

 private:
  TuningContext ctx_;
};

}  // namespace bati

#endif  // BATI_DTA_DTA_TUNER_H_
