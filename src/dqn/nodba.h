#ifndef BATI_DQN_NODBA_H_
#define BATI_DQN_NODBA_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dqn/network.h"
#include "tuner/tuner.h"

namespace bati {

/// Re-implementation of the No-DBA baseline [Sharma et al.] with the paper's
/// adaptations (Section 7.2.2): one-hot configuration states, what-if costs
/// as rewards (instead of execution time), deep Q-learning with a small
/// CPU-trained MLP. Each round the agent assembles a K-index configuration
/// with an epsilon-greedy policy over its Q-network, spends one what-if call
/// per query to score it, and trains on replayed transitions. The best
/// configuration over all rounds is returned.
class NoDbaTuner : public Tuner {
 public:
  NoDbaTuner(TuningContext ctx, uint64_t seed);

  TuningResult Tune(CostService& service) override;
  std::string name() const override { return "no-dba"; }

  /// Best improvement-so-far after each completed round (Figure 14).
  const std::vector<double>& round_trace() const { return round_trace_; }

  const std::vector<double>* progress_trace() const override {
    return &round_trace_;
  }

 private:
  struct Transition {
    Config state;
    int action = -1;
    double reward = 0.0;
    Config next_state;
    bool terminal = false;
  };

  TuningContext ctx_;
  Rng rng_;
  std::vector<double> round_trace_;
};

}  // namespace bati

#endif  // BATI_DQN_NODBA_H_
