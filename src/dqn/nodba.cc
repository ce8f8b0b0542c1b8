#include "dqn/nodba.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>

#include "common/macros.h"

namespace bati {

namespace {

/// The paper's adaptation (Section 7.2.2): three hidden layers of 96, ReLU.
constexpr size_t kHiddenWidth = 96;
constexpr int kHiddenLayers = 3;
constexpr double kLearningRate = 1e-3;
constexpr double kGamma = 0.95;
constexpr double kEpsilonStart = 1.0;
constexpr double kEpsilonEnd = 0.05;
/// Rounds over which epsilon decays linearly.
constexpr int kEpsilonDecayRounds = 30;
constexpr size_t kReplayCapacity = 20000;
constexpr size_t kBatchSize = 32;
constexpr int kTrainBatchesPerRound = 4;
constexpr int kTargetSyncRounds = 5;

/// Writes the one-hot encoding h_C of a configuration into a matrix row.
void EncodeState(const Config& config, Matrix& batch, size_t row) {
  for (size_t pos : config.ToIndices()) batch.at(row, pos) = 1.0;
}

}  // namespace

NoDbaTuner::NoDbaTuner(TuningContext ctx, uint64_t seed)
    : ctx_(std::move(ctx)), rng_(seed) {}

TuningResult NoDbaTuner::Tune(CostService& service) {
  round_trace_.clear();
  const int n = service.num_candidates();
  const int m = service.num_queries();
  const int k_max = ctx_.constraints.max_indexes;

  std::vector<size_t> layers;
  layers.push_back(static_cast<size_t>(n));
  layers.insert(layers.end(), kHiddenLayers, kHiddenWidth);
  layers.push_back(static_cast<size_t>(n));
  Mlp q_net(layers, rng_);
  Mlp target_net(layers, rng_);
  target_net.CopyFrom(q_net);

  std::deque<Transition> replay;
  Config best = service.EmptyConfig();
  double best_cost = service.BaseWorkloadCost();
  const double base = service.BaseWorkloadCost();

  auto feasible_actions = [&](const Config& config) {
    std::vector<int> out;
    const double bytes = StorageBytes(ctx_, config);
    for (int a = 0; a < n; ++a) {
      if (config.test(static_cast<size_t>(a))) continue;
      if (!FitsStorage(ctx_, bytes, a)) continue;
      out.push_back(a);
    }
    return out;
  };

  int round = 0;
  int zero_call_rounds = 0;
  while (service.HasBudget()) {
    service.BeginRound("dqn.round");
    int64_t calls_before = service.calls_made();
    double epsilon =
        kEpsilonStart +
        (kEpsilonEnd - kEpsilonStart) *
            std::min(1.0, static_cast<double>(round) / kEpsilonDecayRounds);

    // ---- Assemble a configuration with epsilon-greedy over the Q-net. ----
    Config config = service.EmptyConfig();
    std::vector<Transition> episode;
    for (int step = 0; step < k_max; ++step) {
      std::vector<int> actions = feasible_actions(config);
      if (actions.empty()) break;
      int chosen;
      if (rng_.Bernoulli(epsilon)) {
        chosen = actions[static_cast<size_t>(rng_.UniformInt(
            0, static_cast<int64_t>(actions.size()) - 1))];
      } else {
        Matrix state(1, static_cast<size_t>(n));
        EncodeState(config, state, 0);
        Matrix q_values = q_net.Forward(state);
        chosen = actions.front();
        double best_q = -std::numeric_limits<double>::infinity();
        for (int a : actions) {
          double q = q_values.at(0, static_cast<size_t>(a));
          if (q > best_q) {
            best_q = q;
            chosen = a;
          }
        }
      }
      Transition t;
      t.state = config;
      t.action = chosen;
      config = config.With(static_cast<size_t>(chosen));
      t.next_state = config;
      t.terminal = (step == k_max - 1);
      episode.push_back(std::move(t));
    }
    if (episode.empty()) break;
    episode.back().terminal = true;

    // ---- Observe: one what-if call per query (a "round"), batched through
    // the engine; budget is still charged in query order. ----
    double round_cost = 0.0;
    bool budget_ran_out = false;
    std::vector<int> round_queries(static_cast<size_t>(m));
    std::iota(round_queries.begin(), round_queries.end(), 0);
    std::vector<std::optional<double>> costs =
        service.WhatIfCostMany(round_queries, config);
    for (int q = 0; q < m; ++q) {
      const auto& c = costs[static_cast<size_t>(q)];
      if (!c.has_value()) {
        budget_ran_out = true;
        round_cost += service.DerivedCost(q, config);
        continue;
      }
      round_cost += *c;
    }
    double improvement = base > 0.0 ? (1.0 - round_cost / base) : 0.0;
    episode.back().reward = improvement;

    for (Transition& t : episode) {
      replay.push_back(std::move(t));
      if (replay.size() > kReplayCapacity) replay.pop_front();
    }

    // ---- Train on replayed minibatches (deep Q-learning). ----
    for (int b = 0; b < kTrainBatchesPerRound &&
                    replay.size() >= kBatchSize;
         ++b) {
      size_t bs = kBatchSize;
      Matrix states(bs, static_cast<size_t>(n));
      Matrix next_states(bs, static_cast<size_t>(n));
      std::vector<const Transition*> sample(bs);
      for (size_t i = 0; i < bs; ++i) {
        sample[i] = &replay[static_cast<size_t>(rng_.UniformInt(
            0, static_cast<int64_t>(replay.size()) - 1))];
        EncodeState(sample[i]->state, states, i);
        EncodeState(sample[i]->next_state, next_states, i);
      }
      Matrix next_q = target_net.Forward(next_states);
      Matrix target(bs, static_cast<size_t>(n));
      Matrix mask(bs, static_cast<size_t>(n));
      for (size_t i = 0; i < bs; ++i) {
        double y = sample[i]->reward;
        if (!sample[i]->terminal) {
          // max over actions not already in the next state.
          double best_next = 0.0;
          for (int a = 0; a < n; ++a) {
            if (sample[i]->next_state.test(static_cast<size_t>(a))) continue;
            best_next =
                std::max(best_next, next_q.at(i, static_cast<size_t>(a)));
          }
          y += kGamma * best_next;
        }
        target.at(i, static_cast<size_t>(sample[i]->action)) = y;
        mask.at(i, static_cast<size_t>(sample[i]->action)) = 1.0;
      }
      q_net.TrainStep(states, target, mask, kLearningRate);
    }

    if (round_cost < best_cost) {
      best_cost = round_cost;
      best = config;
    }
    round_trace_.push_back(base > 0.0 ? (1.0 - best_cost / base) * 100.0
                                      : 0.0);
    ++round;
    if (round % kTargetSyncRounds == 0) target_net.CopyFrom(q_net);
    if (budget_ran_out) break;
    // Fully cached rounds spend no budget; bail out if the policy froze.
    if (service.calls_made() == calls_before) {
      if (++zero_call_rounds >= 20) break;
    } else {
      zero_call_rounds = 0;
    }
  }

  TuningResult result;
  result.algorithm = name();
  result.best_config = best;
  result.derived_improvement = service.DerivedImprovement(best);
  result.what_if_calls = service.calls_made();
  // The trace always ends at the recommendation actually returned.
  if (round_trace_.empty() ||
      round_trace_.back() != result.derived_improvement) {
    round_trace_.push_back(result.derived_improvement);
  }
  return result;
}

}  // namespace bati
