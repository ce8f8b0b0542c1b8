#include "bandit/dba_bandits.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <set>

#include "common/macros.h"
#include "tuner/features.h"

namespace bati {

namespace {
constexpr int kNumFeatures = kIndexFeatureCount;
/// UCB exploration multiplier alpha.
constexpr double kAlpha = 0.6;
/// Ridge regularization of the linear model.
constexpr double kRidgeLambda = 1.0;
}  // namespace

DbaBanditsTuner::DbaBanditsTuner(TuningContext ctx, uint64_t seed)
    : ctx_(std::move(ctx)), rng_(seed) {}

std::vector<double> DbaBanditsTuner::Featurize(int candidate_pos) const {
  return IndexFeatures(ctx_, candidate_pos);
}

TuningResult DbaBanditsTuner::Tune(CostService& service) {
  round_trace_.clear();
  const int n = service.num_candidates();
  const int m = service.num_queries();
  const int k_max = ctx_.constraints.max_indexes;

  std::vector<std::vector<double>> features;
  features.reserve(static_cast<size_t>(n));
  for (int a = 0; a < n; ++a) features.push_back(Featurize(a));

  // Ridge model state: V = lambda * I + sum x x^T, bvec = sum r x.
  std::vector<std::vector<double>> v(kNumFeatures,
                                     std::vector<double>(kNumFeatures, 0.0));
  for (int i = 0; i < kNumFeatures; ++i) {
    v[static_cast<size_t>(i)][static_cast<size_t>(i)] = kRidgeLambda;
  }
  std::vector<double> bvec(kNumFeatures, 0.0);

  Config best = service.EmptyConfig();
  double best_cost = service.BaseWorkloadCost();

  int zero_call_rounds = 0;
  while (service.HasBudget()) {
    service.BeginRound("bandit.round");
    int64_t calls_before = service.calls_made();
    std::vector<double> theta = SolveLinear(v, bvec);

    // Confidence width: alpha * sqrt(x^T V^{-1} x) approximated by solving
    // V y = x and taking sqrt(x . y). A small random tie-break keeps the
    // super-arm from freezing once the model stops moving.
    auto ucb = [&](int a) {
      const std::vector<double>& x = features[static_cast<size_t>(a)];
      std::vector<double> y = SolveLinear(v, x);
      double width = std::sqrt(std::max(0.0, DotProduct(x, y)));
      return DotProduct(theta, x) + kAlpha * width +
             rng_.Normal(0.0, 0.005);
    };

    // Super-arm: top-K by UCB under the storage constraint.
    std::vector<std::pair<double, int>> scored;
    scored.reserve(static_cast<size_t>(n));
    for (int a = 0; a < n; ++a) scored.emplace_back(ucb(a), a);
    std::sort(scored.begin(), scored.end(),
              [](const auto& l, const auto& r) { return l.first > r.first; });
    Config chosen = service.EmptyConfig();
    double chosen_bytes = 0.0;
    for (const auto& [score, a] : scored) {
      if (static_cast<int>(chosen.count()) >= k_max) break;
      if (!FitsStorage(ctx_, chosen_bytes, a)) continue;
      chosen.set(static_cast<size_t>(a));
      chosen_bytes = StorageBytes(ctx_, chosen);
    }
    if (chosen.empty()) break;

    // Observe: one what-if call per query for the chosen configuration,
    // batched through the engine (budget is still charged in query order).
    double round_cost = 0.0;
    bool budget_ran_out = false;
    std::vector<double> per_query_delta(static_cast<size_t>(m), 0.0);
    std::vector<int> round_queries(static_cast<size_t>(m));
    std::iota(round_queries.begin(), round_queries.end(), 0);
    std::vector<std::optional<double>> costs =
        service.WhatIfCostMany(round_queries, chosen);
    for (int q = 0; q < m; ++q) {
      const auto& c = costs[static_cast<size_t>(q)];
      if (!c.has_value()) {
        budget_ran_out = true;
        // Fall back to derived for the queries the budget never reached.
        round_cost += service.DerivedCost(q, chosen);
        continue;
      }
      round_cost += *c;
      per_query_delta[static_cast<size_t>(q)] = service.BaseCost(q) - *c;
    }

    // Reward attribution: each query's improvement is split evenly across
    // the chosen indexes on tables that query touches.
    std::vector<double> arm_reward(static_cast<size_t>(n), 0.0);
    std::vector<size_t> chosen_positions = chosen.ToIndices();
    const double base = service.BaseWorkloadCost();
    for (int q = 0; q < m; ++q) {
      double delta = per_query_delta[static_cast<size_t>(q)];
      if (delta <= 0.0) continue;
      std::set<int> touched;
      for (const QueryScan& s :
           ctx_.workload->queries[static_cast<size_t>(q)].scans) {
        touched.insert(s.table_id);
      }
      std::vector<size_t> responsible;
      for (size_t p : chosen_positions) {
        if (touched.count(ctx_.candidates->indexes[p].table_id) > 0) {
          responsible.push_back(p);
        }
      }
      if (responsible.empty()) continue;
      double share = delta / static_cast<double>(responsible.size()) / base;
      for (size_t p : responsible) arm_reward[p] += share;
    }

    // Model update per selected arm.
    for (size_t p : chosen_positions) {
      const std::vector<double>& x = features[p];
      for (int i = 0; i < kNumFeatures; ++i) {
        for (int j = 0; j < kNumFeatures; ++j) {
          v[static_cast<size_t>(i)][static_cast<size_t>(j)] +=
              x[static_cast<size_t>(i)] * x[static_cast<size_t>(j)];
        }
        bvec[static_cast<size_t>(i)] +=
            arm_reward[p] * x[static_cast<size_t>(i)];
      }
    }

    if (round_cost < best_cost) {
      best_cost = round_cost;
      best = chosen;
    }
    round_trace_.push_back(
        (1.0 - best_cost / std::max(1e-9, service.BaseWorkloadCost())) *
        100.0);
    if (budget_ran_out) break;
    // All-cached rounds consume no budget; stop if the policy has frozen.
    if (service.calls_made() == calls_before) {
      if (++zero_call_rounds >= 5) break;
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
