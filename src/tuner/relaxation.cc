#include "tuner/relaxation.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "common/macros.h"
#include "tuner/greedy.h"

namespace bati {

namespace {

/// Fraction of the budget reserved for the initial per-query singleton
/// evaluation that seeds the starting configuration.
constexpr double kSeedBudgetFraction = 0.5;

bool Feasible(const TuningContext& ctx, const Config& config) {
  if (static_cast<int>(config.count()) > ctx.constraints.max_indexes) {
    return false;
  }
  if (ctx.constraints.max_storage_bytes > 0.0 &&
      StorageBytes(ctx, config) > ctx.constraints.max_storage_bytes) {
    return false;
  }
  return true;
}

/// Workload cost under FCFS: what-if while budget remains, derived after.
/// Batched through the engine; the budget is still charged in query order.
double EvaluateWorkloadCost(CostService& service, const Config& config) {
  std::vector<int> queries(static_cast<size_t>(service.num_queries()));
  std::iota(queries.begin(), queries.end(), 0);
  std::vector<std::optional<double>> costs =
      service.WhatIfCostMany(queries, config);
  double total = 0.0;
  for (int q = 0; q < service.num_queries(); ++q) {
    const auto& c = costs[static_cast<size_t>(q)];
    total += c.has_value() ? *c : service.DerivedCost(q, config);
  }
  return total;
}

}  // namespace

RelaxationTuner::RelaxationTuner(TuningContext ctx) : ctx_(std::move(ctx)) {}

TuningResult RelaxationTuner::Tune(CostService& service) {
  const int m = service.num_queries();

  // ---- Phase 1: seed with each query's best singleton. ----
  int64_t seed_budget = static_cast<int64_t>(
      static_cast<double>(service.budget()) * kSeedBudgetFraction);
  std::vector<int> best_for_query(static_cast<size_t>(m), -1);
  std::vector<double> best_cost_for_query(static_cast<size_t>(m), 0.0);
  for (int q = 0; q < m; ++q) {
    best_cost_for_query[static_cast<size_t>(q)] = service.BaseCost(q);
  }
  // Round-robin (q, candidate) evaluation, like Algorithm 4's schedule.
  service.BeginRound("relaxation.seed");
  std::vector<size_t> cursor(static_cast<size_t>(m), 0);
  int q = 0;
  int exhausted_queries = 0;
  while (service.calls_made() < seed_budget && service.HasBudget() &&
         exhausted_queries < m) {
    const std::vector<int>& mine =
        ctx_.candidates->per_query[static_cast<size_t>(q)];
    if (cursor[static_cast<size_t>(q)] >= mine.size()) {
      ++exhausted_queries;
      q = (q + 1) % m;
      continue;
    }
    exhausted_queries = 0;
    int pos = mine[cursor[static_cast<size_t>(q)]++];
    Config singleton = service.EmptyConfig();
    singleton.set(static_cast<size_t>(pos));
    auto cost = service.WhatIfCost(q, singleton);
    if (!cost.has_value()) break;
    if (*cost < best_cost_for_query[static_cast<size_t>(q)]) {
      best_cost_for_query[static_cast<size_t>(q)] = *cost;
      best_for_query[static_cast<size_t>(q)] = pos;
    }
    q = (q + 1) % m;
  }

  Config current = service.EmptyConfig();
  for (int qi = 0; qi < m; ++qi) {
    if (best_for_query[static_cast<size_t>(qi)] >= 0) {
      current.set(static_cast<size_t>(best_for_query[static_cast<size_t>(qi)]));
    }
  }

  // Positions of the universe's candidates, for merge transformations.
  std::unordered_map<Index, int, IndexHash> universe;
  for (int i = 0; i < ctx_.candidates->size(); ++i) {
    universe.emplace(ctx_.candidates->indexes[static_cast<size_t>(i)], i);
  }

  Config best = service.EmptyConfig();
  double best_derived = 0.0;
  auto consider = [&](const Config& config) {
    if (!Feasible(ctx_, config)) return;
    double derived = service.DerivedImprovement(config);
    if (derived > best_derived) {
      best_derived = derived;
      best = config;
    }
  };
  consider(current);

  // ---- Phase 2: relax until feasible (and a little beyond, in case a
  // smaller configuration scores better on derived costs). ----
  int relax_steps = 0;
  const int max_steps = static_cast<int>(current.count()) + 4;
  while (!current.empty() && relax_steps < max_steps &&
         (!Feasible(ctx_, current) || relax_steps == 0)) {
    service.BeginRound("relaxation.step");
    ++relax_steps;
    double best_penalty_cost = std::numeric_limits<double>::infinity();
    Config best_next = current;
    bool found = false;

    std::vector<size_t> members = current.ToIndices();
    // Removal transformations.
    for (size_t pos : members) {
      Config next = current.Without(pos);
      double cost = EvaluateWorkloadCost(service, next);
      if (cost < best_penalty_cost) {
        best_penalty_cost = cost;
        best_next = next;
        found = true;
      }
    }
    // Merge transformations: replace (i, j) with their merged index when
    // the merged form exists in the universe (reduces count by one while
    // retaining most benefit).
    for (size_t a = 0; a < members.size(); ++a) {
      for (size_t b = a + 1; b < members.size(); ++b) {
        const Index& ia = ctx_.candidates->indexes[members[a]];
        const Index& ib = ctx_.candidates->indexes[members[b]];
        std::optional<Index> merged = MergeIndexes(ia, ib);
        if (!merged.has_value()) continue;
        auto it = universe.find(*merged);
        if (it == universe.end()) continue;
        Config next = current.Without(members[a]).Without(members[b]);
        next.set(static_cast<size_t>(it->second));
        double cost = EvaluateWorkloadCost(service, next);
        if (cost < best_penalty_cost) {
          best_penalty_cost = cost;
          best_next = next;
          found = true;
        }
      }
    }
    if (!found) break;
    current = best_next;
    consider(current);
  }

  // Keep relaxing by removals while infeasible (no evaluation needed once
  // the budget is irrelevant: drop the index with the least derived
  // benefit).
  while (!Feasible(ctx_, current) && !current.empty()) {
    double best_cost = std::numeric_limits<double>::infinity();
    Config best_next = current;
    for (size_t pos : current.ToIndices()) {
      Config next = current.Without(pos);
      double cost = service.DerivedWorkloadCost(next);
      if (cost < best_cost) {
        best_cost = cost;
        best_next = next;
      }
    }
    current = best_next;
    consider(current);
  }
  consider(current);

  TuningResult result;
  result.algorithm = name();
  result.best_config = best;
  result.derived_improvement = service.DerivedImprovement(best);
  result.what_if_calls = service.calls_made();
  return result;
}

}  // namespace bati
