#include "tuner/greedy.h"

#include <algorithm>
#include <numeric>

#include "common/macros.h"

namespace bati {

double StorageBytes(const TuningContext& ctx, const Config& config) {
  if (ctx.constraints.max_storage_bytes <= 0.0) return 0.0;
  const std::vector<double>& sizes = ctx.candidates->size_bytes;
  BATI_CHECK(sizes.size() == ctx.candidates->indexes.size());
  double total = 0.0;
  for (size_t p : config.ToIndices()) total += sizes[p];
  return total;
}

namespace {

/// Evaluates cost(W', C) under the budget-allocation filter: what-if where
/// allowed and affordable, derived otherwise.
double EvaluateCost(CostService& service, const std::vector<int>& query_ids,
                    const Config& config, const WhatIfFilter& filter) {
  const size_t size = config.count();
  double total = 0.0;
  for (int q : query_ids) {
    if (filter.Allows(size, service.calls_made())) {
      if (auto c = service.WhatIfCost(q, config); c.has_value()) {
        total += *c;
        continue;
      }
    }
    total += service.DerivedCost(q, config);
  }
  return total;
}

}  // namespace

Config GreedyEnumerate(const TuningContext& ctx, CostService& service,
                       const std::vector<int>& query_ids,
                       const std::vector<int>& allowed, const Config& initial,
                       const WhatIfFilter& filter,
                       std::vector<double>* trace) {
  Config best = initial;
  double best_cost = EvaluateCost(service, query_ids, best, filter);

  std::vector<int> remaining = allowed;
  std::vector<double> base_derived(query_ids.size());
  while (!remaining.empty() &&
         static_cast<int>(best.count()) < ctx.constraints.max_indexes) {
    service.BeginRound("greedy.argmax_sweep");
    // Per-round derived baseline d(q, best) for the incremental argmax:
    // cells cached during the round are supersets of `best` (they are the
    // candidate extensions themselves), so the baseline stays exact. Its
    // sum, taken in query order, prices every extension that no cached cell
    // contains and that cannot spend a call.
    double base_sum = 0.0;
    for (size_t i = 0; i < query_ids.size(); ++i) {
      base_derived[i] = service.DerivedCost(query_ids[i], best);
      base_sum += base_derived[i];
    }
    const double best_bytes = StorageBytes(ctx, best);
    const int64_t call_limit = filter.CallLimit(best.count() + 1);
    int chosen = -1;
    double chosen_cost = best_cost;
    for (int pos : remaining) {
      const size_t p = static_cast<size_t>(pos);
      if (best.test(p)) continue;
      if (!FitsStorage(ctx, best_bytes, pos)) continue;
      const double cost = service.ExtensionCost(query_ids, best, p,
                                                base_derived, base_sum,
                                                call_limit);
      if (cost < chosen_cost) {
        chosen = pos;
        chosen_cost = cost;
      }
    }
    if (chosen < 0) break;  // no improving extension: stop (Algorithm 1)
    best = best.With(static_cast<size_t>(chosen));
    best_cost = chosen_cost;
    remaining.erase(std::remove(remaining.begin(), remaining.end(), chosen),
                    remaining.end());
    if (trace != nullptr) trace->push_back(service.DerivedImprovement(best));
  }
  return best;
}

namespace {

/// Largest configuration AutoAdmin greedy spends what-if calls on: the
/// singletons (Figure 5(d)).
constexpr int kAtomicSize = 1;

std::vector<int> AllQueryIds(const TuningContext& ctx) {
  std::vector<int> ids(static_cast<size_t>(ctx.workload->num_queries()));
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

std::vector<int> AllCandidatePositions(const TuningContext& ctx) {
  std::vector<int> ids(static_cast<size_t>(ctx.candidates->size()));
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

/// Builds the result and — for tuners that expose a progress trace —
/// guarantees the trace ends with the returned recommendation's improvement
/// (the contract tested by tests/harness_test.cc).
TuningResult FinishResult(const std::string& algorithm, CostService& service,
                          Config best, std::vector<double>* trace = nullptr) {
  TuningResult result;
  result.algorithm = algorithm;
  result.derived_improvement = service.DerivedImprovement(best);
  result.best_config = std::move(best);
  result.what_if_calls = service.calls_made();
  if (trace != nullptr &&
      (trace->empty() || trace->back() != result.derived_improvement)) {
    trace->push_back(result.derived_improvement);
  }
  return result;
}

/// Shared two-phase skeleton (Algorithm 2): per-query greedy, then greedy
/// over the union of per-query winners. The trace, when requested, covers
/// the workload-level refinement phase.
Config TwoPhaseCore(const TuningContext& ctx, CostService& service,
                    const WhatIfFilter& filter,
                    std::vector<double>* trace) {
  Config union_set = service.EmptyConfig();
  for (int q = 0; q < ctx.workload->num_queries(); ++q) {
    const std::vector<int>& mine =
        ctx.candidates->per_query[static_cast<size_t>(q)];
    if (mine.empty()) continue;
    Config per_query = GreedyEnumerate(ctx, service, {q}, mine,
                                       service.EmptyConfig(), filter);
    union_set = union_set | per_query;
  }
  std::vector<int> refined;
  for (size_t pos : union_set.ToIndices()) {
    refined.push_back(static_cast<int>(pos));
  }
  return GreedyEnumerate(ctx, service, AllQueryIds(ctx), refined,
                         service.EmptyConfig(), filter, trace);
}

}  // namespace

TuningResult GreedyTuner::Tune(CostService& service) {
  trace_.clear();
  Config best =
      GreedyEnumerate(ctx_, service, AllQueryIds(ctx_),
                      AllCandidatePositions(ctx_), service.EmptyConfig(),
                      AllowAllWhatIf(), &trace_);
  return FinishResult(name(), service, std::move(best), &trace_);
}

TuningResult TwoPhaseGreedyTuner::Tune(CostService& service) {
  trace_.clear();
  Config best = TwoPhaseCore(ctx_, service, AllowAllWhatIf(), &trace_);
  return FinishResult(name(), service, std::move(best), &trace_);
}

TuningResult AutoAdminGreedyTuner::Tune(CostService& service) {
  trace_.clear();
  Config best =
      TwoPhaseCore(ctx_, service, AtomicOnlyWhatIf(kAtomicSize), &trace_);
  return FinishResult(name(), service, std::move(best), &trace_);
}

}  // namespace bati
