#include "dta/dta_tuner.h"

#include <algorithm>
#include <numeric>

#include "common/macros.h"

namespace bati {

namespace {
/// Queries consumed per time slice.
constexpr int kQueriesPerSlice = 4;
/// Fraction of the remaining budget a slice may spend on per-query tuning
/// before the periodic workload-level refinement runs.
constexpr double kSliceBudgetFraction = 0.5;
}  // namespace

DtaTuner::DtaTuner(TuningContext ctx) : ctx_(std::move(ctx)) {}

TuningResult DtaTuner::Tune(CostService& service) {
  const int m = service.num_queries();

  // Cost-based priority queue: most expensive queries first (DTA tunes the
  // highest-impact queries in early slices).
  std::vector<int> queue(static_cast<size_t>(m));
  std::iota(queue.begin(), queue.end(), 0);
  std::sort(queue.begin(), queue.end(), [&](int a, int b) {
    double ca = service.BaseCost(a), cb = service.BaseCost(b);
    if (ca != cb) return ca > cb;
    return a < b;
  });

  Config pool = service.EmptyConfig();      // per-query winners seen so far
  Config best = service.EmptyConfig();      // anytime recommendation
  double best_derived = 0.0;
  std::vector<int> tuned_queries;

  size_t cursor = 0;
  while (cursor < queue.size() && service.HasBudget()) {
    service.BeginRound("dta.slice");  // one time slice = one round
    // ---- One time slice: consume the next batch of queries. ----
    int64_t slice_budget = std::max<int64_t>(
        1, static_cast<int64_t>(
               static_cast<double>(service.remaining_budget()) *
               kSliceBudgetFraction));
    // Per-query greedy tuning with FCFS inside the slice budget.
    const int64_t slice_end = service.calls_made() + slice_budget;
    const WhatIfFilter slice_filter{.call_limit = slice_end};
    for (int b = 0; b < kQueriesPerSlice && cursor < queue.size();
         ++b, ++cursor) {
      int q = queue[cursor];
      tuned_queries.push_back(q);
      const std::vector<int>& mine =
          ctx_.candidates->per_query[static_cast<size_t>(q)];
      if (mine.empty()) continue;
      Config winner = GreedyEnumerate(ctx_, service, {q}, mine,
                                      service.EmptyConfig(), slice_filter);
      pool = pool | winner;
      if (service.calls_made() >= slice_end) break;
    }

    // ---- Index merging: widen the pool with the universe candidates that
    // could merge with a winner (same table, same leading key column); we
    // approximate DTA's merge step by admitting them to the refinement. ----
    Config refinement_pool = pool;
    std::vector<size_t> in_pool = pool.ToIndices();
    for (int candidate = 0; candidate < ctx_.candidates->size(); ++candidate) {
      if (pool.test(static_cast<size_t>(candidate))) continue;
      const Index& cx =
          ctx_.candidates->indexes[static_cast<size_t>(candidate)];
      for (size_t p : in_pool) {
        const Index& px = ctx_.candidates->indexes[p];
        if (px.table_id == cx.table_id && !px.key_columns.empty() &&
            !cx.key_columns.empty() &&
            px.key_columns.front() == cx.key_columns.front()) {
          refinement_pool.set(static_cast<size_t>(candidate));
          break;
        }
      }
    }

    // ---- Workload-level refinement over the queries seen so far. ----
    std::vector<int> refined;
    for (size_t pos : refinement_pool.ToIndices()) {
      refined.push_back(static_cast<int>(pos));
    }
    Config slice_best =
        GreedyEnumerate(ctx_, service, tuned_queries, refined,
                        service.EmptyConfig(), AllowAllWhatIf());

    // ---- Anytime property: keep the better of old and new, judged on the
    // whole workload with derived costs. ----
    double derived = service.DerivedImprovement(slice_best);
    if (derived >= best_derived) {
      best_derived = derived;
      best = slice_best;
    }
  }

  TuningResult result;
  result.algorithm = name();
  result.best_config = best;
  result.derived_improvement = service.DerivedImprovement(best);
  result.what_if_calls = service.calls_made();
  return result;
}

}  // namespace bati
