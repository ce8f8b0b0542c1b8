#include "tuner/time_budget.h"

#include <cstdint>

#include "common/macros.h"

namespace bati {

namespace {

double AverageCallSeconds(const WhatIfOptimizer& optimizer,
                          const Workload& workload) {
  BATI_CHECK(!workload.queries.empty());
  double total = 0.0;
  for (const Query& q : workload.queries) {
    total += optimizer.EstimateCallSeconds(q);
  }
  return total / static_cast<double>(workload.queries.size());
}

}  // namespace

int64_t CallBudgetForTime(const WhatIfOptimizer& optimizer,
                          const Workload& workload, double budget_seconds,
                          double overhead_fraction) {
  BATI_CHECK(overhead_fraction >= 0.0 && overhead_fraction < 1.0);
  double usable = budget_seconds * (1.0 - overhead_fraction);
  double per_call = AverageCallSeconds(optimizer, workload);
  if (per_call <= 0.0) return 0;
  const double calls = usable / per_call;
  if (!(calls > 0.0)) return 0;  // zero, negative or NaN time
  // 2^63 is the first double past INT64_MAX; casting it or anything larger
  // to int64_t is undefined, so huge and infinite budgets saturate.
  if (calls >= static_cast<double>(INT64_MAX)) return INT64_MAX;
  return static_cast<int64_t>(calls);
}

double ExpectedSecondsForCalls(const WhatIfOptimizer& optimizer,
                               const Workload& workload, int64_t calls,
                               double overhead_fraction) {
  BATI_CHECK(overhead_fraction >= 0.0 && overhead_fraction < 1.0);
  double per_call = AverageCallSeconds(optimizer, workload);
  double whatif_seconds = per_call * static_cast<double>(calls);
  return whatif_seconds / (1.0 - overhead_fraction);
}

}  // namespace bati
