#ifndef BATI_TUNER_TIME_BUDGET_H_
#define BATI_TUNER_TIME_BUDGET_H_

#include <cstdint>

#include "optimizer/what_if.h"
#include "workload/query.h"

namespace bati {

/// Maps a user-facing tuning-time budget to a what-if call budget, the
/// translation the paper proposes for integrating budget-aware enumeration
/// behind DTA-style time budgets (Section 8: "we can divide the time budget
/// by the average time of a what-if call, which is transparent to the end
/// user"). `overhead_fraction` reserves a share of the time for non-what-if
/// work (parsing, candidate generation, bookkeeping; Figure 2 measures this
/// at 7-25%). Non-positive times give 0 calls; times too large for an
/// int64_t call count (including infinity) saturate at INT64_MAX.
int64_t CallBudgetForTime(const WhatIfOptimizer& optimizer,
                          const Workload& workload, double budget_seconds,
                          double overhead_fraction = 0.15);

}  // namespace bati

#endif  // BATI_TUNER_TIME_BUDGET_H_
