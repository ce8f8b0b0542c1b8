#ifndef BATI_OPTIMIZER_WHAT_IF_REFERENCE_H_
#define BATI_OPTIMIZER_WHAT_IF_REFERENCE_H_

#include <vector>

#include "catalog/catalog.h"
#include "optimizer/cost_model.h"
#include "optimizer/what_if.h"
#include "storage/index.h"
#include "workload/query.h"

namespace bati {

/// The original object-graph what-if implementation, kept as the
/// bit-identity oracle for WhatIfOptimizer: for every (query, config),
/// ExplainReference(o.database(), o.params(), query, config) equals
/// o.Explain(query, config) byte for byte. It recomputes everything per
/// call (no StatsView, skeleton memo or arena), so it lives in the
/// bati_optimizer_oracle library, which only tests and bench_whatif link.
PlanExplanation ExplainReference(const Database& db,
                                 const CostModelParams& params,
                                 const Query& query,
                                 const std::vector<Index>& config);

}  // namespace bati

#endif  // BATI_OPTIMIZER_WHAT_IF_REFERENCE_H_
