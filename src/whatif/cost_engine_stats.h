#ifndef BATI_WHATIF_COST_ENGINE_STATS_H_
#define BATI_WHATIF_COST_ENGINE_STATS_H_

#include <cstdint>
#include <string>

namespace bati {

/// Observability counters for the layered cost engine (BudgetMeter,
/// WhatIfExecutor, DerivedCostIndex behind the CostService façade). Cheap to
/// copy; assembled on demand by CostService::EngineStats() and surfaced by
/// the harness and the CLI tools.
struct CostEngineStats {
  /// Counted what-if optimizer invocations (budget units spent).
  int64_t what_if_calls = 0;
  /// WhatIfCost() requests answered from the exact-cell cache.
  int64_t cache_hits = 0;
  /// Cells evaluated through the batched WhatIfCostMany() entry point
  /// (subset of what_if_calls).
  int64_t batched_cells = 0;
  /// Per-query subset-minimum derived-cost lookups (Equation 1
  /// evaluations) made.
  int64_t derived_lookups = 0;
  /// Incremental posting-list probes made (DeltaAdd / greedy extensions).
  int64_t delta_lookups = 0;
  /// Greedy extensions priced in one step, with no probe: no cached cell
  /// contains the added candidate and no what-if call could be spent.
  int64_t delta_posting_free = 0;
  /// All-query derived-cost calls answered by walking the configuration's
  /// subsets in the config table instead of m per-query lookups.
  int64_t derived_table_walks = 0;
  /// Cached cells currently indexed (sum over queries).
  int64_t index_entries = 0;
  /// Entries a linear Equation-1 scan would have visited but the index
  /// skipped via the cost-ascending order and the monotone best-so-far
  /// bound.
  int64_t index_pruned_entries = 0;
  /// Entries actually examined by subset-minimum lookups.
  int64_t index_scanned_entries = 0;
  /// Cost lower-bound lookups (superset-max / additive probes issued on
  /// behalf of the budget governor).
  int64_t lower_bound_lookups = 0;
  /// Real wall-clock seconds spent inside the executor (optimizer calls,
  /// single and batched, all on the calling thread).
  double executor_wall_seconds = 0.0;
  /// Simulated server-side what-if seconds (paper Figure 2 accounting).
  double simulated_whatif_seconds = 0.0;

  // ---- Crash recovery (zero unless the run resumed from a checkpoint).
  /// Budget units recovered by resuming: charged what-if calls answered
  /// from the checkpoint journal instead of re-spending the optimizer.
  /// Deliberately absent from ToJson(): a resumed run's result line must
  /// stay byte-identical to the uninterrupted run's (the fleet's recovery
  /// property), so recovery accounting lives in ToString(), the fleet
  /// coordinator's summary, and programmatic consumers only.
  int64_t replayed_calls = 0;

  // ---- Fault tolerance (all zero when fault injection is off). ----
  /// Cells that exhausted their retries and were answered with the derived
  /// cost d(q, C) instead of a what-if evaluation (never charged).
  int64_t degraded_cells = 0;
  /// Failed what-if attempts by kind, as observed by the retry loop.
  int64_t fault_transient_errors = 0;
  int64_t fault_sticky_failures = 0;
  int64_t fault_timeouts = 0;
  /// Retries issued (every attempt after a cell's first).
  int64_t retry_attempts = 0;

  // ---- Budget-governor decisions (all zero / -1 when ungoverned). ----
  /// What-if calls the governor skipped (budget units banked at the time).
  int64_t governor_skipped_calls = 0;
  /// Banked units still unspent at the end of the run.
  int64_t governor_banked_calls = 0;
  /// Banked units re-spent on calls an ungoverned FCFS run could not have
  /// afforded (skipped == banked + reallocated).
  int64_t governor_reallocated_calls = 0;
  /// Tuner round at which early stopping fired; -1 when it never did.
  int governor_stop_round = -1;
  /// Charged calls at the moment early stopping fired; -1 when it never
  /// did.
  int64_t governor_stop_calls = -1;

  /// One-line human-readable rendering, e.g. for CLI output. Governor and
  /// fault counters are appended only when they are nonzero.
  std::string ToString() const;
  /// Machine-readable JSON object with one field per counter (governor
  /// fields always present, so the schema is stable).
  std::string ToJson() const;
};

}  // namespace bati

#endif  // BATI_WHATIF_COST_ENGINE_STATS_H_
