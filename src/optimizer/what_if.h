#ifndef BATI_OPTIMIZER_WHAT_IF_H_
#define BATI_OPTIMIZER_WHAT_IF_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/stats_view.h"
#include "optimizer/cost_model.h"
#include "optimizer/query_skeleton.h"
#include "storage/index.h"
#include "workload/query.h"

namespace bati {

/// Access-path choice recorded in a plan explanation.
enum class AccessPathKind { kHeapScan, kIndexSeek, kIndexOnlyScan };

/// Join method recorded in a plan explanation.
enum class JoinMethod { kNone, kHashJoin, kIndexNestedLoop, kMergeJoin };

/// One step of the (left-deep) plan produced for a query.
struct PlanStep {
  int scan_id = -1;
  AccessPathKind access = AccessPathKind::kHeapScan;
  /// Which index was used, as position in the supplied configuration;
  /// -1 for heap.
  int index_pos = -1;
  JoinMethod join = JoinMethod::kNone;
  double step_cost = 0.0;
  double output_rows = 0.0;
};

/// Full what-if plan explanation (for examples, debugging and tests).
struct PlanExplanation {
  std::vector<PlanStep> steps;
  double post_processing_cost = 0.0;  // sort / aggregation / output
  double total_cost = 0.0;
};

/// Tunables of the optimizer's execution strategy (never of its results:
/// every setting is bit-identical to every other).
struct WhatIfOptimizerOptions {
  /// When true (the default), Cost()/Explain() run the hot-path
  /// implementation: catalog reads through the structure-of-arrays
  /// StatsView, configuration-independent plan structure served from the
  /// per-query skeleton memo, per-call scratch in a thread-local bump
  /// arena. When false, every call recomputes through the original
  /// object-graph implementation (ExplainReference) — the bit-identity
  /// oracle the tests compare against.
  bool use_fast_path = true;
};

/// Plan-memo observability counters (see WhatIfOptimizer::memo_stats()).
/// Deliberately kept out of CostEngineStats: concurrent sessions sharing an
/// optimizer may race to build the same skeleton, making hit/miss counts
/// scheduling-dependent — results never are.
struct PlanMemoStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t entries = 0;
};

/// The simulated what-if query optimizer. Stands in for a DBMS's what-if
/// API (e.g. SQL Server's hypothetical-index interface): given a query and a
/// hypothetical index configuration, it returns the optimizer-estimated cost
/// without materializing any index. See DESIGN.md for the substitution
/// rationale.
///
/// Properties relied on by the tuning layer:
///  * Deterministic: equal inputs yield equal costs.
///  * Monotone (Assumption 1 of the paper) when `monotonicity_noise == 0`:
///    adding indexes never increases the cost, because every index only adds
///    candidate access paths / join methods to minimize over, and the join
///    order itself depends only on configuration-independent cardinalities.
///
/// Thread safety: Cost()/Explain() are const and safe to call concurrently
/// (concurrent sessions sharing a workload bundle do). The plan memo
/// is internally synchronized; the per-call scratch arena is thread-local.
class WhatIfOptimizer {
 public:
  WhatIfOptimizer(std::shared_ptr<const Database> db,
                  CostModelParams params = CostModelParams(),
                  WhatIfOptimizerOptions options = WhatIfOptimizerOptions());

  const Database& database() const { return *db_; }
  const CostModelParams& params() const { return params_; }
  const WhatIfOptimizerOptions& options() const { return options_; }

  /// The structure-of-arrays catalog snapshot the fast path reads through
  /// (built once at construction).
  const StatsView& stats_view() const { return stats_view_; }

  /// Optimizer-estimated cost of `query` when the indexes in `config` exist
  /// (hypothetically) in addition to base heaps. An empty config costs the
  /// query over heap scans only.
  double Cost(const Query& query, const std::vector<Index>& config) const;

  /// Like Cost but also returns the chosen plan.
  PlanExplanation Explain(const Query& query,
                          const std::vector<Index>& config) const;

  /// The pre-refactor object-graph implementation, preserved verbatim as
  /// the bit-identity oracle: for every (query, config),
  /// Explain() == ExplainReference() byte for byte.
  PlanExplanation ExplainReference(const Query& query,
                                   const std::vector<Index>& config) const;

  /// Simulated wall-clock seconds one what-if call for `query` would take on
  /// a real server (a full optimization cycle: parse, bind, plan search).
  /// Drives the paper's Figure 2 time-breakdown and the tuning-time axis
  /// annotations; scales with query complexity (TPC-DS-like queries land
  /// near the ~1 s/call the paper reports).
  double EstimateCallSeconds(const Query& query) const;

  /// Snapshot of the plan-memo counters (benchmarking/diagnostics only;
  /// see PlanMemoStats on why these stay out of the engine stats).
  PlanMemoStats memo_stats() const;

  /// Drops every memoized skeleton (counters are kept). Skeletons rebuild
  /// on demand; results are unaffected.
  void ClearPlanMemo() const;

 private:
  /// The memoized skeleton for `query`: served from the memo when the
  /// stored content signature matches, rebuilt (and the entry replaced)
  /// otherwise. The returned shared_ptr keeps the skeleton alive even if a
  /// concurrent rebuild replaces the entry.
  std::shared_ptr<const QuerySkeleton> GetSkeleton(const Query& query) const;

  PlanExplanation ExplainFast(const QuerySkeleton& sk, const Query& query,
                              const std::vector<Index>& config) const;

  std::shared_ptr<const Database> db_;
  CostModelParams params_;
  WhatIfOptimizerOptions options_;
  StatsView stats_view_;

  /// Plan memo: Query address -> skeleton, validated by content signature
  /// on every hit (an address can be reused by a different query; a stale
  /// skeleton must never be served). Reader-writer locked: hits take the
  /// shared lock only. In front of it sits a per-thread direct-mapped L1
  /// (see GetSkeleton) so the executor's worker threads stop touching this
  /// lock at all once warm; `memo_epoch_` invalidates every L1 when
  /// ClearPlanMemo() drops the shared memo.
  mutable std::shared_mutex memo_mu_;
  mutable std::unordered_map<const Query*,
                             std::shared_ptr<const QuerySkeleton>>
      memo_;
  mutable std::atomic<uint64_t> memo_epoch_{0};
  /// Hit counting is striped across cache lines (threads pick a stripe by
  /// thread id) so the hot path never bounces one shared counter; misses
  /// are rare and keep a single counter. memo_stats() sums the stripes.
  static constexpr size_t kMemoHitStripes = 8;
  struct alignas(64) HitStripe {
    std::atomic<int64_t> count{0};
  };
  mutable HitStripe memo_hits_[kMemoHitStripes];
  mutable std::atomic<int64_t> memo_misses_{0};
};

}  // namespace bati

#endif  // BATI_OPTIMIZER_WHAT_IF_H_
