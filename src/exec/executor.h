#ifndef BATI_EXEC_EXECUTOR_H_
#define BATI_EXEC_EXECUTOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "exec/btree.h"
#include "exec/column_store.h"
#include "exec/predicate.h"
#include "obs/metrics.h"
#include "optimizer/what_if.h"
#include "storage/index.h"
#include "workload/query.h"

namespace bati::exec {

/// Result of executing one query. All three fields are pure functions of
/// (store, query, predicate seed) — independent of the index configuration
/// and of the physical plan — so any two executors over the same store must
/// agree exactly; the tests and the smoke gate hold them to that.
struct ExecResult {
  /// Rows in the joined, filtered result (before aggregation/output).
  int64_t joined_rows = 0;
  /// Rows delivered to the client (group count under aggregation).
  int64_t output_rows = 0;
  /// Order-independent 64-bit checksum over the projected column values of
  /// every joined row.
  uint64_t checksum = 0;

  bool operator==(const ExecResult& o) const {
    return joined_rows == o.joined_rows && output_rows == o.output_rows &&
           checksum == o.checksum;
  }
};

/// Operator work of one query execution, counted exactly. A pure function
/// of (store, query, predicate seed, resolved plan): the deterministic
/// deployment signal weighs it, and ExecutionEngine::Work memoizes it.
struct OpCounts {
  int64_t seq_scans = 0;
  int64_t seq_rows = 0;
  int64_t index_seeks = 0;
  int64_t index_entries = 0;
  int64_t index_full_scans = 0;
  int64_t heap_lookups = 0;
  int64_t hash_builds = 0;
  int64_t hash_build_rows = 0;
  int64_t hash_probe_rows = 0;
  int64_t merge_rows = 0;
  int64_t sort_rows = 0;
  int64_t agg_groups = 0;
  int64_t result_rows = 0;

  bool operator==(const OpCounts&) const = default;
};

/// The "exec.*" counter family, resolved once against a MetricsRegistry
/// (or left null for zero-overhead detached runs).
struct ExecCounters {
  Counter* seq_scans = nullptr;
  Counter* seq_rows = nullptr;
  Counter* index_seeks = nullptr;
  Counter* index_entries = nullptr;
  Counter* index_full_scans = nullptr;
  Counter* heap_lookups = nullptr;
  Counter* hash_builds = nullptr;
  Counter* hash_build_rows = nullptr;
  Counter* hash_probe_rows = nullptr;
  Counter* merge_rows = nullptr;
  Counter* sort_rows = nullptr;
  Counter* agg_groups = nullptr;
  Counter* result_rows = nullptr;
  Counter* trees_built = nullptr;
  Counter* tree_cache_hits = nullptr;
  Counter* plan_memo_hits = nullptr;
  Counter* plan_memo_misses = nullptr;

  /// Resolves the "exec.*" counter family; `registry` may be null.
  static ExecCounters Resolve(MetricsRegistry* registry);

  /// Bumps the operator counters by one execution's work.
  void Add(const OpCounts& work) const;
};

/// The execution engine: a materialized store plus a what-if optimizer over
/// the same statistics, able to run every workload query under any index
/// configuration by following the optimizer's own plan — access paths, join
/// order, and join methods all come from PlanExplanation, so measured time
/// reflects the plan the what-if cost claims to price. Covering B+-trees
/// are materialized on demand and cached across configurations by content.
class ExecutionEngine {
 public:
  /// `workload` must outlive the engine. The store materializes
  /// database.row_count() rows per table: pass a workload scaled to what
  /// memory affords (see StoreOptions::max_rows_per_table).
  ExecutionEngine(const Workload& workload, const StoreOptions& options,
                  MetricsRegistry* metrics = nullptr);

  const Workload& workload() const { return workload_; }
  const ColumnStore& store() const { return *store_; }
  const WhatIfOptimizer& optimizer() const { return optimizer_; }

  /// Sum of what-if costs over all workload queries under `config`.
  double WhatIfWorkloadCost(const std::vector<Index>& config) const;

  struct RunResult {
    std::vector<ExecResult> per_query;
    /// Best (minimum) wall-clock seconds per query across the requested
    /// repetitions; index materialization is excluded (and cached across
    /// configurations anyway).
    std::vector<double> per_query_seconds;
    /// Sum of per_query_seconds.
    double seconds = 0.0;
  };

  /// Executes every query under `config` following its what-if plan.
  RunResult ExecuteWorkload(const std::vector<Index>& config,
                            int repetitions = 1);

  /// Scalar reference executor: heap scans and hash joins only, no indexes
  /// — the independent oracle the plan-driven executor is validated
  /// against (row-count exact, checksum exact).
  ExecResult ExecuteReference(int query_index);

  /// Per-query diagnostics: one query under one configuration, with its
  /// measured seconds and what-if cost side by side.
  struct QueryTiming {
    ExecResult result;
    double seconds = 0.0;
    double whatif_cost = 0.0;
  };
  QueryTiming ExecuteOne(int query_index, const std::vector<Index>& config);

  /// The operator work of one query under `config`, memoized by resolved
  /// plan: each distinct (query, plan) executes at most once per engine
  /// and every later request is a lookup (exec.plan_memo.hits/misses).
  /// The resolved plan is each step's scan, access path, join method and
  /// the content of the index it reads, so a reordered configuration with
  /// the same plan hits. Only a miss executes and bumps the operator
  /// counters. The reference stays valid for the engine's lifetime.
  /// Single-threaded: the serve event loop is the only caller (see
  /// SignalEngineCache). The timed paths above never consult the memo.
  const OpCounts& Work(int query_index, const std::vector<Index>& config);

  /// The materialized covering B+-tree for `ix` (built and cached on first
  /// use; canonical `ix` expected).
  const BTree* GetOrBuildTree(const Index& ix);

 private:
  ExecResult ExecuteQuery(
      const Query& query,
      const std::vector<std::vector<ExecPredicate>>& preds_by_scan,
      const std::vector<Index>& config, const PlanExplanation& plan,
      bool force_reference, OpCounts* work);

  const Workload& workload_;
  WhatIfOptimizer optimizer_;
  /// Shared, immutable, and cached process-wide (exec/store_cache.h):
  /// engines over the same catalog and StoreOptions reuse one store
  /// instead of re-materializing it per correlation run.
  std::shared_ptr<const ColumnStore> store_;
  ExecCounters counters_;
  uint64_t predicate_seed_;
  /// Realized predicates per query (by scan) — fixed across configs.
  std::vector<std::vector<std::vector<ExecPredicate>>> preds_;
  /// Content-keyed tree cache: hash -> (index, tree) pairs (linear probe
  /// within a bucket; candidate universes are tens of indexes).
  std::vector<std::pair<Index, std::unique_ptr<BTree>>> trees_;
  /// Work's memo. An index's id is its position in first-seen order, so
  /// equal ids mean equal index content. A key is the query index, then
  /// (scan, access, join, index id or -1) per plan step.
  std::unordered_map<Index, int, IndexHash> index_ids_;
  std::map<std::vector<int>, OpCounts> plan_memo_;
};

}  // namespace bati::exec

#endif  // BATI_EXEC_EXECUTOR_H_
