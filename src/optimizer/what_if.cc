#include "optimizer/what_if.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>

#include "common/macros.h"
#include "optimizer/plan_arena.h"
#include "optimizer/what_if_internal.h"

namespace bati {

namespace {

using whatif_internal::Log2Rows;
using whatif_internal::NoiseFactor;

/// Per-thread scratch arena for a what-if call's candidate caches. One
/// call's scratch never outlives the call, so the arena resets at entry and
/// reuses its blocks forever after warm-up.
PlanArena& CallArena() {
  thread_local PlanArena arena;
  return arena;
}

/// First filter on `scan` binding `column_id` with the requested equality
/// capability — same contract and same (insertion) order as the reference
/// implementation's FindFilter.
const SkeletonFilter* FindFilter(const SkeletonScan& scan, int column_id,
                                 bool equality_capable) {
  for (const SkeletonFilter& f : scan.filters) {
    if (f.column_id != column_id) continue;
    bool is_eq =
        f.kind == FilterKind::kEquality || f.kind == FilterKind::kIn;
    if (equality_capable == is_eq) return &f;
  }
  return nullptr;
}

/// True if scanning through `ix` delivers rows ordered by the `n_order`
/// columns in `order_cols` (in sequence): the key prefix must match the
/// order columns, where positions bound by equality filters are order-free
/// and may be skipped.
bool ProvidesOrder(const Index& ix, const SkeletonScan& scan,
                   const int* order_cols, size_t n_order) {
  if (n_order == 0) return false;
  size_t oi = 0;
  for (int key : ix.key_columns) {
    if (oi < n_order && key == order_cols[oi]) {
      ++oi;
      continue;
    }
    if (FindFilter(scan, key, /*equality_capable=*/true) != nullptr) {
      continue;  // pinned to a single value: does not disturb the order
    }
    break;
  }
  return oi == n_order;
}

/// Source of WhatIfOptimizer::id_; 0 is never handed out, so an empty L1
/// slot matches no optimizer.
std::atomic<uint64_t> next_optimizer_id{1};

}  // namespace

WhatIfOptimizer::WhatIfOptimizer(std::shared_ptr<const Database> db,
                                 CostModelParams params)
    : db_(std::move(db)),
      params_(params),
      id_(next_optimizer_id.fetch_add(1, std::memory_order_relaxed)) {
  BATI_CHECK(db_ != nullptr);
  // At least one join method that works without any index must remain
  // available, or join queries would have no plan.
  BATI_CHECK(params_.enable_hash_join || params_.enable_merge_join);
  stats_view_ = StatsView(*db_);
}

namespace {

/// One slot of the per-thread skeleton L1: a hit requires the same owning
/// optimizer (by id, not address: an optimizer built where a destroyed one
/// lived has other statistics or parameters), the same query address and
/// the same content signature.
struct LocalSkeletonSlot {
  uint64_t owner = 0;
  const Query* query = nullptr;
  uint64_t signature = 0;
  std::shared_ptr<const QuerySkeleton> skeleton;
};

/// Direct-mapped by query address; 64 slots cover a whole TPC-DS-sized
/// batch with few conflicts, and a conflict only costs a shared-memo read.
constexpr size_t kLocalSkeletonSlots = 64;

LocalSkeletonSlot& LocalSlotFor(const Query* query) {
  thread_local LocalSkeletonSlot slots[kLocalSkeletonSlots];
  const uint64_t h =
      (static_cast<uint64_t>(reinterpret_cast<uintptr_t>(query)) >> 4) *
      0x9E3779B97F4A7C15ULL;
  return slots[h >> 58];  // top log2(kLocalSkeletonSlots) bits
}

/// The stripe this thread's memo hits are counted on.
size_t HitStripeFor() {
  thread_local const size_t stripe =
      std::hash<std::thread::id>()(std::this_thread::get_id());
  return stripe;
}

}  // namespace

std::shared_ptr<const QuerySkeleton> WhatIfOptimizer::GetSkeleton(
    const Query& query) const {
  const uint64_t sig = QuerySignature(query);
  LocalSkeletonSlot& slot = LocalSlotFor(&query);
  if (slot.owner == id_ && slot.query == &query && slot.signature == sig) {
    memo_hits_[HitStripeFor() % kMemoHitStripes].count.fetch_add(
        1, std::memory_order_relaxed);
    return slot.skeleton;
  }
  std::shared_ptr<const QuerySkeleton> sk;
  {
    std::shared_lock<std::shared_mutex> lock(memo_mu_);
    auto it = memo_.find(&query);
    if (it != memo_.end() && it->second->signature == sig) {
      memo_hits_[HitStripeFor() % kMemoHitStripes].count.fetch_add(
          1, std::memory_order_relaxed);
      sk = it->second;
    }
  }
  if (sk == nullptr) {
    memo_misses_.fetch_add(1, std::memory_order_relaxed);
    sk = std::make_shared<const QuerySkeleton>(
        BuildQuerySkeleton(query, stats_view_, params_, sig));
    std::unique_lock<std::shared_mutex> lock(memo_mu_);
    auto [it, inserted] = memo_.insert_or_assign(&query, sk);
    // Two threads can race to build the same skeleton; both results are
    // identical (the build is pure), so last-write-wins is fine.
    sk = it->second;
  }
  slot.owner = id_;
  slot.query = &query;
  slot.signature = sig;
  slot.skeleton = sk;
  return sk;
}

PlanMemoStats WhatIfOptimizer::memo_stats() const {
  PlanMemoStats stats;
  for (const HitStripe& s : memo_hits_) {
    stats.hits += s.count.load(std::memory_order_relaxed);
  }
  stats.misses = memo_misses_.load(std::memory_order_relaxed);
  std::shared_lock<std::shared_mutex> lock(memo_mu_);
  stats.entries = static_cast<int64_t>(memo_.size());
  return stats;
}

PlanExplanation WhatIfOptimizer::Explain(
    const Query& query, const std::vector<Index>& config) const {
  std::shared_ptr<const QuerySkeleton> sk = GetSkeleton(query);
  return ExplainFast(*sk, query, config);
}

PlanExplanation WhatIfOptimizer::ExplainFast(
    const QuerySkeleton& sk, const Query& query,
    const std::vector<Index>& config) const {
  const CostModelParams& p = params_;
  const StatsView& sv = stats_view_;
  const size_t n_config = config.size();

  // Per-call scratch: a lazily filled leaf-bytes cache (per index) and a
  // per-step covers cache (per index, reset at each step). Leaf bytes and
  // covers checks are the only per-index derived values the cost loops
  // read more than once.
  PlanArena& arena = CallArena();
  arena.Reset();
  double* leaf_cache = arena.AllocArray<double>(n_config);
  int8_t* covers_cache = arena.AllocArray<int8_t>(n_config);
  for (size_t i = 0; i < n_config; ++i) leaf_cache[i] = -1.0;
  auto leaf_of = [&](size_t pos) -> double {
    double v = leaf_cache[pos];
    if (v < 0.0) {
      v = config[pos].LeafRowBytes(sv);
      leaf_cache[pos] = v;
    }
    return v;
  };
  const SkeletonScan* cur = nullptr;
  auto covers_of = [&](size_t pos) -> bool {
    int8_t v = covers_cache[pos];
    if (v < 0) {
      v = config[pos].Covers(cur->required_columns) ? 1 : 0;
      covers_cache[pos] = v;
    }
    return v != 0;
  };

  // Bulk access path for the current scan: min over heap + applicable
  // indexes — the reference's bulk_access, reading skeleton + caches.
  struct BulkChoice {
    double cost;
    AccessPathKind kind;
    int index_pos;
  };
  auto bulk_access = [&]() -> BulkChoice {
    const SkeletonScan& info = *cur;
    double heap_pages = info.base_rows * info.row_width / p.page_bytes;
    BulkChoice best{heap_pages + info.base_rows * p.cpu_per_row,
                    AccessPathKind::kHeapScan, -1};
    for (size_t pos = 0; pos < n_config; ++pos) {
      const Index& ix = config[pos];
      if (ix.table_id != info.table_id) continue;
      double leaf = leaf_of(pos);
      bool covers = covers_of(pos);
      // Match a sargable key prefix against the scan's filters.
      double prefix_sel = 1.0;
      bool matched_any = false;
      for (int key_col : ix.key_columns) {
        const SkeletonFilter* eq = FindFilter(info, key_col, /*eq=*/true);
        if (eq != nullptr) {
          prefix_sel *= eq->selectivity;
          matched_any = true;
          continue;
        }
        const SkeletonFilter* range =
            FindFilter(info, key_col, /*eq=*/false);
        if (range != nullptr && (range->kind == FilterKind::kRange)) {
          prefix_sel *= range->selectivity;
          matched_any = true;
        }
        break;  // prefix ends at the first non-equality position
      }
      if (matched_any) {
        double fetched = info.base_rows * prefix_sel;
        double cost = p.seek_cost + fetched * leaf / p.page_bytes +
                      fetched * p.cpu_per_row;
        if (!covers) cost += fetched * p.lookup_cost_per_row;
        if (cost < best.cost) {
          best = {cost, AccessPathKind::kIndexSeek, static_cast<int>(pos)};
        }
      } else if (covers) {
        // Index-only scan of the full (narrower) leaf level.
        double cost = info.base_rows * leaf / p.page_bytes +
                      info.base_rows * p.cpu_per_row;
        if (cost < best.cost) {
          best = {cost, AccessPathKind::kIndexOnlyScan,
                  static_cast<int>(pos)};
        }
      }
    }
    return best;
  };

  // ---- Walk the memoized join order, choosing access paths and join
  // methods (the only configuration-dependent work). ----
  PlanExplanation plan;
  plan.steps.reserve(sk.steps.size());
  double total = 0.0;
  double current_rows = 0.0;
  bool sort_eliminated = false;
  for (size_t step_idx = 0; step_idx < sk.steps.size(); ++step_idx) {
    const SkeletonStep& st = sk.steps[step_idx];
    const SkeletonScan& info = sk.scans[static_cast<size_t>(st.scan_id)];
    cur = &info;
    for (size_t i = 0; i < n_config; ++i) covers_cache[i] = -1;
    PlanStep step;
    step.scan_id = st.scan_id;

    if (step_idx == 0) {
      BulkChoice choice = bulk_access();
      step.access = choice.kind;
      step.index_pos = choice.index_pos;
      step.step_cost = choice.cost;
      current_rows = info.eff_rows;
      // Single-table queries with ORDER BY: an order-providing index can
      // eliminate the final sort, so pick the access path by the joint cost
      // access + (sort unless ordered). A joint minimum keeps the model
      // monotone in the configuration.
      if (sk.num_scans() == 1 && !sk.order_cols.empty()) {
        double out = info.eff_rows;
        double sort_cost = out * Log2Rows(out) * p.sort_per_row_log;
        double best_joint = choice.cost + sort_cost;
        bool best_ordered = false;
        for (size_t pos = 0; pos < n_config; ++pos) {
          const Index& ix = config[pos];
          if (ix.table_id != info.table_id) continue;
          if (!ProvidesOrder(ix, info, sk.order_cols.data(),
                             sk.order_cols.size())) {
            continue;
          }
          double leaf = leaf_of(pos);
          bool covers = covers_of(pos);
          double cost = info.base_rows * leaf / p.page_bytes +
                        info.base_rows * p.cpu_per_row;
          if (!covers) {
            // Every row must be looked up to produce the missing columns.
            cost += info.base_rows * p.lookup_cost_per_row;
          }
          if (cost < best_joint) {  // no sort term: order comes for free
            best_joint = cost;
            best_ordered = true;
            step.access = covers ? AccessPathKind::kIndexOnlyScan
                                 : AccessPathKind::kIndexSeek;
            step.index_pos = static_cast<int>(pos);
          }
        }
        if (best_ordered) {
          step.step_cost = best_joint;
          sort_eliminated = true;
        }
      }
    } else {
      // Output cardinality after this join comes precomputed: it is
      // independent of join method and configuration.
      const double out_rows = st.rows_after;

      // Option 1: hash join over the best bulk access.
      BulkChoice bulk = bulk_access();
      double best_cost = std::numeric_limits<double>::infinity();
      JoinMethod best_method = JoinMethod::kHashJoin;
      AccessPathKind best_access = bulk.kind;
      int best_index_pos = bulk.index_pos;
      if (p.enable_hash_join) {
        best_cost = bulk.cost + info.eff_rows * p.hash_build_per_row +
                    current_rows * p.hash_probe_per_row;
      }

      // Option 1b: sort-merge join. The accumulated left side always pays a
      // sort; the new scan avoids its sort when an index delivers rows
      // ordered by the join column (its key prefix, with equality-bound
      // positions skippable, starts with that column).
      if (p.enable_merge_join && !st.connecting.empty()) {
        double right_rows = info.eff_rows;
        double right_sorted =
            bulk.cost + right_rows * Log2Rows(right_rows) * p.sort_per_row_log;
        AccessPathKind merge_access = bulk.kind;
        int merge_index_pos = bulk.index_pos;
        for (size_t pos = 0; pos < n_config; ++pos) {
          const Index& ix = config[pos];
          if (ix.table_id != info.table_id) continue;
          bool ordered = false;
          for (const SkeletonConn& cj : st.connecting) {
            if (ProvidesOrder(ix, info, &cj.column_id, 1)) {
              ordered = true;
              break;
            }
          }
          if (!ordered) continue;
          // Full ordered retrieval through this index (no sort needed).
          double leaf = leaf_of(pos);
          bool covers = covers_of(pos);
          double cost = info.base_rows * leaf / p.page_bytes +
                        info.base_rows * p.cpu_per_row;
          if (!covers) {
            // Every row must be looked up to produce the missing columns.
            cost += info.base_rows * p.lookup_cost_per_row;
          }
          if (cost < right_sorted) {
            right_sorted = cost;
            merge_access = covers ? AccessPathKind::kIndexOnlyScan
                                  : AccessPathKind::kIndexSeek;
            merge_index_pos = static_cast<int>(pos);
          }
        }
        double left_sort =
            current_rows * Log2Rows(current_rows) * p.sort_per_row_log;
        double merge_cost = right_sorted + left_sort +
                            (current_rows + right_rows) * p.merge_per_row;
        if (merge_cost < best_cost) {
          best_cost = merge_cost;
          best_method = JoinMethod::kMergeJoin;
          best_access = merge_access;
          best_index_pos = merge_index_pos;
        }
      }

      // Option 2: index nested loops, if some index on s starts with (an
      // equality-filter-extended prefix ending in) a connecting join column.
      if (p.enable_index_nested_loop && !st.connecting.empty()) {
        for (size_t pos = 0; pos < n_config; ++pos) {
          const Index& ix = config[pos];
          if (ix.table_id != info.table_id) continue;
          // Walk the key prefix: equality filters may fill leading
          // positions, then a join column must appear.
          double prefix_sel = 1.0;
          const SkeletonConn* used_join = nullptr;
          for (int key_col : ix.key_columns) {
            const SkeletonFilter* eq = FindFilter(info, key_col, /*eq=*/true);
            if (eq != nullptr) {
              prefix_sel *= eq->selectivity;
              continue;
            }
            for (const SkeletonConn& cj : st.connecting) {
              if (cj.column_id == key_col) {
                used_join = &cj;
                break;
              }
            }
            break;
          }
          if (used_join == nullptr) continue;
          double matched_per_probe =
              std::max(1.0, info.base_rows * prefix_sel /
                                std::max(1.0, used_join->ndv));
          double leaf = leaf_of(pos);
          bool covers = covers_of(pos);
          double per_probe = p.seek_cost * 0.02 + p.nlj_probe_overhead +
                             matched_per_probe *
                                 (leaf / p.page_bytes + p.cpu_per_row);
          if (!covers) per_probe += matched_per_probe * p.lookup_cost_per_row;
          double inl_cost = current_rows * per_probe;
          if (inl_cost < best_cost) {
            best_cost = inl_cost;
            best_method = JoinMethod::kIndexNestedLoop;
            best_access = AccessPathKind::kIndexSeek;
            best_index_pos = static_cast<int>(pos);
          }
        }
      }

      step.access = best_access;
      step.index_pos = best_index_pos;
      step.join = best_method;
      step.step_cost = best_cost;
      current_rows = out_rows;
    }
    total += step.step_cost;
    step.output_rows = current_rows;
    plan.steps.push_back(step);
  }

  // ---- Post-processing: aggregation, ordering, output. ----
  double post = 0.0;
  if (query.has_aggregation) post += current_rows * p.hash_agg_per_row;
  if (!query.order_by.empty() && !sort_eliminated) {
    post += current_rows * Log2Rows(current_rows) * p.sort_per_row_log;
  }
  post += current_rows * p.output_per_row;
  plan.post_processing_cost = post;
  total += post;

  if (p.monotonicity_noise > 0.0) {
    total *= NoiseFactor(query, config, p.monotonicity_noise);
  }
  plan.total_cost = total;
  return plan;
}

double WhatIfOptimizer::Cost(const Query& query,
                             const std::vector<Index>& config) const {
  return Explain(query, config).total_cost;
}

double WhatIfOptimizer::EstimateCallSeconds(const Query& query) const {
  // A what-if call runs a full optimization cycle; its latency grows with
  // the plan-search space (joins dominate). Constants are fitted so that
  // TPC-DS-like queries (~8.8 scans) land near the ~1 s/call that the paper
  // reports for SQL Server 2017.
  return 0.12 + 0.085 * query.num_scans() + 0.02 * query.num_filters() +
         0.01 * query.num_joins();
}

}  // namespace bati
