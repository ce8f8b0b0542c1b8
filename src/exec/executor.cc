#include "exec/executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <unordered_set>
#include <utility>

#include "common/macros.h"
#include "exec/store_cache.h"

namespace bati::exec {

namespace {

/// Hard cap on intermediate join tuples: a realized workload whose joins
/// blow past this is misconfigured (or a predicate realization bug), and
/// failing loudly beats swapping.
constexpr int64_t kMaxIntermediateTuples = 50 * 1000 * 1000;

/// Cap on equality-combination fanout when seeking (an IN list per prefix
/// position multiplies); beyond this a full scan is cheaper anyway.
constexpr int64_t kMaxSeekCombos = 1 << 16;

uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

uint64_t HashValue(uint64_t h, double v) { return Mix64(h ^ DoubleBits(v)); }

void Bump(Counter* c, int64_t n = 1) {
  if (c != nullptr) c->Add(n);
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Position of each table column inside an index entry: 0..nk-1 are key
/// slots, nk.. are payload slots, -1 means not stored in the index.
std::vector<int> IndexColumnSlots(const Index& ix, int num_cols) {
  std::vector<int> slot(static_cast<size_t>(num_cols), -1);
  for (size_t i = 0; i < ix.key_columns.size(); ++i) {
    slot[static_cast<size_t>(ix.key_columns[i])] = static_cast<int>(i);
  }
  const int nk = static_cast<int>(ix.key_columns.size());
  for (size_t i = 0; i < ix.include_columns.size(); ++i) {
    slot[static_cast<size_t>(ix.include_columns[i])] =
        nk + static_cast<int>(i);
  }
  return slot;
}

double EntryValue(const BTree::Entry& e, int nk, int slot) {
  return slot < nk ? e.key[slot] : e.payload[slot - nk];
}

/// The sargable seek derived from an index key prefix against a scan's
/// realized predicates — the executor-side mirror of the cost model's
/// bulk_access prefix walk: equality-capable predicates bind any leading
/// position, one range predicate may bind the position after them.
struct SeekSpec {
  std::vector<const ExecPredicate*> eq;  // one per bound prefix position
  const ExecPredicate* range = nullptr;  // trailing range bound, if any
  std::vector<bool> consumed;            // parallel to the scan's preds
  bool any() const { return !eq.empty() || range != nullptr; }
};

SeekSpec DeriveSeek(const Index& ix,
                    const std::vector<ExecPredicate>& preds) {
  SeekSpec spec;
  spec.consumed.assign(preds.size(), false);
  for (int key_col : ix.key_columns) {
    int eq_pi = -1;
    int range_pi = -1;
    for (size_t pi = 0; pi < preds.size(); ++pi) {
      if (spec.consumed[pi] || preds[pi].column_id != key_col) continue;
      if (preds[pi].equality_capable()) {
        if (eq_pi < 0) eq_pi = static_cast<int>(pi);
      } else if (preds[pi].kind == ExecPredicate::Kind::kRange) {
        if (range_pi < 0) range_pi = static_cast<int>(pi);
      }
    }
    if (eq_pi >= 0) {
      spec.eq.push_back(&preds[static_cast<size_t>(eq_pi)]);
      spec.consumed[static_cast<size_t>(eq_pi)] = true;
      continue;
    }
    if (range_pi >= 0) {
      spec.range = &preds[static_cast<size_t>(range_pi)];
      spec.consumed[static_cast<size_t>(range_pi)] = true;
    }
    break;  // prefix ends at the first non-equality position
  }
  return spec;
}

/// Executor-side ProvidesOrder: the index delivers rows ordered by
/// `order_cols` when its key prefix matches them, with equality-bound
/// positions skippable (mirrors the cost model's sort-elimination rule).
bool ProvidesOrderExec(const Index& ix,
                       const std::vector<ExecPredicate>& preds,
                       const std::vector<int>& order_cols) {
  if (order_cols.empty()) return false;
  size_t oi = 0;
  for (int key : ix.key_columns) {
    if (oi < order_cols.size() && key == order_cols[oi]) {
      ++oi;
      continue;
    }
    bool pinned = false;
    for (const ExecPredicate& p : preds) {
      if (p.column_id == key && p.equality_capable()) {
        pinned = true;
        break;
      }
    }
    if (pinned) continue;
    break;
  }
  return oi == order_cols.size();
}

/// Chained hash table for hash joins: open arrays, power-of-two buckets,
/// built in one pass (std::unordered_multimap is an order of magnitude too
/// slow for million-row build sides).
class JoinHashTable {
 public:
  void Build(const std::vector<uint64_t>& hashes,
             const std::vector<uint32_t>& rows) {
    size_t cap = 16;
    while (cap < hashes.size() * 2) cap <<= 1;
    mask_ = cap - 1;
    heads_.assign(cap, -1);
    ents_.resize(hashes.size());
    for (size_t i = 0; i < hashes.size(); ++i) {
      const size_t b = hashes[i] & mask_;
      ents_[i] = {hashes[i], rows[i], heads_[b]};
      heads_[b] = static_cast<int32_t>(i);
    }
  }

  template <typename F>
  void ForEach(uint64_t h, const F& f) const {
    if (heads_.empty()) return;
    for (int32_t i = heads_[h & mask_]; i >= 0; i = ents_[i].next) {
      if (ents_[static_cast<size_t>(i)].hash == h) {
        f(ents_[static_cast<size_t>(i)].row);
      }
    }
  }

 private:
  struct Ent {
    uint64_t hash;
    uint32_t row;
    int32_t next;
  };
  std::vector<int32_t> heads_;
  std::vector<Ent> ents_;
  uint64_t mask_ = 0;
};

/// Accumulated left-deep intermediate: one uint32 row id per placed scan,
/// flattened row-major.
struct TupleBuf {
  int width = 0;
  std::vector<uint32_t> data;

  int64_t count() const {
    return width == 0 ? 0
                      : static_cast<int64_t>(data.size()) / width;
  }
  const uint32_t* tuple(int64_t i) const {
    return &data[static_cast<size_t>(i) * static_cast<size_t>(width)];
  }
};

}  // namespace

ExecCounters ExecCounters::Resolve(MetricsRegistry* registry) {
  ExecCounters c;
  if (registry == nullptr) return c;
  c.seq_scans = registry->GetCounter("exec.seqscan.scans");
  c.seq_rows = registry->GetCounter("exec.seqscan.rows");
  c.index_seeks = registry->GetCounter("exec.index.seeks");
  c.index_entries = registry->GetCounter("exec.index.entries");
  c.index_full_scans = registry->GetCounter("exec.index.full_scans");
  c.heap_lookups = registry->GetCounter("exec.index.heap_lookups");
  c.hash_builds = registry->GetCounter("exec.hashjoin.builds");
  c.hash_build_rows = registry->GetCounter("exec.hashjoin.build_rows");
  c.hash_probe_rows = registry->GetCounter("exec.hashjoin.probe_rows");
  c.merge_rows = registry->GetCounter("exec.mergejoin.rows");
  c.sort_rows = registry->GetCounter("exec.sort.rows");
  c.agg_groups = registry->GetCounter("exec.agg.groups");
  c.result_rows = registry->GetCounter("exec.result.rows");
  c.trees_built = registry->GetCounter("exec.trees.built");
  c.tree_cache_hits = registry->GetCounter("exec.trees.cache_hits");
  c.plan_memo_hits = registry->GetCounter("exec.plan_memo.hits");
  c.plan_memo_misses = registry->GetCounter("exec.plan_memo.misses");
  return c;
}

void ExecCounters::Add(const OpCounts& work) const {
  Bump(seq_scans, work.seq_scans);
  Bump(seq_rows, work.seq_rows);
  Bump(index_seeks, work.index_seeks);
  Bump(index_entries, work.index_entries);
  Bump(index_full_scans, work.index_full_scans);
  Bump(heap_lookups, work.heap_lookups);
  Bump(hash_builds, work.hash_builds);
  Bump(hash_build_rows, work.hash_build_rows);
  Bump(hash_probe_rows, work.hash_probe_rows);
  Bump(merge_rows, work.merge_rows);
  Bump(sort_rows, work.sort_rows);
  Bump(agg_groups, work.agg_groups);
  Bump(result_rows, work.result_rows);
}

namespace {

/// Materializes a covering B+-tree for `ix` over the store (sorted bulk
/// load; deterministic).
std::unique_ptr<BTree> MaterializeIndex(const ColumnStore& store,
                                        const Index& ix) {
  const int t = ix.table_id;
  const int nk = static_cast<int>(ix.key_columns.size());
  const int np = static_cast<int>(ix.include_columns.size());
  const int64_t rows = store.rows(t);
  BATI_CHECK(rows <= static_cast<int64_t>(
                         std::numeric_limits<uint32_t>::max()));

  std::vector<double> keys(static_cast<size_t>(rows) *
                           static_cast<size_t>(nk));
  for (int64_t r = 0; r < rows; ++r) {
    for (int i = 0; i < nk; ++i) {
      keys[static_cast<size_t>(r) * nk + static_cast<size_t>(i)] =
          store.value(t, r, ix.key_columns[static_cast<size_t>(i)]);
    }
  }
  std::vector<uint32_t> perm(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) perm[static_cast<size_t>(r)] =
      static_cast<uint32_t>(r);
  std::sort(perm.begin(), perm.end(),
            [&](uint32_t a, uint32_t b) {
              const double* ka = &keys[static_cast<size_t>(a) * nk];
              const double* kb = &keys[static_cast<size_t>(b) * nk];
              for (int i = 0; i < nk; ++i) {
                if (ka[i] < kb[i]) return true;
                if (ka[i] > kb[i]) return false;
              }
              return a < b;
            });

  std::vector<double> sorted_keys(keys.size());
  std::vector<double> sorted_payloads(static_cast<size_t>(rows) *
                                      static_cast<size_t>(np));
  std::vector<uint32_t> sorted_rows(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) {
    const uint32_t r = perm[static_cast<size_t>(i)];
    for (int k = 0; k < nk; ++k) {
      sorted_keys[static_cast<size_t>(i) * nk + static_cast<size_t>(k)] =
          keys[static_cast<size_t>(r) * nk + static_cast<size_t>(k)];
    }
    for (int k = 0; k < np; ++k) {
      sorted_payloads[static_cast<size_t>(i) * np + static_cast<size_t>(k)] =
          store.value(t, r, ix.include_columns[static_cast<size_t>(k)]);
    }
    sorted_rows[static_cast<size_t>(i)] = r;
  }
  auto tree = std::make_unique<BTree>(nk, np);
  tree->BulkLoad(sorted_keys, sorted_payloads, sorted_rows);
  return tree;
}

}  // namespace

ExecutionEngine::ExecutionEngine(const Workload& workload,
                                 const StoreOptions& options,
                                 MetricsRegistry* metrics)
    : workload_(workload),
      optimizer_(workload.database),
      store_(GetOrMaterializeStore(workload.database, options)),
      counters_(ExecCounters::Resolve(metrics)),
      predicate_seed_(options.seed) {
  preds_.reserve(workload.queries.size());
  for (const Query& q : workload.queries) {
    preds_.push_back(RealizePredicates(q, *store_, predicate_seed_));
  }
}

double ExecutionEngine::WhatIfWorkloadCost(
    const std::vector<Index>& config) const {
  double total = 0.0;
  for (const Query& q : workload_.queries) total += optimizer_.Cost(q, config);
  return total;
}

const BTree* ExecutionEngine::GetOrBuildTree(const Index& ix) {
  for (const auto& [cached, tree] : trees_) {
    if (cached == ix) {
      Bump(counters_.tree_cache_hits);
      return tree.get();
    }
  }
  trees_.emplace_back(ix, MaterializeIndex(*store_, ix));
  Bump(counters_.trees_built);
  return trees_.back().second.get();
}

ExecutionEngine::RunResult ExecutionEngine::ExecuteWorkload(
    const std::vector<Index>& config, int repetitions) {
  BATI_CHECK(repetitions >= 1);
  const int nq = workload_.num_queries();
  std::vector<PlanExplanation> plans;
  plans.reserve(static_cast<size_t>(nq));
  for (const Query& q : workload_.queries) {
    plans.push_back(optimizer_.Explain(q, config));
  }
  // Materialize every index any plan touches before the timed passes:
  // building is one-time, cached across configurations, and not what the
  // correlation is about.
  for (const PlanExplanation& plan : plans) {
    for (const PlanStep& step : plan.steps) {
      if (step.index_pos >= 0) {
        GetOrBuildTree(config[static_cast<size_t>(step.index_pos)]);
      }
    }
  }

  // Per-query best-of-repetitions, summed. Clipping scheduler noise on
  // each query independently is far tighter than best-of-N whole-workload
  // sweeps: one slow instance of a heavy query no longer poisons an entire
  // pass, so config-to-config deltas reflect plan changes, not jitter.
  RunResult result;
  result.per_query.resize(static_cast<size_t>(nq));
  result.per_query_seconds.resize(static_cast<size_t>(nq));
  for (int qi = 0; qi < nq; ++qi) {
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < repetitions; ++rep) {
      const double t0 = NowSeconds();
      ExecResult res = ExecuteQuery(
          workload_.queries[static_cast<size_t>(qi)],
          preds_[static_cast<size_t>(qi)], config,
          plans[static_cast<size_t>(qi)], /*force_reference=*/false,
          /*work=*/nullptr);
      best = std::min(best, NowSeconds() - t0);
      if (rep == 0) {
        result.per_query[static_cast<size_t>(qi)] = res;
      } else {  // determinism across repetitions
        BATI_CHECK(res == result.per_query[static_cast<size_t>(qi)]);
      }
    }
    result.per_query_seconds[static_cast<size_t>(qi)] = best;
    result.seconds += best;
  }
  return result;
}

ExecutionEngine::QueryTiming ExecutionEngine::ExecuteOne(
    int query_index, const std::vector<Index>& config) {
  const Query& q = workload_.queries[static_cast<size_t>(query_index)];
  const PlanExplanation plan = optimizer_.Explain(q, config);
  for (const PlanStep& step : plan.steps) {
    if (step.index_pos >= 0) {
      GetOrBuildTree(config[static_cast<size_t>(step.index_pos)]);
    }
  }
  QueryTiming timing;
  timing.whatif_cost = plan.total_cost;
  const double t0 = NowSeconds();
  timing.result =
      ExecuteQuery(q, preds_[static_cast<size_t>(query_index)], config, plan,
                   /*force_reference=*/false, /*work=*/nullptr);
  timing.seconds = NowSeconds() - t0;
  return timing;
}

const OpCounts& ExecutionEngine::Work(int query_index,
                                      const std::vector<Index>& config) {
  const Query& q = workload_.queries[static_cast<size_t>(query_index)];
  const PlanExplanation plan = optimizer_.Explain(q, config);
  // ExecuteQuery reads the configuration only through config[index_pos]
  // of each step, so this key fixes every operator count exactly.
  std::vector<int> key;
  key.reserve(1 + 4 * plan.steps.size());
  key.push_back(query_index);
  for (const PlanStep& step : plan.steps) {
    int index_id = -1;
    if (step.index_pos >= 0) {
      const Index& ix = config[static_cast<size_t>(step.index_pos)];
      const int next_id = static_cast<int>(index_ids_.size());
      index_id = index_ids_.try_emplace(ix, next_id).first->second;
    }
    key.insert(key.end(), {step.scan_id, static_cast<int>(step.access),
                           static_cast<int>(step.join), index_id});
  }
  const auto [it, inserted] = plan_memo_.try_emplace(std::move(key));
  if (!inserted) {
    Bump(counters_.plan_memo_hits);
    return it->second;
  }
  Bump(counters_.plan_memo_misses);
  ExecuteQuery(q, preds_[static_cast<size_t>(query_index)], config, plan,
               /*force_reference=*/false, &it->second);
  return it->second;
}

ExecResult ExecutionEngine::ExecuteReference(int query_index) {
  const Query& q = workload_.queries[static_cast<size_t>(query_index)];
  static const std::vector<Index> kNoIndexes;
  const PlanExplanation plan = optimizer_.Explain(q, kNoIndexes);
  return ExecuteQuery(q, preds_[static_cast<size_t>(query_index)],
                      kNoIndexes, plan, /*force_reference=*/true,
                      /*work=*/nullptr);
}

ExecResult ExecutionEngine::ExecuteQuery(
    const Query& query,
    const std::vector<std::vector<ExecPredicate>>& preds_by_scan,
    const std::vector<Index>& config, const PlanExplanation& plan,
    bool force_reference, OpCounts* work) {
  const ColumnStore& store = *store_;
  OpCounts ops;

  // ---- Access-path row collection for one scan. ----
  auto collect_rows = [&](int s, AccessPathKind access,
                          int index_pos) -> std::vector<uint32_t> {
    const int t = query.scans[static_cast<size_t>(s)].table_id;
    const std::vector<ExecPredicate>& ps =
        preds_by_scan[static_cast<size_t>(s)];
    std::vector<uint32_t> out;

    const bool use_index = !force_reference &&
                           access != AccessPathKind::kHeapScan &&
                           index_pos >= 0 &&
                           config[static_cast<size_t>(index_pos)].table_id ==
                               t;
    if (!use_index) {
      const int64_t rows = store.rows(t);
      ++ops.seq_scans;
      ops.seq_rows += rows;
      for (int64_t r = 0; r < rows; ++r) {
        bool ok = true;
        for (const ExecPredicate& p : ps) {
          if (!p.Matches(store.value(t, r, p.column_id))) {
            ok = false;
            break;
          }
        }
        if (ok) out.push_back(static_cast<uint32_t>(r));
      }
      return out;
    }

    const Index& ix = config[static_cast<size_t>(index_pos)];
    const BTree* tree = GetOrBuildTree(ix);
    const int nk = static_cast<int>(ix.key_columns.size());
    const std::vector<int> slots = IndexColumnSlots(ix, store.num_cols(t));
    SeekSpec spec = DeriveSeek(ix, ps);

    int64_t combos = 1;
    for (const ExecPredicate* p : spec.eq) {
      combos *= static_cast<int64_t>(p->values.size());
      if (combos > kMaxSeekCombos) break;
    }
    const bool full_scan = access == AccessPathKind::kIndexOnlyScan ||
                           !spec.any() || combos > kMaxSeekCombos;
    if (full_scan) {
      // Residuals: everything (the seek binds nothing on a full scan).
      spec.consumed.assign(ps.size(), false);
    }
    // Residuals split by where their column lives: entry-resident ones
    // filter first so a row pays a (random) heap probe only after every
    // covered predicate already passed.
    std::vector<const ExecPredicate*> entry_residuals;
    std::vector<const ExecPredicate*> heap_residuals;
    for (size_t pi = 0; pi < ps.size(); ++pi) {
      if (spec.consumed[pi]) continue;
      const int slot = slots[static_cast<size_t>(ps[pi].column_id)];
      (slot >= 0 ? entry_residuals : heap_residuals).push_back(&ps[pi]);
    }
    int64_t entries = 0;
    int64_t lookups = 0;
    int64_t seeks = 0;
    auto visit = [&](const BTree::Entry& e) -> bool {
      ++entries;
      for (const ExecPredicate* p : entry_residuals) {
        const int slot = slots[static_cast<size_t>(p->column_id)];
        if (!p->Matches(EntryValue(e, nk, slot))) return true;
      }
      if (!heap_residuals.empty()) {
        ++lookups;
        for (const ExecPredicate* p : heap_residuals) {
          if (!p->Matches(store.value(t, e.row_id, p->column_id))) {
            return true;
          }
        }
      }
      out.push_back(e.row_id);
      return true;
    };

    if (full_scan) {
      ++ops.index_full_scans;
      tree->Scan(visit);
    } else {
      const int n_eq = static_cast<int>(spec.eq.size());
      std::vector<double> prefix(static_cast<size_t>(std::max(1, n_eq)));
      std::vector<size_t> odo(static_cast<size_t>(n_eq), 0);
      for (int64_t combo = 0; combo < combos; ++combo) {
        for (int i = 0; i < n_eq; ++i) {
          prefix[static_cast<size_t>(i)] =
              spec.eq[static_cast<size_t>(i)]
                  ->values[odo[static_cast<size_t>(i)]];
        }
        ++seeks;
        if (spec.range != nullptr) {
          tree->SeekRange(prefix.data(), n_eq, spec.range->lo,
                          spec.range->hi, visit);
        } else {
          tree->SeekPrefix(prefix.data(), n_eq, visit);
        }
        for (int i = n_eq - 1; i >= 0; --i) {  // odometer increment
          if (++odo[static_cast<size_t>(i)] <
              spec.eq[static_cast<size_t>(i)]->values.size()) {
            break;
          }
          odo[static_cast<size_t>(i)] = 0;
        }
      }
    }
    ops.index_seeks += seeks;
    ops.index_entries += entries;
    ops.heap_lookups += lookups;
    return out;
  };

  // ---- Walk the plan's left-deep order. ----
  std::vector<int> slot_of_scan(static_cast<size_t>(query.num_scans()), -1);
  TupleBuf tuples;

  auto left_value = [&](const uint32_t* tuple, int scan_id,
                        const ColumnRef& col) -> double {
    const int slot = slot_of_scan[static_cast<size_t>(scan_id)];
    return store.value(query.scans[static_cast<size_t>(scan_id)].table_id,
                       tuple[slot], col.column_id);
  };

  for (size_t step_idx = 0; step_idx < plan.steps.size(); ++step_idx) {
    const PlanStep& step = plan.steps[step_idx];
    const int s = step.scan_id;
    const int t = query.scans[static_cast<size_t>(s)].table_id;

    if (step_idx == 0) {
      std::vector<uint32_t> rows =
          collect_rows(s, step.access, step.index_pos);
      tuples.width = 1;
      tuples.data = std::move(rows);
      slot_of_scan[static_cast<size_t>(s)] = 0;
      continue;
    }

    // Join conditions connecting s to the scans already placed.
    std::vector<const BoundJoin*> connecting;
    for (const BoundJoin& j : query.joins) {
      const int other = j.left_scan == s   ? j.right_scan
                        : j.right_scan == s ? j.left_scan
                                            : -1;
      if (other >= 0 && slot_of_scan[static_cast<size_t>(other)] >= 0) {
        connecting.push_back(&j);
      }
    }
    auto my_col = [&](const BoundJoin* j) -> const ColumnRef& {
      return j->left_scan == s ? j->left_column : j->right_column;
    };
    auto other_scan = [&](const BoundJoin* j) {
      return j->left_scan == s ? j->right_scan : j->left_scan;
    };
    auto other_col = [&](const BoundJoin* j) -> const ColumnRef& {
      return j->left_scan == s ? j->right_column : j->left_column;
    };

    JoinMethod method = force_reference ? JoinMethod::kHashJoin : step.join;
    if (connecting.empty()) method = JoinMethod::kHashJoin;  // cross join

    TupleBuf next;
    next.width = tuples.width + 1;
    auto emit = [&](const uint32_t* tuple, uint32_t r) {
      next.data.insert(next.data.end(), tuple,
                       tuple + tuples.width);
      next.data.push_back(r);
      BATI_CHECK(next.count() <= kMaxIntermediateTuples);
    };

    // Verifies every connecting join condition except `skip` (exact value
    // equality; the hash/seek only pre-filters).
    auto verify_joins = [&](const uint32_t* tuple, uint32_t r,
                            const BoundJoin* skip) -> bool {
      for (const BoundJoin* j : connecting) {
        if (j == skip) continue;
        const double lv = left_value(tuple, other_scan(j), other_col(j));
        const double rv = store.value(t, r, my_col(j).column_id);
        if (lv != rv) return false;
      }
      return true;
    };

    if (method == JoinMethod::kIndexNestedLoop && !force_reference &&
        step.index_pos >= 0) {
      const Index& ix = config[static_cast<size_t>(step.index_pos)];
      const BTree* tree = GetOrBuildTree(ix);
      const int nk = static_cast<int>(ix.key_columns.size());
      const std::vector<int> slots = IndexColumnSlots(ix, store.num_cols(t));
      const std::vector<ExecPredicate>& ps =
          preds_by_scan[static_cast<size_t>(s)];

      // Walk the key prefix exactly like the planner: equality predicates
      // fill leading positions, then a connecting join column must appear.
      std::vector<const ExecPredicate*> eq;
      std::vector<bool> consumed(ps.size(), false);
      const BoundJoin* used_join = nullptr;
      for (int key_col : ix.key_columns) {
        int eq_pi = -1;
        for (size_t pi = 0; pi < ps.size(); ++pi) {
          if (!consumed[pi] && ps[pi].column_id == key_col &&
              ps[pi].equality_capable()) {
            eq_pi = static_cast<int>(pi);
            break;
          }
        }
        if (eq_pi >= 0) {
          eq.push_back(&ps[static_cast<size_t>(eq_pi)]);
          consumed[static_cast<size_t>(eq_pi)] = true;
          continue;
        }
        for (const BoundJoin* j : connecting) {
          if (my_col(j).column_id == key_col) {
            used_join = j;
            break;
          }
        }
        break;
      }

      int64_t combos = 1;
      for (const ExecPredicate* p : eq) {
        combos *= static_cast<int64_t>(p->values.size());
        if (combos > kMaxSeekCombos) break;
      }
      if (used_join == nullptr || combos > kMaxSeekCombos) {
        method = JoinMethod::kHashJoin;  // defensive: plan/exec mismatch
      } else {
        std::vector<const ExecPredicate*> residuals;
        for (size_t pi = 0; pi < ps.size(); ++pi) {
          if (!consumed[pi]) residuals.push_back(&ps[pi]);
        }
        const int n_eq = static_cast<int>(eq.size());
        std::vector<double> prefix(static_cast<size_t>(n_eq) + 1);
        std::vector<size_t> odo(static_cast<size_t>(n_eq), 0);
        int64_t entries = 0;
        int64_t seeks = 0;
        int64_t lookups = 0;
        // One visitor for the whole probe loop: constructing a capturing
        // std::function per probe would allocate on every outer row.
        const uint32_t* cur_tuple = nullptr;
        const BTree::Visitor probe_visit = [&](const BTree::Entry& e) {
          ++entries;
          bool heap_read = false;
          for (const ExecPredicate* p : residuals) {
            const int slot = slots[static_cast<size_t>(p->column_id)];
            double v;
            if (slot >= 0) {
              v = EntryValue(e, nk, slot);
            } else {
              v = store.value(t, e.row_id, p->column_id);
              heap_read = true;
            }
            if (!p->Matches(v)) return true;
          }
          if (heap_read) ++lookups;
          if (verify_joins(cur_tuple, e.row_id, used_join)) {
            emit(cur_tuple, e.row_id);
          }
          return true;
        };
        for (int64_t ti = 0; ti < tuples.count(); ++ti) {
          cur_tuple = tuples.tuple(ti);
          prefix[static_cast<size_t>(n_eq)] =
              left_value(cur_tuple, other_scan(used_join),
                         other_col(used_join));
          std::fill(odo.begin(), odo.end(), 0);
          for (int64_t combo = 0; combo < combos; ++combo) {
            for (int i = 0; i < n_eq; ++i) {
              prefix[static_cast<size_t>(i)] =
                  eq[static_cast<size_t>(i)]
                      ->values[odo[static_cast<size_t>(i)]];
            }
            ++seeks;
            tree->SeekPrefix(prefix.data(), n_eq + 1, probe_visit);
            for (int i = n_eq - 1; i >= 0; --i) {
              if (++odo[static_cast<size_t>(i)] <
                  eq[static_cast<size_t>(i)]->values.size()) {
                break;
              }
              odo[static_cast<size_t>(i)] = 0;
            }
          }
        }
        ops.index_seeks += seeks;
        ops.index_entries += entries;
        ops.heap_lookups += lookups;
      }
    }

    if (method == JoinMethod::kMergeJoin) {
      std::vector<uint32_t> rows =
          collect_rows(s, step.access, step.index_pos);
      const BoundJoin* mj = connecting.front();
      const int mcol = my_col(mj).column_id;

      std::vector<std::pair<double, uint32_t>> right;
      right.reserve(rows.size());
      for (uint32_t r : rows) right.emplace_back(store.value(t, r, mcol), r);
      std::vector<std::pair<double, int64_t>> left;
      left.reserve(static_cast<size_t>(tuples.count()));
      for (int64_t ti = 0; ti < tuples.count(); ++ti) {
        left.emplace_back(
            left_value(tuples.tuple(ti), other_scan(mj), other_col(mj)),
            ti);
      }
      std::sort(right.begin(), right.end());
      std::sort(left.begin(), left.end());
      ops.sort_rows += static_cast<int64_t>(left.size() + right.size());
      ops.merge_rows += static_cast<int64_t>(left.size() + right.size());

      size_t i = 0;
      size_t j = 0;
      while (i < left.size() && j < right.size()) {
        if (left[i].first < right[j].first) {
          ++i;
        } else if (right[j].first < left[i].first) {
          ++j;
        } else {
          const double v = left[i].first;
          size_t i2 = i;
          while (i2 < left.size() && left[i2].first == v) ++i2;
          size_t j2 = j;
          while (j2 < right.size() && right[j2].first == v) ++j2;
          for (size_t a = i; a < i2; ++a) {
            const uint32_t* tuple = tuples.tuple(left[a].second);
            for (size_t b = j; b < j2; ++b) {
              if (verify_joins(tuple, right[b].second, mj)) {
                emit(tuple, right[b].second);
              }
            }
          }
          i = i2;
          j = j2;
        }
      }
    }

    if (method == JoinMethod::kHashJoin) {
      std::vector<uint32_t> rows =
          collect_rows(s, step.access, step.index_pos);
      if (connecting.empty()) {
        for (int64_t ti = 0; ti < tuples.count(); ++ti) {
          const uint32_t* tuple = tuples.tuple(ti);
          for (uint32_t r : rows) emit(tuple, r);
        }
      } else {
        std::vector<uint64_t> hashes;
        hashes.reserve(rows.size());
        for (uint32_t r : rows) {
          uint64_t h = 0;
          for (const BoundJoin* j : connecting) {
            h = HashValue(h, store.value(t, r, my_col(j).column_id));
          }
          hashes.push_back(h);
        }
        JoinHashTable table;
        table.Build(hashes, rows);
        ++ops.hash_builds;
        ops.hash_build_rows += static_cast<int64_t>(rows.size());
        ops.hash_probe_rows += tuples.count();
        for (int64_t ti = 0; ti < tuples.count(); ++ti) {
          const uint32_t* tuple = tuples.tuple(ti);
          uint64_t h = 0;
          for (const BoundJoin* j : connecting) {
            h = HashValue(h,
                          left_value(tuple, other_scan(j), other_col(j)));
          }
          table.ForEach(h, [&](uint32_t r) {
            if (verify_joins(tuple, r, nullptr)) emit(tuple, r);
          });
        }
      }
    }

    slot_of_scan[static_cast<size_t>(s)] = tuples.width;
    tuples = std::move(next);
  }

  // ---- Post-processing: checksum, aggregation, ordering. ----
  ExecResult result;
  result.joined_rows = tuples.count();
  ops.result_rows += result.joined_rows;

  std::vector<BoundColumnUse> proj;
  if (query.select_star) {
    for (int s = 0; s < query.num_scans(); ++s) {
      const int t = query.scans[static_cast<size_t>(s)].table_id;
      for (int col = 0; col < store.num_cols(t); ++col) {
        BoundColumnUse u;
        u.scan_id = s;
        u.column = ColumnRef{t, col};
        proj.push_back(u);
      }
    }
  } else {
    proj = query.projections;
  }

  auto tuple_value = [&](const uint32_t* tuple,
                         const BoundColumnUse& u) -> double {
    return store.value(query.scans[static_cast<size_t>(u.scan_id)].table_id,
                       tuple[slot_of_scan[static_cast<size_t>(u.scan_id)]],
                       u.column.column_id);
  };

  uint64_t checksum = 0;
  std::unordered_set<uint64_t> groups;
  for (int64_t ti = 0; ti < tuples.count(); ++ti) {
    const uint32_t* tuple = tuples.tuple(ti);
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const BoundColumnUse& u : proj) {
      h = HashValue(h, tuple_value(tuple, u));
    }
    checksum += h;
    if (query.has_aggregation && !query.group_by.empty()) {
      uint64_t gh = 0x9e3779b97f4a7c15ULL;
      for (const BoundColumnUse& u : query.group_by) {
        gh = HashValue(gh, tuple_value(tuple, u));
      }
      groups.insert(gh);
    }
  }
  result.checksum = checksum;

  if (query.has_aggregation) {
    result.output_rows = query.group_by.empty()
                             ? 1
                             : static_cast<int64_t>(groups.size());
    ops.agg_groups += result.output_rows;
  } else {
    result.output_rows = result.joined_rows;
  }

  // Final sort (skipped when a single-scan order-providing index was the
  // chosen access path, mirroring the planner's sort elimination). The
  // sorted order itself is not part of the result contract — only the work
  // is — so nothing feeds back into the checksum.
  if (!query.order_by.empty()) {
    bool eliminated = false;
    if (!force_reference && query.num_scans() == 1 &&
        plan.steps[0].index_pos >= 0) {
      std::vector<int> order_cols;
      for (const BoundColumnUse& u : query.order_by) {
        order_cols.push_back(u.column.column_id);
      }
      eliminated = ProvidesOrderExec(
          config[static_cast<size_t>(plan.steps[0].index_pos)],
          preds_by_scan[0], order_cols);
    }
    if (!eliminated && tuples.count() > 1) {
      const size_t k = query.order_by.size();
      std::vector<double> keys(static_cast<size_t>(tuples.count()) * k);
      for (int64_t ti = 0; ti < tuples.count(); ++ti) {
        for (size_t oi = 0; oi < k; ++oi) {
          keys[static_cast<size_t>(ti) * k + oi] =
              tuple_value(tuples.tuple(ti), query.order_by[oi]);
        }
      }
      std::vector<int64_t> idx(static_cast<size_t>(tuples.count()));
      for (int64_t ti = 0; ti < tuples.count(); ++ti) {
        idx[static_cast<size_t>(ti)] = ti;
      }
      std::sort(idx.begin(), idx.end(), [&](int64_t a, int64_t b) {
        for (size_t oi = 0; oi < k; ++oi) {
          const double va = keys[static_cast<size_t>(a) * k + oi];
          const double vb = keys[static_cast<size_t>(b) * k + oi];
          if (va < vb) return true;
          if (va > vb) return false;
        }
        return a < b;
      });
      ops.sort_rows += tuples.count();
    }
  }
  counters_.Add(ops);
  if (work != nullptr) *work = ops;
  return result;
}

}  // namespace bati::exec
