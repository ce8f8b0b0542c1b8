// The pre-refactor what-if implementation, preserved verbatim as the
// bit-identity oracle for the fast path in what_if.cc: for every
// (query, configuration), WhatIfOptimizer::Explain() must equal the free
// function ExplainReference() byte for byte (tests/whatif_fastpath_test.cc
// holds the two to that). It is built into the bati_optimizer_oracle
// library, which only tests and bench_whatif link, so no production binary
// carries it.

#include "optimizer/what_if_reference.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "common/macros.h"
#include "optimizer/what_if_internal.h"

namespace bati {

namespace {

using whatif_internal::Log2Rows;
using whatif_internal::NoiseFactor;

/// Per-scan compile-time facts extracted once per Cost() call.
struct ScanInfo {
  int table_id = -1;
  double base_rows = 0.0;
  double row_width = 0.0;
  /// Product of all filter selectivities on this scan.
  double filter_selectivity = 1.0;
  /// Column ordinals (within the table) this query needs from the scan.
  std::vector<int> required_columns;
  /// Filters on this scan.
  std::vector<const BoundFilter*> filters;
};

/// Equality-capable filter lookup: equality and IN filters can bind any key
/// prefix position; a range filter can bind only the last matched position.
const BoundFilter* FindFilter(const ScanInfo& scan, int column_id,
                              bool equality_capable) {
  for (const BoundFilter* f : scan.filters) {
    if (f->column.column_id != column_id) continue;
    bool is_eq =
        f->kind == FilterKind::kEquality || f->kind == FilterKind::kIn;
    if (equality_capable == is_eq) return f;
  }
  return nullptr;
}

/// True if scanning through `ix` delivers rows ordered by `order_cols` (in
/// sequence): the key prefix must match the order columns, where positions
/// bound by equality filters are order-free and may be skipped.
bool ProvidesOrder(const Index& ix, const ScanInfo& scan,
                   const std::vector<int>& order_cols) {
  if (order_cols.empty()) return false;
  size_t oi = 0;
  for (int key : ix.key_columns) {
    if (oi < order_cols.size() && key == order_cols[oi]) {
      ++oi;
      continue;
    }
    if (FindFilter(scan, key, /*equality_capable=*/true) != nullptr) {
      continue;  // pinned to a single value: does not disturb the order
    }
    break;
  }
  return oi == order_cols.size();
}

}  // namespace

PlanExplanation ExplainReference(const Database& db,
                                 const CostModelParams& p,
                                 const Query& query,
                                 const std::vector<Index>& config) {
  const int n_scans = query.num_scans();
  BATI_CHECK(n_scans > 0);

  // ---- Gather per-scan info (configuration-independent). ----
  std::vector<ScanInfo> scans(static_cast<size_t>(n_scans));
  for (int s = 0; s < n_scans; ++s) {
    ScanInfo& info = scans[static_cast<size_t>(s)];
    info.table_id = query.scans[static_cast<size_t>(s)].table_id;
    const Table& t = db.table(info.table_id);
    info.base_rows = std::max(1.0, t.row_count());
    info.row_width = std::max(1.0, t.RowWidthBytes());
  }
  for (const BoundFilter& f : query.filters) {
    ScanInfo& info = scans[static_cast<size_t>(f.scan_id)];
    info.filters.push_back(&f);
  }
  for (ScanInfo& info : scans) {
    if (!p.exponential_backoff) {
      for (const BoundFilter* f : info.filters) {
        info.filter_selectivity *= f->selectivity;
      }
      continue;
    }
    // Exponential backoff: most selective filter fully, each further filter
    // with a square-rooted exponent (partial-correlation assumption).
    std::vector<double> sels;
    sels.reserve(info.filters.size());
    for (const BoundFilter* f : info.filters) sels.push_back(f->selectivity);
    std::sort(sels.begin(), sels.end());
    double exponent = 1.0;
    for (double s : sels) {
      info.filter_selectivity *= std::pow(s, exponent);
      exponent *= 0.5;
    }
  }
  // Required columns per scan.
  {
    std::vector<std::set<int>> required(static_cast<size_t>(n_scans));
    auto add_use = [&](int scan_id, const ColumnRef& ref) {
      required[static_cast<size_t>(scan_id)].insert(ref.column_id);
    };
    for (const BoundFilter& f : query.filters) add_use(f.scan_id, f.column);
    for (const BoundJoin& j : query.joins) {
      add_use(j.left_scan, j.left_column);
      add_use(j.right_scan, j.right_column);
    }
    for (const BoundColumnUse& u : query.projections) {
      add_use(u.scan_id, u.column);
    }
    for (const BoundColumnUse& u : query.group_by) add_use(u.scan_id, u.column);
    for (const BoundColumnUse& u : query.order_by) add_use(u.scan_id, u.column);
    for (int s = 0; s < n_scans; ++s) {
      ScanInfo& info = scans[static_cast<size_t>(s)];
      if (query.select_star) {
        const Table& t = db.table(info.table_id);
        for (int c = 0; c < t.num_columns(); ++c) {
          required[static_cast<size_t>(s)].insert(c);
        }
      }
      info.required_columns.assign(required[static_cast<size_t>(s)].begin(),
                                   required[static_cast<size_t>(s)].end());
    }
  }

  // ---- Bulk access path per scan: min over heap + applicable indexes. ----
  // Returns {cost, access kind, index position}.
  struct BulkChoice {
    double cost;
    AccessPathKind kind;
    int index_pos;
  };
  auto bulk_access = [&](int s) -> BulkChoice {
    const ScanInfo& info = scans[static_cast<size_t>(s)];
    double heap_pages = info.base_rows * info.row_width / p.page_bytes;
    BulkChoice best{heap_pages + info.base_rows * p.cpu_per_row,
                    AccessPathKind::kHeapScan, -1};
    for (size_t pos = 0; pos < config.size(); ++pos) {
      const Index& ix = config[pos];
      if (ix.table_id != info.table_id) continue;
      double leaf = ix.LeafRowBytes(db);
      bool covers = ix.Covers(info.required_columns);
      // Match a sargable key prefix against the scan's filters.
      double prefix_sel = 1.0;
      bool matched_any = false;
      for (int key_col : ix.key_columns) {
        const BoundFilter* eq = FindFilter(info, key_col, /*eq=*/true);
        if (eq != nullptr) {
          prefix_sel *= eq->selectivity;
          matched_any = true;
          continue;
        }
        const BoundFilter* range = FindFilter(info, key_col, /*eq=*/false);
        if (range != nullptr &&
            (range->kind == FilterKind::kRange)) {
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

  // ---- Join order: configuration-independent greedy left-deep order on
  // effective (post-filter) cardinalities. ----
  std::vector<double> eff_rows(static_cast<size_t>(n_scans));
  for (int s = 0; s < n_scans; ++s) {
    eff_rows[static_cast<size_t>(s)] =
        std::max(1.0, scans[static_cast<size_t>(s)].base_rows *
                          scans[static_cast<size_t>(s)].filter_selectivity);
  }
  std::vector<bool> placed(static_cast<size_t>(n_scans), false);
  std::vector<int> order;
  order.reserve(static_cast<size_t>(n_scans));
  {
    int first = 0;
    for (int s = 1; s < n_scans; ++s) {
      if (eff_rows[static_cast<size_t>(s)] <
          eff_rows[static_cast<size_t>(first)]) {
        first = s;
      }
    }
    order.push_back(first);
    placed[static_cast<size_t>(first)] = true;
    while (static_cast<int>(order.size()) < n_scans) {
      int best = -1;
      bool best_connected = false;
      for (int s = 0; s < n_scans; ++s) {
        if (placed[static_cast<size_t>(s)]) continue;
        bool connected = false;
        for (const BoundJoin& j : query.joins) {
          bool touches_s = (j.left_scan == s || j.right_scan == s);
          if (!touches_s) continue;
          int other = (j.left_scan == s) ? j.right_scan : j.left_scan;
          if (placed[static_cast<size_t>(other)]) {
            connected = true;
            break;
          }
        }
        if (best < 0 ||
            (connected && !best_connected) ||
            (connected == best_connected &&
             eff_rows[static_cast<size_t>(s)] <
                 eff_rows[static_cast<size_t>(best)])) {
          best = s;
          best_connected = connected;
        }
      }
      order.push_back(best);
      placed[static_cast<size_t>(best)] = true;
    }
  }

  // ---- Walk the join order, choosing access paths and join methods. ----
  PlanExplanation plan;
  double total = 0.0;
  double current_rows = 0.0;
  bool sort_eliminated = false;
  for (size_t step_idx = 0; step_idx < order.size(); ++step_idx) {
    int s = order[step_idx];
    const ScanInfo& info = scans[static_cast<size_t>(s)];
    PlanStep step;
    step.scan_id = s;

    if (step_idx == 0) {
      BulkChoice choice = bulk_access(s);
      step.access = choice.kind;
      step.index_pos = choice.index_pos;
      step.step_cost = choice.cost;
      current_rows = eff_rows[static_cast<size_t>(s)];
      // Single-table queries with ORDER BY: an order-providing index can
      // eliminate the final sort, so pick the access path by the joint cost
      // access + (sort unless ordered). A joint minimum keeps the model
      // monotone in the configuration.
      if (n_scans == 1 && !query.order_by.empty()) {
        std::vector<int> order_cols;
        for (const BoundColumnUse& u : query.order_by) {
          order_cols.push_back(u.column.column_id);
        }
        double out = eff_rows[static_cast<size_t>(s)];
        double sort_cost = out * Log2Rows(out) * p.sort_per_row_log;
        double best_joint = choice.cost + sort_cost;
        bool best_ordered = false;
        for (size_t pos = 0; pos < config.size(); ++pos) {
          const Index& ix = config[pos];
          if (ix.table_id != info.table_id) continue;
          if (!ProvidesOrder(ix, info, order_cols)) continue;
          double leaf = ix.LeafRowBytes(db);
          bool covers = ix.Covers(info.required_columns);
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
      // Join predicates connecting s to the scans placed so far.
      std::vector<const BoundJoin*> connecting;
      for (const BoundJoin& j : query.joins) {
        int other = -1;
        if (j.left_scan == s) other = j.right_scan;
        if (j.right_scan == s) other = j.left_scan;
        if (other < 0) continue;
        for (size_t k = 0; k < step_idx; ++k) {
          if (order[k] == other) {
            connecting.push_back(&j);
            break;
          }
        }
      }

      // Output cardinality after this join (independent of method).
      double out_rows = current_rows * eff_rows[static_cast<size_t>(s)];
      for (const BoundJoin* j : connecting) {
        const Column& lc = db.column(j->left_column);
        const Column& rc = db.column(j->right_column);
        out_rows /= std::max({1.0, lc.stats.ndv, rc.stats.ndv});
      }
      out_rows = std::max(1.0, out_rows);

      // Option 1: hash join over the best bulk access.
      BulkChoice bulk = bulk_access(s);
      double best_cost = std::numeric_limits<double>::infinity();
      JoinMethod best_method = JoinMethod::kHashJoin;
      AccessPathKind best_access = bulk.kind;
      int best_index_pos = bulk.index_pos;
      if (p.enable_hash_join) {
        best_cost = bulk.cost +
                    eff_rows[static_cast<size_t>(s)] * p.hash_build_per_row +
                    current_rows * p.hash_probe_per_row;
      }

      // Option 1b: sort-merge join. The accumulated left side always pays a
      // sort; the new scan avoids its sort when an index delivers rows
      // ordered by the join column (its key prefix, with equality-bound
      // positions skippable, starts with that column).
      if (p.enable_merge_join && !connecting.empty()) {
        double right_rows = eff_rows[static_cast<size_t>(s)];
        double right_sorted = bulk.cost + right_rows *
                                              Log2Rows(right_rows) *
                                              p.sort_per_row_log;
        AccessPathKind merge_access = bulk.kind;
        int merge_index_pos = bulk.index_pos;
        for (size_t pos = 0; pos < config.size(); ++pos) {
          const Index& ix = config[pos];
          if (ix.table_id != info.table_id) continue;
          bool ordered = false;
          for (const BoundJoin* j : connecting) {
            const ColumnRef& my_col =
                (j->left_scan == s) ? j->left_column : j->right_column;
            if (ProvidesOrder(ix, info, {my_col.column_id})) {
              ordered = true;
              break;
            }
          }
          if (!ordered) continue;
          // Full ordered retrieval through this index (no sort needed).
          double leaf = ix.LeafRowBytes(db);
          bool covers = ix.Covers(info.required_columns);
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
      if (p.enable_index_nested_loop && !connecting.empty()) {
        for (size_t pos = 0; pos < config.size(); ++pos) {
          const Index& ix = config[pos];
          if (ix.table_id != info.table_id) continue;
          // Walk the key prefix: equality filters may fill leading
          // positions, then a join column must appear.
          double prefix_sel = 1.0;
          const BoundJoin* used_join = nullptr;
          for (int key_col : ix.key_columns) {
            const BoundFilter* eq = FindFilter(info, key_col, /*eq=*/true);
            if (eq != nullptr) {
              prefix_sel *= eq->selectivity;
              continue;
            }
            for (const BoundJoin* j : connecting) {
              const ColumnRef& my_col =
                  (j->left_scan == s) ? j->left_column : j->right_column;
              if (my_col.column_id == key_col) {
                used_join = j;
                break;
              }
            }
            break;
          }
          if (used_join == nullptr) continue;
          const ColumnRef& my_col = (used_join->left_scan == s)
                                        ? used_join->left_column
                                        : used_join->right_column;
          const Column& jc = db.column(my_col);
          double matched_per_probe =
              std::max(1.0, info.base_rows * prefix_sel /
                                std::max(1.0, jc.stats.ndv));
          double leaf = ix.LeafRowBytes(db);
          bool covers = ix.Covers(info.required_columns);
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

}  // namespace bati
