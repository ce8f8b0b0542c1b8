#include "tuner/candidate_gen.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "common/macros.h"

namespace bati {

namespace {

/// Maximum key columns per candidate index.
constexpr int kMaxKeyColumns = 3;
/// Cap on candidates emitted per scan of a query (keeps the universe at the
/// "hundreds to thousands" scale the paper reports).
constexpr int kMaxPerScan = 4;

/// Per-scan indexable-column classification (paper Figure 3's table of
/// equality / range / join / projection columns).
struct ScanColumns {
  std::vector<int> equality;    // equality & IN filter columns
  std::vector<int> range;       // range filter columns
  std::vector<int> join;        // join columns
  std::vector<int> group_order; // group-by then order-by columns, in order
  std::vector<int> payload;     // projection columns (include candidates)
  std::vector<int> all_used;    // every referenced column
};

void PushUnique(std::vector<int>& v, int c) {
  if (std::find(v.begin(), v.end(), c) == v.end()) v.push_back(c);
}

}  // namespace

std::optional<Index> MergeIndexes(const Index& a, const Index& b) {
  if (a.table_id != b.table_id) return std::nullopt;
  const Index& shorter =
      a.key_columns.size() <= b.key_columns.size() ? a : b;
  const Index& longer = &shorter == &a ? b : a;
  // Mergeable iff the shorter key is a prefix of the longer key.
  for (size_t i = 0; i < shorter.key_columns.size(); ++i) {
    if (shorter.key_columns[i] != longer.key_columns[i]) {
      return std::nullopt;
    }
  }
  Index merged;
  merged.table_id = a.table_id;
  merged.key_columns = longer.key_columns;
  merged.include_columns = a.include_columns;
  merged.include_columns.insert(merged.include_columns.end(),
                                b.include_columns.begin(),
                                b.include_columns.end());
  merged.Canonicalize();
  return merged;
}

CandidateSet GenerateCandidates(const Workload& workload) {
  CandidateSet result;
  std::unordered_map<Index, int, IndexHash> seen;
  result.per_query.resize(workload.queries.size());

  for (size_t qi = 0; qi < workload.queries.size(); ++qi) {
    const Query& q = workload.queries[qi];
    std::vector<ScanColumns> per_scan(static_cast<size_t>(q.num_scans()));

    for (const BoundFilter& f : q.filters) {
      ScanColumns& sc = per_scan[static_cast<size_t>(f.scan_id)];
      switch (f.kind) {
        case FilterKind::kEquality:
        case FilterKind::kIn:
          PushUnique(sc.equality, f.column.column_id);
          break;
        case FilterKind::kRange:
          PushUnique(sc.range, f.column.column_id);
          break;
        default:
          break;  // LIKE / <> / column-column are not sargable
      }
      PushUnique(sc.all_used, f.column.column_id);
    }
    for (const BoundJoin& j : q.joins) {
      PushUnique(per_scan[static_cast<size_t>(j.left_scan)].join,
                 j.left_column.column_id);
      PushUnique(per_scan[static_cast<size_t>(j.left_scan)].all_used,
                 j.left_column.column_id);
      PushUnique(per_scan[static_cast<size_t>(j.right_scan)].join,
                 j.right_column.column_id);
      PushUnique(per_scan[static_cast<size_t>(j.right_scan)].all_used,
                 j.right_column.column_id);
    }
    for (const BoundColumnUse& u : q.group_by) {
      PushUnique(per_scan[static_cast<size_t>(u.scan_id)].group_order,
                 u.column.column_id);
      PushUnique(per_scan[static_cast<size_t>(u.scan_id)].all_used,
                 u.column.column_id);
    }
    for (const BoundColumnUse& u : q.order_by) {
      PushUnique(per_scan[static_cast<size_t>(u.scan_id)].group_order,
                 u.column.column_id);
      PushUnique(per_scan[static_cast<size_t>(u.scan_id)].all_used,
                 u.column.column_id);
    }
    for (const BoundColumnUse& u : q.projections) {
      PushUnique(per_scan[static_cast<size_t>(u.scan_id)].payload,
                 u.column.column_id);
      PushUnique(per_scan[static_cast<size_t>(u.scan_id)].all_used,
                 u.column.column_id);
    }

    auto emit = [&](int table_id, Index ix, int scan_emitted[],
                    size_t scan_idx) {
      if (ix.key_columns.empty()) return;
      if (static_cast<int>(ix.key_columns.size()) > kMaxKeyColumns) {
        ix.key_columns.resize(static_cast<size_t>(kMaxKeyColumns));
      }
      ix.table_id = table_id;
      ix.Canonicalize();
      if (scan_emitted[scan_idx] >= kMaxPerScan) return;
      auto [it, inserted] =
          seen.emplace(ix, static_cast<int>(result.indexes.size()));
      if (inserted) result.indexes.push_back(ix);
      std::vector<int>& prov = result.per_query[qi];
      if (std::find(prov.begin(), prov.end(), it->second) == prov.end()) {
        prov.push_back(it->second);
        ++scan_emitted[scan_idx];
      }
    };

    std::vector<int> emitted_counts(static_cast<size_t>(q.num_scans()), 0);
    for (int s = 0; s < q.num_scans(); ++s) {
      const ScanColumns& sc = per_scan[static_cast<size_t>(s)];
      if (sc.all_used.empty()) continue;
      int table_id = q.scans[static_cast<size_t>(s)].table_id;
      int* counter = emitted_counts.data();
      size_t si = static_cast<size_t>(s);

      // (a) Filter-based index: equality columns then the first range
      // column as key; remaining used columns as payload (Figure 3's
      // "Filter" candidates).
      if (!sc.equality.empty() || !sc.range.empty()) {
        Index ix;
        ix.key_columns = sc.equality;
        if (!sc.range.empty()) ix.key_columns.push_back(sc.range.front());
        ix.include_columns = sc.all_used;
        emit(table_id, ix, counter, si);
        // Narrow (non-covering) variant.
        Index narrow;
        narrow.key_columns = ix.key_columns;
        emit(table_id, narrow, counter, si);
      }

      // (b) Join-based indexes: one per join column, with equality columns
      // appended to the key and the rest as payload (Figure 3's "Join"
      // candidates, e.g. [R.b; R.a]).
      for (int jc : sc.join) {
        Index ix;
        ix.key_columns.push_back(jc);
        for (int e : sc.equality) ix.key_columns.push_back(e);
        ix.include_columns = sc.all_used;
        emit(table_id, ix, counter, si);
        Index bare;
        bare.key_columns.push_back(jc);
        emit(table_id, bare, counter, si);
      }

      // (c) Group/order-based index: grouping columns as key, payload
      // included (supports index-only aggregation paths).
      if (!sc.group_order.empty()) {
        Index ix;
        ix.key_columns = sc.group_order;
        ix.include_columns = sc.all_used;
        emit(table_id, ix, counter, si);
      }
    }
  }

  if (workload.database != nullptr) {
    result.size_bytes.reserve(result.indexes.size());
    for (const Index& ix : result.indexes) {
      result.size_bytes.push_back(ix.SizeBytes(*workload.database));
    }
  }
  return result;
}

}  // namespace bati
