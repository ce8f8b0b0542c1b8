#include "exec/column_store.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/macros.h"

namespace bati::exec {

namespace {

/// SplitMix64: the stateless mixer used repo-wide for deterministic
/// per-(entity, ordinal) hashing.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double Uniform01(uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

bool IsIntegerLike(ColumnType type) {
  return type == ColumnType::kInt || type == ColumnType::kBigInt ||
         type == ColumnType::kDate;
}

}  // namespace

ColumnStore::ColumnStore(const Database& db, const StoreOptions& options) {
  tables_.resize(static_cast<size_t>(db.num_tables()));
  for (int t = 0; t < db.num_tables(); ++t) {
    const Table& table = db.table(t);
    TableData& td = tables_[static_cast<size_t>(t)];
    td.rows = static_cast<int64_t>(std::llround(
        std::max(0.0, table.row_count())));
    BATI_CHECK(td.rows <= options.max_rows_per_table);
    td.num_cols = table.num_columns();
    total_rows_ += td.rows;

    td.pools.resize(static_cast<size_t>(td.num_cols));
    td.pool_cdf.resize(static_cast<size_t>(td.num_cols));
    td.heap.resize(static_cast<size_t>(td.rows) *
                   static_cast<size_t>(td.num_cols));

    for (int c = 0; c < td.num_cols; ++c) {
      const Column& col = table.column(c);
      const ColumnStats& s = col.stats;
      // NDV distinct values evenly spaced over the declared domain, capped
      // by the table's cardinality: a 200-row table cannot hold 100k
      // distinct balances. Equal (domain, NDV) endpoints of an equi-join
      // synthesize identical pools, so joins match under containment.
      const int64_t ndv = std::max<int64_t>(
          1, std::min(td.rows == 0 ? 1 : td.rows,
                      static_cast<int64_t>(std::llround(s.ndv))));
      std::vector<double>& pool = td.pools[static_cast<size_t>(c)];
      pool.reserve(static_cast<size_t>(ndv));
      const double span = s.max_value - s.min_value;
      double prev = -std::numeric_limits<double>::infinity();
      for (int64_t i = 0; i < ndv; ++i) {
        double v = s.min_value +
                   span * static_cast<double>(i) / static_cast<double>(ndv);
        if (IsIntegerLike(col.type)) v = std::round(v);
        if (v > prev) {  // rounding may collapse neighbours; keep distinct
          pool.push_back(v);
          prev = v;
        }
      }
      if (pool.empty()) pool.push_back(s.min_value);

      // Per-pool-value probability: histogram bucket mass split evenly
      // among the pool values the bucket spans; uniform otherwise.
      std::vector<double>& cdf = td.pool_cdf[static_cast<size_t>(c)];
      cdf.resize(pool.size());
      if (!s.histogram.empty()) {
        double cum = 0.0;
        for (size_t i = 0; i < pool.size(); ++i) {
          const double lo = i == 0
                                ? -std::numeric_limits<double>::infinity()
                                : (pool[i - 1] + pool[i]) / 2.0;
          const double hi = i + 1 == pool.size()
                                ? std::numeric_limits<double>::infinity()
                                : (pool[i] + pool[i + 1]) / 2.0;
          cum += s.histogram.RangeFraction(
              std::max(lo, s.histogram.min_value()),
              std::min(hi, s.histogram.max_value()));
          cdf[i] = cum;
        }
        // Normalize: clamped bucket edges can drop a little mass.
        const double total = cdf.back();
        if (total > 0.0) {
          for (double& v : cdf) v /= total;
        } else {
          for (size_t i = 0; i < cdf.size(); ++i) {
            cdf[i] = static_cast<double>(i + 1) /
                     static_cast<double>(cdf.size());
          }
        }
      } else {
        for (size_t i = 0; i < cdf.size(); ++i) {
          cdf[i] = static_cast<double>(i + 1) /
                   static_cast<double>(cdf.size());
        }
      }
      cdf.back() = 1.0;

      // Row values: inverse-CDF over the pool keyed by a per-row hash.
      const uint64_t col_seed =
          Mix64(options.seed ^ Mix64(static_cast<uint64_t>(t) * 1000003ULL +
                                     static_cast<uint64_t>(c)));
      const bool uniform = s.histogram.empty();
      for (int64_t r = 0; r < td.rows; ++r) {
        const uint64_t h = Mix64(col_seed ^ static_cast<uint64_t>(r));
        size_t idx;
        if (uniform) {
          idx = static_cast<size_t>(h % static_cast<uint64_t>(pool.size()));
        } else {
          const double u = Uniform01(h);
          idx = static_cast<size_t>(
              std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
          if (idx >= pool.size()) idx = pool.size() - 1;
        }
        td.heap[static_cast<size_t>(r) * static_cast<size_t>(td.num_cols) +
                static_cast<size_t>(c)] = pool[idx];
      }
    }
  }
}

double ColumnStore::Quantile(int t, int c, double fraction) const {
  const TableData& td = tables_[static_cast<size_t>(t)];
  const std::vector<double>& pool = td.pools[static_cast<size_t>(c)];
  const std::vector<double>& cdf = td.pool_cdf[static_cast<size_t>(c)];
  const double f = std::min(1.0, std::max(0.0, fraction));
  const size_t idx = static_cast<size_t>(
      std::lower_bound(cdf.begin(), cdf.end(), f) - cdf.begin());
  return pool[std::min(idx, pool.size() - 1)];
}

}  // namespace bati::exec
