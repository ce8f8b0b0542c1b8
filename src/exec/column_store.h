#ifndef BATI_EXEC_COLUMN_STORE_H_
#define BATI_EXEC_COLUMN_STORE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "catalog/catalog.h"

namespace bati::exec {

/// Options for deterministic store materialization.
struct StoreOptions {
  /// Seed for all value synthesis; equal seeds yield byte-identical stores.
  uint64_t seed = 42;
  /// Hard cap on rows per table (guards against accidentally materializing
  /// a statistics-scale database; callers pass an appropriately scaled
  /// workload instead of relying on this).
  int64_t max_rows_per_table = 64 * 1000 * 1000;
};

/// A real in-memory store materialized from a statistics-only Database:
/// every table gets `row_count` rows whose per-column values are drawn
/// deterministically from the catalog's distributions — NDV distinct values
/// evenly spaced over [min, max] (integer-like types rounded), assigned to
/// rows uniformly or by the column's histogram when it carries one. Because
/// two join-column endpoints with equal domains and NDVs synthesize the
/// same value pool, equi-joins match the way the cardinality model assumes
/// (containment), and realized filter fractions track the binder's
/// selectivity estimates.
///
/// Rows are stored row-major (heap order), so a sequential scan's memory
/// traffic grows with the full row width exactly as the cost model's
/// heap-page term does; strings are represented by their value id (the
/// cost model never reads string bytes, and neither does any predicate).
class ColumnStore {
 public:
  ColumnStore(const Database& db, const StoreOptions& options);

  int num_tables() const { return static_cast<int>(tables_.size()); }
  int64_t rows(int t) const { return tables_[static_cast<size_t>(t)].rows; }
  int num_cols(int t) const {
    return tables_[static_cast<size_t>(t)].num_cols;
  }
  int64_t total_rows() const { return total_rows_; }

  /// Value of column `c` of row `r` of table `t` (row-major heap read).
  double value(int t, int64_t r, int c) const {
    const TableData& td = tables_[static_cast<size_t>(t)];
    return td.heap[static_cast<size_t>(r) * static_cast<size_t>(td.num_cols) +
                   static_cast<size_t>(c)];
  }

  /// The row-major heap of table `t` (scans iterate this directly).
  const std::vector<double>& heap(int t) const {
    return tables_[static_cast<size_t>(t)].heap;
  }

  /// Distinct values the generator used for column (t, c), ascending.
  const std::vector<double>& pool(int t, int c) const {
    return tables_[static_cast<size_t>(t)]
        .pools[static_cast<size_t>(c)];
  }

  /// Smallest pool value v with P(column <= v) >= fraction under the
  /// generator's distribution (histogram or uniform); realizes range
  /// predicates with a target selectivity. fraction is clamped to [0, 1].
  double Quantile(int t, int c, double fraction) const;

 private:
  struct TableData {
    int64_t rows = 0;
    int num_cols = 0;
    std::vector<double> heap;  // rows * num_cols, row-major
    std::vector<std::vector<double>> pools;
    /// Cumulative probability of pools[c][0..i] under the generating
    /// distribution; same shape as pools.
    std::vector<std::vector<double>> pool_cdf;
  };

  std::vector<TableData> tables_;
  int64_t total_rows_ = 0;
};

}  // namespace bati::exec

#endif  // BATI_EXEC_COLUMN_STORE_H_
