#ifndef BATI_STORAGE_INDEX_H_
#define BATI_STORAGE_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/stats_view.h"

namespace bati {

/// A (hypothetical) covering B+-tree index: ordered key columns plus
/// non-key "include" payload columns, as in the paper's Figure 3 where key
/// columns are underscored and the rest are payload. Indexes are never
/// materialized in this simulation — the what-if optimizer costs them from
/// statistics alone, which is exactly what a real what-if API does.
struct Index {
  int table_id = -1;
  /// Ordinal column ids within the table, in key order (order matters).
  std::vector<int> key_columns;
  /// Ordinal column ids of included payload columns (order irrelevant;
  /// kept sorted for canonical equality).
  std::vector<int> include_columns;

  /// Canonicalizes: dedupes includes, removes includes that are also keys,
  /// sorts includes. Call after construction.
  void Canonicalize();

  bool operator==(const Index& other) const {
    return table_id == other.table_id && key_columns == other.key_columns &&
           include_columns == other.include_columns;
  }

  /// Stable content hash for dedupe containers.
  uint64_t Hash() const;

  /// Display name, e.g. "ix_lineitem__l_shipdate_l_partkey__inc2".
  std::string Name(const Database& db) const;

  /// Bytes per leaf row: widths of key + include columns plus row overhead.
  double LeafRowBytes(const Database& db) const;

  /// As above, reading widths through a StatsView (the what-if hot path's
  /// structure-of-arrays catalog snapshot). Bit-identical to the Database
  /// overload: same overhead constant, same accumulation order.
  double LeafRowBytes(const StatsView& stats) const;

  /// Estimated size in bytes (leaf level dominates).
  double SizeBytes(const Database& db) const;

  /// True if key ∪ include covers every column id in `required`
  /// (ids are ordinals within this index's table).
  bool Covers(const std::vector<int>& required) const;
};

struct IndexHash {
  size_t operator()(const Index& ix) const {
    return static_cast<size_t>(ix.Hash());
  }
};

}  // namespace bati

#endif  // BATI_STORAGE_INDEX_H_
