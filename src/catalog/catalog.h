#ifndef BATI_CATALOG_CATALOG_H_
#define BATI_CATALOG_CATALOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/histogram.h"
#include "common/status.h"

namespace bati {

/// Logical column types. The what-if optimizer's cost model only needs widths
/// and value-domain statistics, so types are coarse.
enum class ColumnType { kInt, kBigInt, kDouble, kDecimal, kDate, kString };

/// Byte width charged by the cost model for a column of the given type and
/// declared length (strings use declared length; others are fixed).
int ColumnWidthBytes(ColumnType type, int declared_length);

/// Optimizer statistics for one column, the only per-column state the
/// simulated what-if optimizer consumes (it never touches data pages, exactly
/// like a real optimizer's cardinality model).
struct ColumnStats {
  /// Number of distinct values; >= 1 for non-empty tables.
  double ndv = 1.0;
  /// Value-domain bounds used for range-predicate selectivity.
  double min_value = 0.0;
  double max_value = 1.0;
  /// Fraction of NULLs in [0, 1].
  double null_fraction = 0.0;
  /// Optional value-distribution histogram. When empty, selectivity
  /// estimation falls back to the uniform-domain assumption over
  /// [min_value, max_value].
  Histogram histogram;
};

/// A column of a table.
struct Column {
  std::string name;
  ColumnType type = ColumnType::kInt;
  /// Declared length for strings; ignored otherwise.
  int declared_length = 0;
  ColumnStats stats;

  int WidthBytes() const { return ColumnWidthBytes(type, declared_length); }
};

/// A base table: name, cardinality, columns. Statistics-only; there is no
/// stored data in this simulation (see DESIGN.md, substitution table).
class Table {
 public:
  Table(std::string name, double row_count)
      : name_(std::move(name)), row_count_(row_count) {}

  const std::string& name() const { return name_; }
  double row_count() const { return row_count_; }

  /// Appends a column; returns its ordinal id within this table.
  int AddColumn(Column column);

  int num_columns() const { return static_cast<int>(columns_.size()); }
  const Column& column(int id) const {
    return columns_.at(static_cast<size_t>(id));
  }
  const std::vector<Column>& columns() const { return columns_; }

  /// Ordinal of the named column, or -1.
  int FindColumn(const std::string& name) const;

  /// Sum of column widths: bytes per row charged by the cost model.
  double RowWidthBytes() const;

  /// Estimated heap size in bytes (rows * row width).
  double SizeBytes() const { return row_count_ * RowWidthBytes(); }

 private:
  std::string name_;
  double row_count_;
  std::vector<Column> columns_;
};

/// Identifies a column globally: (table id in database, column id in table).
struct ColumnRef {
  int table_id = -1;
  int column_id = -1;

  bool operator==(const ColumnRef& other) const {
    return table_id == other.table_id && column_id == other.column_id;
  }
  bool operator<(const ColumnRef& other) const {
    if (table_id != other.table_id) return table_id < other.table_id;
    return column_id < other.column_id;
  }
};

/// A statistics-only database: a named collection of tables.
class Database {
 public:
  explicit Database(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Adds a table; returns its id. Fails if the name already exists.
  StatusOr<int> AddTable(Table table);

  int num_tables() const { return static_cast<int>(tables_.size()); }
  const Table& table(int id) const {
    return tables_.at(static_cast<size_t>(id));
  }

  /// Table id by name, or -1.
  int FindTable(const std::string& name) const;

  const Column& column(const ColumnRef& ref) const {
    return table(ref.table_id).column(ref.column_id);
  }

  /// Total heap bytes across all tables (basis of the "3x database size"
  /// storage constraint used when comparing with DTA, paper Section 7.3).
  double TotalSizeBytes() const;

 private:
  std::string name_;
  std::vector<Table> tables_;
};

}  // namespace bati

#endif  // BATI_CATALOG_CATALOG_H_
