#include "catalog/catalog.h"

#include <algorithm>

namespace bati {

int ColumnWidthBytes(ColumnType type, int declared_length) {
  switch (type) {
    case ColumnType::kInt:
      return 4;
    case ColumnType::kBigInt:
      return 8;
    case ColumnType::kDouble:
      return 8;
    case ColumnType::kDecimal:
      return 8;
    case ColumnType::kDate:
      return 4;
    case ColumnType::kString:
      return std::max(1, declared_length);
  }
  return 8;
}

int Table::AddColumn(Column column) {
  columns_.push_back(std::move(column));
  return static_cast<int>(columns_.size()) - 1;
}

int Table::FindColumn(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

double Table::RowWidthBytes() const {
  double width = 0.0;
  for (const Column& c : columns_) width += c.WidthBytes();
  return width;
}

StatusOr<int> Database::AddTable(Table table) {
  if (FindTable(table.name()) >= 0) {
    return Status::InvalidArgument("duplicate table name: " + table.name());
  }
  tables_.push_back(std::move(table));
  return static_cast<int>(tables_.size()) - 1;
}

int Database::FindTable(const std::string& name) const {
  for (size_t i = 0; i < tables_.size(); ++i) {
    if (tables_[i].name() == name) return static_cast<int>(i);
  }
  return -1;
}

double Database::TotalSizeBytes() const {
  double total = 0.0;
  for (const Table& t : tables_) total += t.SizeBytes();
  return total;
}

}  // namespace bati
