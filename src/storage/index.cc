#include "storage/index.h"

#include <algorithm>
#include <cstdio>

namespace bati {

namespace {
/// Per-leaf-row bookkeeping overhead (row header + row locator), bytes.
constexpr double kLeafRowOverheadBytes = 10.0;
/// Non-leaf levels and fragmentation markup over the leaf level.
constexpr double kTreeOverheadFactor = 1.05;
}  // namespace

void Index::Canonicalize() {
  std::sort(include_columns.begin(), include_columns.end());
  include_columns.erase(
      std::unique(include_columns.begin(), include_columns.end()),
      include_columns.end());
  // Drop includes already present as keys.
  include_columns.erase(
      std::remove_if(include_columns.begin(), include_columns.end(),
                     [&](int c) {
                       return std::find(key_columns.begin(),
                                        key_columns.end(),
                                        c) != key_columns.end();
                     }),
      include_columns.end());
}

uint64_t Index::Hash() const {
  uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001B3ULL;
  };
  mix(static_cast<uint64_t>(table_id));
  mix(0x5EEDULL);
  for (int c : key_columns) mix(static_cast<uint64_t>(c) + 1);
  mix(0xFACEULL);
  for (int c : include_columns) mix(static_cast<uint64_t>(c) + 1);
  return h;
}

std::string Index::Name(const Database& db) const {
  const Table& t = db.table(table_id);
  std::string name = "ix_" + t.name() + "_";
  for (int c : key_columns) name += "_" + t.column(c).name;
  if (!include_columns.empty()) {
    // Distinguish indexes that differ only in their include sets.
    uint64_t h = 0xCBF29CE484222325ULL;
    for (int c : include_columns) {
      h ^= static_cast<uint64_t>(c) + 1;
      h *= 0x100000001B3ULL;
    }
    char suffix[16];
    std::snprintf(suffix, sizeof(suffix), "%03x",
                  static_cast<unsigned>(h & 0xFFF));
    name += "__inc" + std::to_string(include_columns.size()) + "_" + suffix;
  }
  return name;
}

double Index::LeafRowBytes(const Database& db) const {
  const Table& t = db.table(table_id);
  double bytes = kLeafRowOverheadBytes;
  for (int c : key_columns) bytes += t.column(c).WidthBytes();
  for (int c : include_columns) bytes += t.column(c).WidthBytes();
  return bytes;
}

double Index::LeafRowBytes(const StatsView& stats) const {
  double bytes = kLeafRowOverheadBytes;
  for (int c : key_columns) bytes += stats.column_width_bytes(table_id, c);
  for (int c : include_columns) {
    bytes += stats.column_width_bytes(table_id, c);
  }
  return bytes;
}

double Index::SizeBytes(const Database& db) const {
  const Table& t = db.table(table_id);
  return t.row_count() * LeafRowBytes(db) * kTreeOverheadFactor;
}

bool Index::Covers(const std::vector<int>& required) const {
  for (int c : required) {
    bool found =
        std::find(key_columns.begin(), key_columns.end(), c) !=
            key_columns.end() ||
        std::find(include_columns.begin(), include_columns.end(), c) !=
            include_columns.end();
    if (!found) return false;
  }
  return true;
}

}  // namespace bati
