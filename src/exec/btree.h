#ifndef BATI_EXEC_BTREE_H_
#define BATI_EXEC_BTREE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/macros.h"

namespace bati::exec {

/// A real in-memory covering B+-tree: composite double keys (fixed width per
/// tree), a fixed-width double payload per entry (the INCLUDE columns), and
/// the base-table row id. Leaves are linked for range scans; interior nodes
/// hold separator keys. This is the data structure `storage/Index` describes
/// hypothetically — here it is materialized and actually searched, so index
/// width (key + payload doubles per entry) translates into real memory
/// traffic the way LeafRowBytes() translates into modeled page reads.
///
/// Keys compare lexicographically over all `key_width` doubles with the row
/// id as a final tiebreak, so duplicate keys are supported and iteration
/// order is deterministic.
class BTree {
 public:
  /// An entry as seen by visitors: borrowed pointers into the leaf, valid
  /// only during the visit.
  struct Entry {
    const double* key;      // key_width doubles
    const double* payload;  // payload_width doubles
    uint32_t row_id;
  };

  /// Visit callback; return false to stop the scan early.
  using Visitor = std::function<bool(const Entry&)>;

  /// `leaf_capacity` is the max entries per leaf (and children per interior
  /// node); small capacities build deep trees in tests.
  BTree(int key_width, int payload_width, int leaf_capacity = 64);
  ~BTree();
  BATI_DISALLOW_COPY_AND_ASSIGN(BTree);

  int key_width() const { return key_width_; }
  int payload_width() const { return payload_width_; }
  int64_t size() const { return size_; }
  /// Tree height (1 = just a leaf level); diagnostics and tests.
  int height() const { return height_; }

  /// Bulk-loads from entries sorted by (key, row_id); keys/payloads are
  /// flattened row-major. Requires an empty tree. Leaves are packed to
  /// capacity, the standard bottom-up build.
  void BulkLoad(const std::vector<double>& keys,
                const std::vector<double>& payloads,
                const std::vector<uint32_t>& row_ids);

  /// Visits every entry whose first `prefix_len` key columns equal
  /// `prefix`, in key order. `prefix_len` in [1, key_width].
  void SeekPrefix(const double* prefix, int prefix_len,
                  const Visitor& visit) const;

  /// Visits entries where the first `prefix_len` key columns equal `prefix`
  /// and key column `prefix_len` lies in [lo, hi]. `prefix_len` may be 0
  /// (pure range on the leading column). Requires prefix_len < key_width.
  void SeekRange(const double* prefix, int prefix_len, double lo, double hi,
                 const Visitor& visit) const;

  /// Visits all entries in key order (an index-only full scan).
  void Scan(const Visitor& visit) const;

 private:
  struct Node;
  struct Leaf;
  struct Interior;

  /// The leftmost leaf that may contain a key >= (prefix, -inf...) on its
  /// first prefix_len columns; also returns the entry position within it.
  const Leaf* LowerBoundLeaf(const double* prefix, int prefix_len,
                             double first_extra, int* pos) const;

  void FreeTree(Node* node);

  const int key_width_;
  const int payload_width_;
  const int leaf_capacity_;
  int64_t size_ = 0;
  int height_ = 1;
  Node* root_ = nullptr;
};

}  // namespace bati::exec

#endif  // BATI_EXEC_BTREE_H_
