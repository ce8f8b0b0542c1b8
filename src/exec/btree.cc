#include "exec/btree.h"

#include <algorithm>
#include <cstddef>
#include <limits>

namespace bati::exec {

/// Node layout: leaves hold flattened entries plus a next-leaf link;
/// interior nodes hold separator keys (the smallest key of each child but
/// the first) and child pointers, so children.size() == separator count + 1.
struct BTree::Node {
  bool is_leaf = true;
};

struct BTree::Leaf : BTree::Node {
  std::vector<double> keys;       // key_width * count
  std::vector<double> payloads;   // payload_width * count
  std::vector<uint32_t> row_ids;  // count
  Leaf* next = nullptr;
};

struct BTree::Interior : BTree::Node {
  std::vector<double> sep_keys;  // key_width * (children - 1)
  std::vector<Node*> children;
};

namespace {

/// Lexicographic compare of two fixed-width key vectors.
int CompareKeys(const double* a, const double* b, int width) {
  for (int i = 0; i < width; ++i) {
    if (a[i] < b[i]) return -1;
    if (a[i] > b[i]) return 1;
  }
  return 0;
}

/// Compares an entry against a partial search target: `prefix_len` leading
/// columns, optionally one more bounded column, and -infinity padding
/// afterwards (so a full match still compares greater). Returns -1 when the
/// entry sorts before the target, +1 otherwise — never 0, because the
/// padding makes every real entry distinct from the target.
int ComparePartial(const double* entry, int /*key_width*/, const double* prefix,
                   int prefix_len, bool has_extra, double extra) {
  for (int i = 0; i < prefix_len; ++i) {
    if (entry[i] < prefix[i]) return -1;
    if (entry[i] > prefix[i]) return 1;
  }
  if (has_extra) {
    if (entry[prefix_len] < extra) return -1;
    if (entry[prefix_len] > extra) return 1;
  }
  return 1;  // equal on all compared columns: entry > (-inf-padded) target
}

}  // namespace

BTree::BTree(int key_width, int payload_width, int leaf_capacity)
    : key_width_(key_width),
      payload_width_(payload_width),
      leaf_capacity_(leaf_capacity) {
  BATI_CHECK(key_width_ >= 1);
  BATI_CHECK(payload_width_ >= 0);
  BATI_CHECK(leaf_capacity_ >= 4);
  root_ = new Leaf();
}

BTree::~BTree() { FreeTree(root_); }

void BTree::FreeTree(Node* node) {
  if (node == nullptr) return;
  if (!node->is_leaf) {
    auto* in = static_cast<Interior*>(node);
    for (Node* child : in->children) FreeTree(child);
    delete in;
  } else {
    delete static_cast<Leaf*>(node);
  }
}

void BTree::BulkLoad(const std::vector<double>& keys,
                     const std::vector<double>& payloads,
                     const std::vector<uint32_t>& row_ids) {
  BATI_CHECK(size_ == 0);
  const size_t n = row_ids.size();
  BATI_CHECK(keys.size() == n * static_cast<size_t>(key_width_));
  BATI_CHECK(payloads.size() == n * static_cast<size_t>(payload_width_));
  if (n == 0) return;

  // Level 0: packed leaves, linked left to right.
  std::vector<Node*> level;
  std::vector<double> level_min_keys;  // key_width per node
  Leaf* prev = nullptr;
  const size_t cap = static_cast<size_t>(leaf_capacity_);
  for (size_t start = 0; start < n; start += cap) {
    const size_t count = std::min(cap, n - start);
    auto* leaf = start == 0 ? static_cast<Leaf*>(root_) : new Leaf();
    leaf->is_leaf = true;
    leaf->keys.assign(
        keys.begin() + static_cast<ptrdiff_t>(start * key_width_),
        keys.begin() + static_cast<ptrdiff_t>((start + count) * key_width_));
    leaf->payloads.assign(
        payloads.begin() + static_cast<ptrdiff_t>(start * payload_width_),
        payloads.begin() +
            static_cast<ptrdiff_t>((start + count) * payload_width_));
    leaf->row_ids.assign(row_ids.begin() + static_cast<ptrdiff_t>(start),
                         row_ids.begin() +
                             static_cast<ptrdiff_t>(start + count));
    if (prev != nullptr) prev->next = leaf;
    prev = leaf;
    level.push_back(leaf);
    level_min_keys.insert(level_min_keys.end(), leaf->keys.begin(),
                          leaf->keys.begin() + key_width_);
  }

  // Interior levels until one root remains.
  height_ = 1;
  while (level.size() > 1) {
    std::vector<Node*> next_level;
    std::vector<double> next_min_keys;
    for (size_t start = 0; start < level.size(); start += cap) {
      const size_t count = std::min(cap, level.size() - start);
      auto* in = new Interior();
      in->is_leaf = false;
      for (size_t i = 0; i < count; ++i) {
        in->children.push_back(level[start + i]);
        if (i > 0) {
          const double* mk = &level_min_keys[(start + i) * key_width_];
          in->sep_keys.insert(in->sep_keys.end(), mk, mk + key_width_);
        }
      }
      next_level.push_back(in);
      const double* mk = &level_min_keys[start * key_width_];
      next_min_keys.insert(next_min_keys.end(), mk, mk + key_width_);
    }
    level.swap(next_level);
    level_min_keys.swap(next_min_keys);
    ++height_;
  }
  root_ = level.front();
  size_ = static_cast<int64_t>(n);
}

const BTree::Leaf* BTree::LowerBoundLeaf(const double* prefix, int prefix_len,
                                         double first_extra, int* pos) const {
  const bool has_extra = prefix_len < key_width_;
  // Binary search at every level: "entry sorts before the target" is true
  // on a prefix of each node's sorted entries, so partition_point finds the
  // first non-smaller one. Seek cost is what index-nested-loop joins pay
  // per probe; linear node scans would distort the measured plan costs the
  // correlation gate compares against the model.
  auto first_not_less = [&](const std::vector<double>& keys,
                            int count) -> int {
    int lo = 0;
    int hi = count;
    while (lo < hi) {
      const int mid = lo + (hi - lo) / 2;
      if (ComparePartial(&keys[static_cast<size_t>(mid) * key_width_],
                         key_width_, prefix, prefix_len, has_extra,
                         first_extra) < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  };
  const Node* node = root_;
  while (!node->is_leaf) {
    const auto* in = static_cast<const Interior*>(node);
    const int child = first_not_less(
        in->sep_keys, static_cast<int>(in->children.size()) - 1);
    node = in->children[static_cast<size_t>(child)];
  }
  const auto* leaf = static_cast<const Leaf*>(node);
  *pos = first_not_less(leaf->keys, static_cast<int>(leaf->row_ids.size()));
  return leaf;
}

void BTree::SeekPrefix(const double* prefix, int prefix_len,
                       const Visitor& visit) const {
  BATI_CHECK(prefix_len >= 1 && prefix_len <= key_width_);
  if (size_ == 0) return;
  int pos = 0;
  const double neg_inf = -std::numeric_limits<double>::infinity();
  const Leaf* leaf = LowerBoundLeaf(prefix, prefix_len, neg_inf, &pos);
  while (leaf != nullptr) {
    const int count = static_cast<int>(leaf->row_ids.size());
    for (; pos < count; ++pos) {
      const double* key = &leaf->keys[static_cast<size_t>(pos) * key_width_];
      if (CompareKeys(key, prefix, prefix_len) != 0) return;
      Entry e{key, &leaf->payloads[static_cast<size_t>(pos) * payload_width_],
              leaf->row_ids[static_cast<size_t>(pos)]};
      if (!visit(e)) return;
    }
    leaf = leaf->next;
    pos = 0;
  }
}

void BTree::SeekRange(const double* prefix, int prefix_len, double lo,
                      double hi, const Visitor& visit) const {
  BATI_CHECK(prefix_len >= 0 && prefix_len < key_width_);
  if (size_ == 0 || lo > hi) return;
  int pos = 0;
  const Leaf* leaf = LowerBoundLeaf(prefix, prefix_len, lo, &pos);
  while (leaf != nullptr) {
    const int count = static_cast<int>(leaf->row_ids.size());
    for (; pos < count; ++pos) {
      const double* key = &leaf->keys[static_cast<size_t>(pos) * key_width_];
      if (prefix_len > 0 && CompareKeys(key, prefix, prefix_len) != 0) return;
      if (key[prefix_len] > hi) return;
      Entry e{key, &leaf->payloads[static_cast<size_t>(pos) * payload_width_],
              leaf->row_ids[static_cast<size_t>(pos)]};
      if (!visit(e)) return;
    }
    leaf = leaf->next;
    pos = 0;
  }
}

void BTree::Scan(const Visitor& visit) const {
  const Node* node = root_;
  while (!node->is_leaf) {
    node = static_cast<const Interior*>(node)->children.front();
  }
  const auto* leaf = static_cast<const Leaf*>(node);
  while (leaf != nullptr) {
    const int count = static_cast<int>(leaf->row_ids.size());
    for (int pos = 0; pos < count; ++pos) {
      Entry e{&leaf->keys[static_cast<size_t>(pos) * key_width_],
              &leaf->payloads[static_cast<size_t>(pos) * payload_width_],
              leaf->row_ids[static_cast<size_t>(pos)]};
      if (!visit(e)) return;
    }
    leaf = leaf->next;
  }
}

}  // namespace bati::exec
