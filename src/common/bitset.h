#ifndef BATI_COMMON_BITSET_H_
#define BATI_COMMON_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/macros.h"

namespace bati {

/// Fixed-universe dynamic bitset used to represent index configurations
/// (subsets of the candidate index universe). Configuration search touches
/// millions of subset/superset tests and hash lookups, so the representation
/// is word-packed with O(words) set algebra.
class DynamicBitset {
 public:
  static constexpr size_t kBitsPerWord = 64;

  /// Empty set over a universe of `universe_size` elements.
  explicit DynamicBitset(size_t universe_size = 0);

  /// Builds a set from explicit element ids (all < universe_size).
  static DynamicBitset FromIndices(size_t universe_size,
                                   const std::vector<size_t>& indices);

  size_t universe_size() const { return universe_size_; }

  /// Number of elements in the set.
  size_t count() const;

  /// Stops at the first non-zero word.
  bool empty() const {
    for (uint64_t w : words_) {
      if (w != 0) return false;
    }
    return true;
  }

  bool test(size_t pos) const {
    BATI_CHECK(pos < universe_size_);
    return (words_[pos / kBitsPerWord] >> (pos % kBitsPerWord)) & 1ULL;
  }
  void set(size_t pos);
  void reset(size_t pos);

  /// Returns a copy with `pos` added.
  DynamicBitset With(size_t pos) const;

  /// Returns a copy with `pos` removed.
  DynamicBitset Without(size_t pos) const;

  /// True iff this is a subset of (or equal to) `other`.
  bool IsSubsetOf(const DynamicBitset& other) const;

  /// The OR of the words: bit b is set iff some element is congruent to b
  /// mod kBitsPerWord. A set S can be a subset of T only if
  /// (S.Fold() & ~T.Fold()) == 0, a one-word pre-test for IsSubsetOf.
  uint64_t Fold() const;

  /// True iff the two sets share at least one element.
  bool Intersects(const DynamicBitset& other) const;

  DynamicBitset operator|(const DynamicBitset& other) const;
  DynamicBitset operator&(const DynamicBitset& other) const;
  DynamicBitset operator-(const DynamicBitset& other) const;

  bool operator==(const DynamicBitset& other) const;
  bool operator!=(const DynamicBitset& other) const {
    return !(*this == other);
  }

  /// Element ids present, ascending.
  std::vector<size_t> ToIndices() const;

  /// Stable 64-bit hash of the contents (FNV-1a over words).
  uint64_t Hash() const;

  /// e.g. "{1,4,7}" for debugging and traces.
  std::string ToString() const;

 private:
  size_t universe_size_;
  std::vector<uint64_t> words_;

  void CheckCompatible(const DynamicBitset& other) const {
    BATI_CHECK(universe_size_ == other.universe_size_);
  }
};

/// Hash functor for unordered containers keyed by configurations.
struct DynamicBitsetHash {
  size_t operator()(const DynamicBitset& b) const {
    return static_cast<size_t>(b.Hash());
  }
};

}  // namespace bati

#endif  // BATI_COMMON_BITSET_H_
