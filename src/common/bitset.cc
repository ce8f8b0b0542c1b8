#include "common/bitset.h"

#include <bit>

namespace bati {

namespace {
constexpr size_t kBitsPerWord = DynamicBitset::kBitsPerWord;

size_t WordsFor(size_t universe) {
  return (universe + kBitsPerWord - 1) / kBitsPerWord;
}
}  // namespace

DynamicBitset::DynamicBitset(size_t universe_size)
    : universe_size_(universe_size), words_(WordsFor(universe_size), 0) {}

DynamicBitset DynamicBitset::FromIndices(size_t universe_size,
                                         const std::vector<size_t>& indices) {
  DynamicBitset b(universe_size);
  for (size_t i : indices) b.set(i);
  return b;
}

size_t DynamicBitset::count() const {
  size_t total = 0;
  for (uint64_t w : words_) total += static_cast<size_t>(std::popcount(w));
  return total;
}

void DynamicBitset::set(size_t pos) {
  BATI_CHECK(pos < universe_size_);
  words_[pos / kBitsPerWord] |= (1ULL << (pos % kBitsPerWord));
}

void DynamicBitset::reset(size_t pos) {
  BATI_CHECK(pos < universe_size_);
  words_[pos / kBitsPerWord] &= ~(1ULL << (pos % kBitsPerWord));
}

DynamicBitset DynamicBitset::With(size_t pos) const {
  DynamicBitset out = *this;
  out.set(pos);
  return out;
}

DynamicBitset DynamicBitset::Without(size_t pos) const {
  DynamicBitset out = *this;
  out.reset(pos);
  return out;
}

bool DynamicBitset::IsSubsetOf(const DynamicBitset& other) const {
  CheckCompatible(other);
  for (size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & ~other.words_[i]) != 0) return false;
  }
  return true;
}

uint64_t DynamicBitset::Fold() const {
  uint64_t folded = 0;
  for (uint64_t w : words_) folded |= w;
  return folded;
}

bool DynamicBitset::Intersects(const DynamicBitset& other) const {
  CheckCompatible(other);
  for (size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & other.words_[i]) != 0) return true;
  }
  return false;
}

DynamicBitset DynamicBitset::operator|(const DynamicBitset& other) const {
  CheckCompatible(other);
  DynamicBitset out(universe_size_);
  for (size_t i = 0; i < words_.size(); ++i) {
    out.words_[i] = words_[i] | other.words_[i];
  }
  return out;
}

DynamicBitset DynamicBitset::operator&(const DynamicBitset& other) const {
  CheckCompatible(other);
  DynamicBitset out(universe_size_);
  for (size_t i = 0; i < words_.size(); ++i) {
    out.words_[i] = words_[i] & other.words_[i];
  }
  return out;
}

DynamicBitset DynamicBitset::operator-(const DynamicBitset& other) const {
  CheckCompatible(other);
  DynamicBitset out(universe_size_);
  for (size_t i = 0; i < words_.size(); ++i) {
    out.words_[i] = words_[i] & ~other.words_[i];
  }
  return out;
}

bool DynamicBitset::operator==(const DynamicBitset& other) const {
  return universe_size_ == other.universe_size_ && words_ == other.words_;
}

std::vector<size_t> DynamicBitset::ToIndices() const {
  std::vector<size_t> out;
  out.reserve(count());
  for (size_t w = 0; w < words_.size(); ++w) {
    uint64_t word = words_[w];
    while (word != 0) {
      int bit = std::countr_zero(word);
      out.push_back(w * kBitsPerWord + static_cast<size_t>(bit));
      word &= word - 1;
    }
  }
  return out;
}

uint64_t DynamicBitset::Hash() const {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (uint64_t w : words_) {
    h ^= w;
    h *= 0x100000001B3ULL;
  }
  h ^= universe_size_;
  h *= 0x100000001B3ULL;
  return h;
}

std::string DynamicBitset::ToString() const {
  std::string out = "{";
  bool first = true;
  for (size_t i : ToIndices()) {
    if (!first) out += ",";
    out += std::to_string(i);
    first = false;
  }
  out += "}";
  return out;
}

}  // namespace bati
