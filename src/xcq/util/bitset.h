#ifndef XCQ_UTIL_BITSET_H_
#define XCQ_UTIL_BITSET_H_

/// \file bitset.h
/// A growable bitset used for node-set (unary relation) storage.
///
/// Node sets are the workhorse of the query algebra (Sec. 3.1 of the paper):
/// every unary relation of an instance schema, and every intermediate query
/// selection, is one `DynamicBitset` indexed by vertex id. Set operations
/// (union / intersection / difference) are word-parallel.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace xcq {

/// \brief Growable bitset with word-parallel set algebra.
class DynamicBitset {
 public:
  DynamicBitset() = default;

  /// Constructs a bitset of `size` bits, all cleared (or all set).
  explicit DynamicBitset(size_t size, bool value = false);

  /// Number of addressable bits.
  size_t size() const { return size_; }

  bool empty() const { return size_ == 0; }

  /// Grows (or shrinks) to `size` bits; new bits are `value`.
  void Resize(size_t size, bool value = false);

  /// Appends one bit.
  void PushBack(bool value);

  bool Test(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void Set(size_t i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }
  void Reset(size_t i) { words_[i >> 6] &= ~(uint64_t{1} << (i & 63)); }
  void Assign(size_t i, bool value) {
    if (value) {
      Set(i);
    } else {
      Reset(i);
    }
  }

  /// Clears all bits (size unchanged).
  void ResetAll();
  /// Sets all bits (size unchanged).
  void SetAll();

  /// Number of set bits.
  size_t Count() const;

  /// True if no bit is set.
  bool None() const;
  /// True if at least one bit is set.
  bool Any() const { return !None(); }

  /// Index of the first set bit, or `size()` if none.
  size_t FindFirst() const;
  /// Index of the first set bit at or after `from`, or `size()` if none.
  size_t FindNext(size_t from) const;

  /// Word-parallel set algebra. Operand sizes must match.
  DynamicBitset& operator|=(const DynamicBitset& other);
  DynamicBitset& operator&=(const DynamicBitset& other);
  /// Set difference: this \ other.
  DynamicBitset& operator-=(const DynamicBitset& other);
  /// Complement within `size()` bits.
  void Flip();

  bool operator==(const DynamicBitset& other) const;
  bool operator!=(const DynamicBitset& other) const {
    return !(*this == other);
  }

  /// True if every set bit of `*this` is also set in `other`.
  bool IsSubsetOf(const DynamicBitset& other) const;
  /// True if `*this` and `other` share at least one set bit.
  bool Intersects(const DynamicBitset& other) const;

  /// Invokes `fn(index)` for every set bit, ascending.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t word = words_[w];
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        fn(w * 64 + static_cast<size_t>(bit));
        word &= word - 1;
      }
    }
  }

  /// Raw word access (for hashing / serialization).
  const std::vector<uint64_t>& words() const { return words_; }
  /// ORs `word` into bits `64 * w .. 64 * w + 63` (deserialization). The
  /// caller keeps bits at or past `size()` clear.
  void OrWord(size_t w, uint64_t word) { words_[w] |= word; }

 private:
  // Zeroes bits beyond size_ in the last word so that Count/== stay exact.
  void TrimTail();

  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace xcq

#endif  // XCQ_UTIL_BITSET_H_
