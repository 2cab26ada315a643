#ifndef RPQI_BASE_BITSET_H_
#define RPQI_BASE_BITSET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/hash.h"
#include "base/logging.h"

namespace rpqi {

/// Fixed-size-at-construction dynamic bitset used to represent state sets and
/// state relations of automata. Word-parallel bulk operations are the hot path
/// of the two-way-automaton translations, so the representation is a plain
/// vector<uint64_t> that can also serve directly as an interning key.
class Bitset {
 public:
  Bitset() : num_bits_(0) {}
  explicit Bitset(int num_bits)
      : num_bits_(num_bits), words_((num_bits + 63) / 64, 0) {
    RPQI_CHECK_GE(num_bits, 0);
  }

  int size() const { return num_bits_; }

  bool Test(int i) const {
    RPQI_CHECK(0 <= i && i < num_bits_) << "bit " << i << " of " << num_bits_;
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  void Set(int i) {
    RPQI_CHECK(0 <= i && i < num_bits_) << "bit " << i << " of " << num_bits_;
    words_[i >> 6] |= uint64_t{1} << (i & 63);
    hash_valid_ = false;
  }

  void Reset(int i) {
    RPQI_CHECK(0 <= i && i < num_bits_) << "bit " << i << " of " << num_bits_;
    words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
    hash_valid_ = false;
  }

  void Clear() {
    for (auto& w : words_) w = 0;
    hash_valid_ = false;
  }

  void SetAll() {
    for (auto& w : words_) w = ~uint64_t{0};
    TrimTail();
    hash_valid_ = false;
  }

  bool Any() const {
    for (uint64_t w : words_)
      if (w != 0) return true;
    return false;
  }

  bool None() const { return !Any(); }

  int Count() const {
    int count = 0;
    for (uint64_t w : words_) count += __builtin_popcountll(w);
    return count;
  }

  /// True if this and `other` share at least one set bit.
  bool Intersects(const Bitset& other) const {
    RPQI_CHECK_EQ(num_bits_, other.num_bits_);
    for (size_t i = 0; i < words_.size(); ++i)
      if (words_[i] & other.words_[i]) return true;
    return false;
  }

  /// True if every bit set here is also set in `other`.
  bool IsSubsetOf(const Bitset& other) const {
    RPQI_CHECK_EQ(num_bits_, other.num_bits_);
    for (size_t i = 0; i < words_.size(); ++i)
      if (words_[i] & ~other.words_[i]) return false;
    return true;
  }

  Bitset& operator|=(const Bitset& other) {
    RPQI_CHECK_EQ(num_bits_, other.num_bits_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
    hash_valid_ = false;
    return *this;
  }

  Bitset& operator&=(const Bitset& other) {
    RPQI_CHECK_EQ(num_bits_, other.num_bits_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
    hash_valid_ = false;
    return *this;
  }

  Bitset& operator-=(const Bitset& other) {
    RPQI_CHECK_EQ(num_bits_, other.num_bits_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
    hash_valid_ = false;
    return *this;
  }

  friend bool operator==(const Bitset& a, const Bitset& b) {
    return a.num_bits_ == b.num_bits_ && a.words_ == b.words_;
  }

  /// Index of the first set bit at or after `from`, or -1 if none. Use to
  /// iterate: for (int i = bs.NextSetBit(0); i >= 0; i = bs.NextSetBit(i+1)).
  int NextSetBit(int from) const {
    if (from >= num_bits_) return -1;
    int word_index = from >> 6;
    uint64_t word = words_[word_index] & (~uint64_t{0} << (from & 63));
    while (true) {
      if (word != 0) {
        int bit = (word_index << 6) + __builtin_ctzll(word);
        return bit < num_bits_ ? bit : -1;
      }
      if (++word_index >= static_cast<int>(words_.size())) return -1;
      word = words_[word_index];
    }
  }

  /// Raw word storage; usable as an interning key fragment.
  const std::vector<uint64_t>& words() const { return words_; }

  /// HashWords over the word storage, cached between mutations. Hot interning
  /// paths hash the same bitset repeatedly (probe + insert), so every mutator
  /// invalidates the cache instead of recomputing eagerly.
  uint64_t Hash() const {
    if (!hash_valid_) {
      cached_hash_ = HashWords(words_);
      hash_valid_ = true;
    }
    return cached_hash_;
  }

  /// True when the cached hash (if any) matches the stored words. Stale
  /// caches indicate a mutation that bypassed the invalidation hooks; the
  /// analysis validators check this.
  bool CachedHashCoherent() const {
    return !hash_valid_ || cached_hash_ == HashWords(words_);
  }

  /// Poisons the cached hash without touching the words. Only for exercising
  /// the coherence validators in tests.
  void CorruptCachedHashForTesting() {
    cached_hash_ = Hash() ^ 0x5851f42d4c957f2dULL;
    hash_valid_ = true;
  }

  /// Renders as e.g. "{0,3,7}" for diagnostics.
  std::string ToString() const {
    std::string out = "{";
    for (int i = NextSetBit(0); i >= 0; i = NextSetBit(i + 1)) {
      if (out.size() > 1) out += ",";
      out += std::to_string(i);
    }
    out += "}";
    return out;
  }

 private:
  void TrimTail() {
    int tail = num_bits_ & 63;
    if (tail != 0 && !words_.empty()) {
      words_.back() &= (uint64_t{1} << tail) - 1;
    }
  }

  int num_bits_;
  std::vector<uint64_t> words_;
  mutable uint64_t cached_hash_ = 0;
  mutable bool hash_valid_ = false;
};

/// Calls fn(i) for every set bit i of a set kept as `count` raw words, in
/// increasing order: the layout of Bitset::words() and of the word vectors
/// the lazy automata intern as state keys.
template <typename Fn>
inline void ForEachSetBit(const uint64_t* words, size_t count, Fn fn) {
  for (size_t w = 0; w < count; ++w) {
    for (uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      fn(static_cast<int>(w << 6) + __builtin_ctzll(bits));
    }
  }
}

}  // namespace rpqi

#endif  // RPQI_BASE_BITSET_H_
