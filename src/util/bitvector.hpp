// Compact bit vector used for SPA "isthere" flags and visited sets.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace pgb {

class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(std::int64_t n)
      : n_(checked_size(n)), words_(static_cast<std::size_t>((n + 63) / 64)) {}

  std::int64_t size() const { return n_; }

  bool get(std::int64_t i) const {
    return (words_[static_cast<std::size_t>(i >> 6)] >> (i & 63)) & 1u;
  }

  void set(std::int64_t i) {
    words_[static_cast<std::size_t>(i >> 6)] |= (std::uint64_t{1} << (i & 63));
  }

  void clear(std::int64_t i) {
    words_[static_cast<std::size_t>(i >> 6)] &= ~(std::uint64_t{1} << (i & 63));
  }

  /// Sets bit i; returns true if it was previously clear (test-and-set).
  bool test_and_set(std::int64_t i) {
    auto& w = words_[static_cast<std::size_t>(i >> 6)];
    const std::uint64_t m = std::uint64_t{1} << (i & 63);
    const bool was_clear = (w & m) == 0;
    w |= m;
    return was_clear;
  }

  void reset_all() { std::fill(words_.begin(), words_.end(), 0); }

  std::int64_t popcount() const {
    std::int64_t c = 0;
    for (auto w : words_) c += __builtin_popcountll(w);
    return c;
  }

  /// Calls f(i) for every set bit i in ascending order, a word at a
  /// time: O(size()/64 + set bits).
  template <typename F>
  void for_each_set(F&& f) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      const std::int64_t base = static_cast<std::int64_t>(w) << 6;
      for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        f(base + __builtin_ctzll(bits));
      }
    }
  }

 private:
  static std::int64_t checked_size(std::int64_t n) {
    PGB_REQUIRE(n >= 0, "negative BitVector size");
    return n;
  }

  std::int64_t n_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace pgb
