// The sparse accumulator (SPA) of Gilbert, Moler & Schreiber, as used by
// the paper's SpMSpV (Fig 6 / Listing 7): a dense value array, a dense
// "isthere" flag array and a count of the set flags. accumulate() sets
// the flag and writes the value without branching on the first touch,
// and reports whether it was one; a caller that needs the touched
// indices (mxm's SPA, reused row by row) lists them itself and hands
// them to reset(), which clears only those flags, at O(nnz) cost.
// for_each_sorted() reads the touched indices in ascending order off the
// flags, which for a SPA built for one output costs less than building
// it did.
#pragma once

#include <span>
#include <vector>

#include "runtime/dist.hpp"
#include "util/bitvector.hpp"
#include "util/error.hpp"

namespace pgb {

template <typename T>
class Spa {
 public:
  Spa() = default;
  /// Covers the index range [lo, hi).
  Spa(Index lo, Index hi)
      : lo_(lo), vals_(checked_range(lo, hi)), isthere_(hi - lo) {}

  Index lo() const { return lo_; }
  Index hi() const { return lo_ + static_cast<Index>(vals_.size()); }
  /// Number of touched indices.
  Index nnz() const { return nnz_; }

  /// Accumulates v at global index i with `add`: the first touch stores
  /// v, later ones combine in push order. Returns whether this was the
  /// first touch.
  template <typename AddOp>
  bool accumulate(Index i, const T& v, AddOp add) {
    const Index off = i - lo_;
    const bool fresh = isthere_.test_and_set(off);
    T& s = vals_[static_cast<std::size_t>(off)];
    // s = fresh ? v : add(s, v), chosen by index, not by a branch: first
    // touches and revisits interleave with no pattern a branch predictor
    // could learn. On a first touch add's result is dropped.
    const T pick[2] = {add(s, v), v};
    s = pick[fresh];
    nnz_ += fresh;
    return fresh;
  }

  /// Paper Listing 7 semantics: only the first write to an index sticks
  /// ("only keeping the first index"). Returns true if this was the first.
  bool set_if_absent(Index i, const T& v) {
    const Index off = i - lo_;
    if (isthere_.test_and_set(off)) {
      ++nnz_;
      vals_[static_cast<std::size_t>(off)] = v;
      return true;
    }
    return false;
  }

  bool has(Index i) const { return isthere_.get(i - lo_); }
  const T& value(Index i) const {
    return vals_[static_cast<std::size_t>(i - lo_)];
  }

  /// Calls f(i) for every touched global index i in ascending order,
  /// walking the isthere flags: O((hi - lo)/64 + nnz), no sort.
  template <typename F>
  void for_each_sorted(F&& f) const {
    isthere_.for_each_set([&](std::int64_t off) { f(lo_ + off); });
  }

  /// Clears the flags of `touched`, which must list every touched
  /// index once.
  void reset(std::span<const Index> touched) {
    PGB_ASSERT(static_cast<Index>(touched.size()) == nnz_,
               "spa: reset must list every touched index");
    for (Index i : touched) isthere_.clear(i - lo_);
    nnz_ = 0;
  }

 private:
  static std::size_t checked_range(Index lo, Index hi) {
    PGB_REQUIRE(hi >= lo, "invalid SPA range");
    return static_cast<std::size_t>(hi - lo);
  }

  Index lo_ = 0;
  std::vector<T> vals_;
  BitVector isthere_;
  Index nnz_ = 0;
};

}  // namespace pgb
