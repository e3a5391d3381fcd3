// The sparse accumulator (SPA) of Gilbert, Moler & Schreiber, as used by
// the paper's SpMSpV (Fig 6 / Listing 7): a dense value array, a dense
// "isthere" flag array, and a list of the indices whose flag is set.
// reset() only clears the touched flags, so a SPA can be reused across
// iterations (e.g. every BFS level) at O(nnz) cost. for_each_sorted()
// reads the touched indices in ascending order off the flags, which for
// a SPA built for one output costs less than building it did.
#pragma once

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
  Index nnz() const { return static_cast<Index>(nzinds_.size()); }

  /// Accumulate v at global index i with `add`; first touch records i.
  template <typename AddOp>
  void accumulate(Index i, const T& v, AddOp add) {
    const Index off = i - lo_;
    if (isthere_.test_and_set(off)) {
      nzinds_.push_back(i);
      vals_[static_cast<std::size_t>(off)] = v;
    } else {
      vals_[static_cast<std::size_t>(off)] =
          add(vals_[static_cast<std::size_t>(off)], v);
    }
  }

  /// Paper Listing 7 semantics: only the first write to an index sticks
  /// ("only keeping the first index"). Returns true if this was the first.
  bool set_if_absent(Index i, const T& v) {
    const Index off = i - lo_;
    if (isthere_.test_and_set(off)) {
      nzinds_.push_back(i);
      vals_[static_cast<std::size_t>(off)] = v;
      return true;
    }
    return false;
  }

  bool has(Index i) const { return isthere_.get(i - lo_); }
  const T& value(Index i) const {
    return vals_[static_cast<std::size_t>(i - lo_)];
  }

  /// Unsorted list of touched indices (global).
  std::vector<Index>& nzinds() { return nzinds_; }
  const std::vector<Index>& nzinds() const { return nzinds_; }

  /// Calls f(i) for every touched global index i in ascending order,
  /// walking the isthere flags: O((hi - lo)/64 + nnz), no sort.
  template <typename F>
  void for_each_sorted(F&& f) const {
    isthere_.for_each_set([&](std::int64_t off) { f(lo_ + off); });
  }

  /// Clears only the touched entries.
  void reset() {
    for (Index i : nzinds_) isthere_.clear(i - lo_);
    nzinds_.clear();
  }

 private:
  static std::size_t checked_range(Index lo, Index hi) {
    PGB_REQUIRE(hi >= lo, "invalid SPA range");
    return static_cast<std::size_t>(hi - lo);
  }

  Index lo_ = 0;
  std::vector<T> vals_;
  BitVector isthere_;
  std::vector<Index> nzinds_;
};

}  // namespace pgb
