// Coordinate-format triples and CSR construction. Generators emit COO;
// Coo::to_csr orders the triples row-major with columns ascending,
// combines duplicates with a binary op in input order, and builds the
// CSR. It never copies or globally sorts the triples: detail::build_csr
// counting-sorts (row, column, index) entries by row, then sorts each
// row by column. DistCsr::from_coo builds every block with the same
// function, so a block equals the rows of to_csr that it covers.
#pragma once

#include <algorithm>
#include <vector>

#include "sparse/csr.hpp"

namespace pgb {

template <typename T>
struct Triple {
  Index row;
  Index col;
  T val;
};

namespace detail {

/// Builds the CSR of rows [rlo, rlo + nrows) from the n triples
/// t[pick(k)], k in [0, n), named in input order: a stable counting sort
/// by row, a sort of each row by column that keeps input order among
/// equal columns, and each run of equal coordinates folded left to right
/// with `combine`. The sorts move (row, column, index) entries; the
/// triples are read once to count, once to place, and once for values.
/// The CSR's arrays are built in rowptr, colids and vals, which may come
/// in empty with room reserved by the caller (nrows + 1, and at least
/// the distinct count); what is missing is reserved here.
template <typename T, typename Pick, typename Combine>
Csr<T> build_csr(const Triple<T>* t, Pick pick, Index n, Index rlo,
                 Index nrows, Index ncols, Combine& combine,
                 std::vector<Index> rowptr = {},
                 std::vector<Index> colids = {}, std::vector<T> vals = {}) {
  struct Entry {
    Index row;  ///< local
    Index col;
    Index i;  ///< the triple's index: input order
  };
  const auto rows = static_cast<std::size_t>(nrows);
  // end[r]: first the count of row r - 1, then row r's next free slot,
  // and once every entry is placed, the end of row r.
  std::vector<Index> end(rows + 1, 0);
  for (Index k = 0; k < n; ++k) ++end[t[pick(k)].row - rlo + 1];
  for (std::size_t r = 1; r <= rows; ++r) end[r] += end[r - 1];
  std::vector<Entry> e(static_cast<std::size_t>(n));
  for (Index k = 0; k < n; ++k) {
    const Index i = pick(k);
    const Index r = t[i].row - rlo;
    e[end[r]++] = Entry{r, t[i].col, i};
  }
  // Sort the rows that are out of column order.
  for (std::size_t k = 1; k < e.size(); ++k) {
    if (e[k].row == e[k - 1].row && e[k].col < e[k - 1].col) {
      const Index r = e[k].row;
      const auto lo = static_cast<std::size_t>(r == 0 ? 0 : end[r - 1]);
      const auto hi = static_cast<std::size_t>(end[r]);
      std::sort(e.begin() + lo, e.begin() + hi,
                [](const Entry& x, const Entry& y) {
                  return x.col != y.col ? x.col < y.col : x.i < y.i;
                });
      k = hi;
    }
  }
  const auto repeat = [&e](std::size_t k) {
    return k > 0 && e[k].row == e[k - 1].row && e[k].col == e[k - 1].col;
  };
  std::size_t distinct = 0;
  for (std::size_t k = 0; k < e.size(); ++k) distinct += repeat(k) ? 0 : 1;
  rowptr.assign(rows + 1, 0);
  colids.reserve(distinct);
  vals.reserve(distinct);
  for (std::size_t k = 0; k < e.size(); ++k) {
    if (repeat(k)) {
      vals.back() = combine(vals.back(), t[e[k].i].val);
    } else {
      colids.push_back(e[k].col);
      vals.push_back(t[e[k].i].val);
      ++rowptr[static_cast<std::size_t>(e[k].row) + 1];
    }
  }
  for (std::size_t r = 1; r <= rows; ++r) rowptr[r] += rowptr[r - 1];
  return Csr<T>::from_parts(nrows, ncols, std::move(rowptr), std::move(colids),
                            std::move(vals));
}

}  // namespace detail

template <typename T>
class Coo {
 public:
  Coo(Index nrows, Index ncols) : nrows_(nrows), ncols_(ncols) {}

  /// Adopts a filled triple array; throws InvalidArgument unless every
  /// triple lies in range.
  Coo(Index nrows, Index ncols, std::vector<Triple<T>> triples)
      : nrows_(nrows), ncols_(ncols), t_(std::move(triples)) {
    for (const auto& tr : t_) {
      PGB_REQUIRE(tr.row >= 0 && tr.row < nrows_ && tr.col >= 0 &&
                      tr.col < ncols_,
                  "triple out of range");
    }
  }

  Index nrows() const { return nrows_; }
  Index ncols() const { return ncols_; }
  Index nnz() const { return static_cast<Index>(t_.size()); }

  void add(Index r, Index c, T v) {
    PGB_ASSERT(r >= 0 && r < nrows_ && c >= 0 && c < ncols_,
               "triple out of range");
    t_.push_back(Triple<T>{r, c, std::move(v)});
  }

  void reserve(std::size_t n) { t_.reserve(n); }
  const std::vector<Triple<T>>& triples() const { return t_; }

  /// Builds a CSR; duplicate coordinates are combined with `combine`
  /// (defaults to keeping the last value).
  template <typename Combine>
  Csr<T> to_csr(Combine combine) const {
    return detail::build_csr(
        t_.data(), [](Index k) { return k; }, nnz(), 0, nrows_, ncols_,
        combine);
  }

  Csr<T> to_csr() const {
    return to_csr([](const T&, const T& b) { return b; });
  }

 private:
  Index nrows_;
  Index ncols_;
  std::vector<Triple<T>> t_;
};

}  // namespace pgb
