// Compressed Sparse Rows — the only matrix format the paper considers
// (the one Chapel's sparse block layout supports). rowptr has length
// nrows+1; colids within each row are kept sorted, as Chapel does.
#pragma once

#include <span>
#include <vector>

#include "runtime/dist.hpp"
#include "util/error.hpp"
#include "util/sorting.hpp"

namespace pgb {

template <typename T>
class Csr {
 public:
  Csr() : rowptr_(1, 0) {}

  Csr(Index nrows, Index ncols)
      : nrows_(nrows), ncols_(ncols), rowptr_(nrows + 1, 0) {
    PGB_REQUIRE(nrows >= 0 && ncols >= 0, "negative matrix dimension");
  }

  /// Builds from prepared arrays. colids must be sorted within each row.
  static Csr from_parts(Index nrows, Index ncols, std::vector<Index> rowptr,
                        std::vector<Index> colids, std::vector<T> vals) {
    PGB_REQUIRE(nrows >= 0 && ncols >= 0, "negative matrix dimension");
    PGB_REQUIRE(rowptr.size() == static_cast<std::size_t>(nrows) + 1,
                "rowptr length must be nrows+1");
    PGB_REQUIRE(colids.size() == vals.size(), "colids/vals length mismatch");
    PGB_REQUIRE(!rowptr.empty() && rowptr.back() ==
                    static_cast<Index>(colids.size()),
                "rowptr does not cover all nonzeros");
    Csr m;
    m.nrows_ = nrows;
    m.ncols_ = ncols;
    m.rowptr_ = std::move(rowptr);
    m.colids_ = std::move(colids);
    m.vals_ = std::move(vals);
    PGB_ASSERT(m.check_invariants(), "CSR invariants violated");
    return m;
  }

  Index nrows() const { return nrows_; }
  Index ncols() const { return ncols_; }
  Index nnz() const { return static_cast<Index>(colids_.size()); }

  /// Start of row r's nonzeros in colids/vals.
  Index row_start(Index r) const { return rowptr_[r]; }
  /// One past the end of row r's nonzeros.
  Index row_end(Index r) const { return rowptr_[r + 1]; }
  Index row_nnz(Index r) const { return rowptr_[r + 1] - rowptr_[r]; }

  std::span<const Index> rowptr() const { return rowptr_; }
  std::span<const Index> colids() const { return colids_; }
  std::span<const T> values() const { return vals_; }
  std::span<T> values() { return vals_; }

  std::span<const Index> row_colids(Index r) const {
    return std::span<const Index>(colids_).subspan(
        static_cast<std::size_t>(rowptr_[r]),
        static_cast<std::size_t>(row_nnz(r)));
  }
  std::span<const T> row_values(Index r) const {
    return std::span<const T>(vals_).subspan(
        static_cast<std::size_t>(rowptr_[r]),
        static_cast<std::size_t>(row_nnz(r)));
  }

  /// Value at (r, c) or nullptr — binary search within the row.
  const T* find(Index r, Index c) const {
    auto row = row_colids(r);
    auto it = std::lower_bound(row.begin(), row.end(), c);
    if (it == row.end() || *it != c) return nullptr;
    return &vals_[static_cast<std::size_t>(rowptr_[r] + (it - row.begin()))];
  }

  /// rowptr starts at 0, never falls and ends at nnz; each row's colids
  /// ascend strictly within [0, ncols). rowptr is checked in full first,
  /// so the column scan never reads past colids.
  bool check_invariants() const {
    if (rowptr_.size() != static_cast<std::size_t>(nrows_) + 1) return false;
    if (rowptr_[0] != 0 || rowptr_[nrows_] != nnz()) return false;
    for (Index r = 0; r < nrows_; ++r) {
      if (rowptr_[r + 1] < rowptr_[r]) return false;
    }
    for (Index r = 0; r < nrows_; ++r) {
      for (Index k = rowptr_[r] + 1; k < rowptr_[r + 1]; ++k) {
        if (colids_[k - 1] >= colids_[k]) return false;
      }
      for (Index k = rowptr_[r]; k < rowptr_[r + 1]; ++k) {
        if (colids_[k] < 0 || colids_[k] >= ncols_) return false;
      }
    }
    return true;
  }

 private:
  Index nrows_ = 0;
  Index ncols_ = 0;
  std::vector<Index> rowptr_;
  std::vector<Index> colids_;
  std::vector<T> vals_;
};

}  // namespace pgb
