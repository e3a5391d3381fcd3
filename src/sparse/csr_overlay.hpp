// Pending edge mutations over one CSR block: the base CSR stays
// immutable (it is the published, replicated epoch state) while the
// overlay keeps only the rows that carry deltas, each as a column-sorted
// list where a delta wins over the base entry and a tombstone hides it.
// materialize() folds base + deltas into a fresh CSR for the next epoch
// publish. This is the streaming-ingest counterpart of the paper's
// static DistCsr: queries keep the pinned base, the overlay carries the
// not-yet-compacted epoch deltas.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "sparse/csr.hpp"

namespace pgb {

template <typename T>
class CsrOverlay {
 public:
  /// An overlay over `base` (kept by reference: the caller owns the base
  /// block and must outlive the overlay). Rows are the block's local
  /// rows; columns stay global, like the block itself.
  explicit CsrOverlay(const Csr<T>* base) : base_(base) {}

  /// Points the overlay at a new base block (after compaction swapped
  /// the base) and drops every pending delta.
  void rebase(const Csr<T>* base) {
    base_ = base;
    dirty_.clear();
    pending_ = 0;
  }

  /// Applies one mutation: insert/overwrite when `insert`, tombstone
  /// otherwise. Last write wins within the overlay.
  void apply(Index local_row, Index col, const T& val, bool insert) {
    PGB_ASSERT(local_row >= 0 && local_row < base_->nrows(),
               "overlay: local row out of range");
    auto row = std::lower_bound(
        dirty_.begin(), dirty_.end(), local_row,
        [](const DirtyRow& d, Index r) { return d.row < r; });
    if (row == dirty_.end() || row->row != local_row) {
      row = dirty_.insert(row, DirtyRow{local_row, {}});
    }
    auto& ds = row->deltas;
    auto it = std::lower_bound(
        ds.begin(), ds.end(), col,
        [](const Delta& d, Index c) { return d.col < c; });
    if (it != ds.end() && it->col == col) {
      *it = Delta{col, val, insert};
    } else {
      ds.insert(it, Delta{col, val, insert});
      ++pending_;
    }
  }

  /// Pending delta entries (distinct overlaid coordinates).
  std::int64_t pending() const { return pending_; }

  /// Folds base + deltas into a fresh CSR (the next epoch's block). Each
  /// run of clean rows is one block copy of the base's colids/vals, with
  /// the run's rowptr shifted by one offset; only dirty rows are merged.
  /// Also returns via `touched` (nullable) the modeled read-through cost
  /// of the merge: each dirty row's base entries plus its deltas.
  Csr<T> materialize(std::int64_t* touched = nullptr) const {
    return materialize({}, {}, {}, touched);
  }

  /// materialize() into the given empty arrays. Reserving them first,
  /// rowptr to nrows + 1 and colids/vals to max_nnz(), decides where
  /// the block lives: the fill then allocates nothing.
  Csr<T> materialize(std::vector<Index> rowptr, std::vector<Index> colids,
                     std::vector<T> vals,
                     std::int64_t* touched = nullptr) const {
    PGB_ASSERT(rowptr.empty() && colids.empty() && vals.empty(),
               "overlay: materialize fills empty arrays");
    const Index nr = base_->nrows();
    const auto bp = base_->rowptr();
    const auto bc = base_->colids();
    const auto bv = base_->values();
    rowptr.reserve(static_cast<std::size_t>(nr) + 1);
    colids.reserve(max_nnz());
    vals.reserve(max_nnz());
    rowptr.push_back(0);
    Index next = 0;  // first row not yet written
    const auto copy_clean = [&](Index end) {  // rows [next, end)
      const Index shift = static_cast<Index>(colids.size()) - bp[next];
      colids.insert(colids.end(), bc.begin() + bp[next],
                    bc.begin() + bp[end]);
      vals.insert(vals.end(), bv.begin() + bp[next], bv.begin() + bp[end]);
      for (Index r = next + 1; r <= end; ++r) rowptr.push_back(bp[r] + shift);
    };
    const auto emit = [&](Index c, const T& v) {
      colids.push_back(c);
      vals.push_back(v);
    };
    std::int64_t scanned = 0;
    for (const DirtyRow& d : dirty_) {
      copy_clean(d.row);
      Index k = bp[d.row];
      const Index end = bp[d.row + 1];
      scanned += (end - k) + static_cast<std::int64_t>(d.deltas.size());
      for (const Delta& x : d.deltas) {
        for (; k < end && bc[k] < x.col; ++k) emit(bc[k], bv[k]);
        if (k < end && bc[k] == x.col) ++k;  // overwritten or tombstoned
        if (x.alive) emit(x.col, x.val);
      }
      for (; k < end; ++k) emit(bc[k], bv[k]);
      rowptr.push_back(static_cast<Index>(colids.size()));
      next = d.row + 1;
    }
    copy_clean(nr);
    if (touched != nullptr) *touched = scanned;
    return Csr<T>::from_parts(nr, base_->ncols(), std::move(rowptr),
                              std::move(colids), std::move(vals));
  }

  /// An upper bound on the materialized block's entries: each pending
  /// delta adds at most one to the base's.
  std::size_t max_nnz() const {
    return static_cast<std::size_t>(base_->nnz() + pending_);
  }

 private:
  struct Delta {
    Index col;
    T val;
    bool alive;  ///< false: a tombstone
  };
  struct DirtyRow {
    Index row;
    std::vector<Delta> deltas;  ///< column-sorted, one per column
  };

  const Csr<T>* base_;
  std::vector<DirtyRow> dirty_;  ///< row-sorted; only rows with deltas
  std::int64_t pending_ = 0;
};

}  // namespace pgb
