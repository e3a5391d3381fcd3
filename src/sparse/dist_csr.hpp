// 2-D block-distributed sparse matrix in CSR format — the paper's matrix
// representation (Section II-B): locales form a prows x pcols grid; locale
// (r, c) owns the CSR block covering row-block r and column-block c. Rows
// within a block are locally indexed; column ids stay global (the block
// knows its column range). from_coo builds the blocks on the host pool,
// each with the builder behind Coo::to_csr, so a block holds exactly the
// to_csr rows it covers, whatever the thread count. A builder that fills
// every block itself (from_coo, erdos_renyi_dist, the ingest publish)
// starts from shell(), which sizes no block's arrays.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "runtime/dist.hpp"
#include "runtime/host_pool.hpp"
#include "runtime/locale_grid.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

namespace pgb {

template <typename T>
class DistCsr {
 public:
  struct Block {
    Index rlo = 0, rhi = 0;  ///< global row range [rlo, rhi)
    Index clo = 0, chi = 0;  ///< global column range [clo, chi)
    Csr<T> csr;              ///< rows local (0-based), colids global
  };

  /// An all-zero matrix: every block an empty (rhi - rlo) x ncols CSR.
  DistCsr(LocaleGrid& grid, Index nrows, Index ncols)
      : DistCsr(grid, nrows, ncols, NoCsr{}) {
    for (auto& b : blocks_) b.csr = Csr<T>(b.rhi - b.rlo, ncols);
  }

  /// A matrix whose blocks the caller fills: each block has its bounds
  /// and a default (0 x 0) CSR, which must be replaced by a
  /// (rhi - rlo) x ncols one before the matrix is used.
  static DistCsr shell(LocaleGrid& grid, Index nrows, Index ncols) {
    return DistCsr(grid, nrows, ncols, NoCsr{});
  }

  /// Scatters a global COO into the per-locale blocks; duplicate
  /// coordinates are combined with `combine` (default: keep the last),
  /// in input order. Runs on the host pool and charges no simulated
  /// time: a count of each chunk's triples per block, a scan and a
  /// stable scatter route triple indices to blocks, then each block is
  /// built by detail::build_csr, as Coo::to_csr builds the whole. The
  /// blocks do not depend on the chunking or the thread count. `combine`
  /// is called from several threads at once, for different blocks.
  template <typename Combine>
  static DistCsr from_coo(LocaleGrid& grid, const Coo<T>& coo,
                          Combine combine) {
    DistCsr m = shell(grid, coo.nrows(), coo.ncols());
    const Triple<T>* t = coo.triples().data();
    const Index n = coo.nnz();
    const int nl = grid.num_locales();
    HostPool& pool = HostPool::instance();

    // at[k * nl + l]: chunk k's triple count in block l, then the slot
    // of its next triple in `routed`.
    const Index chunk =
        std::max(kRouteChunk, (n + kRouteChunks - 1) / kRouteChunks);
    const int nchunks = static_cast<int>((n + chunk - 1) / chunk);
    std::vector<Index> at(static_cast<std::size_t>(nchunks) * nl, 0);
    const auto chunk_at = [&](int k) {
      return &at[static_cast<std::size_t>(k) * nl];
    };
    pool.run(nchunks, [&](int k) {
      Index* count = chunk_at(k);
      for (Index i = k * chunk; i < std::min(n, (k + 1) * chunk); ++i) {
        ++count[m.dist_.locale_of(t[i].row, t[i].col)];
      }
    });
    std::vector<Index> start(static_cast<std::size_t>(nl) + 1);
    Index slot = 0;
    for (int l = 0; l < nl; ++l) {
      start[l] = slot;
      for (int k = 0; k < nchunks; ++k) {
        slot += std::exchange(chunk_at(k)[l], slot);
      }
    }
    start[nl] = slot;
    std::vector<Index> routed(static_cast<std::size_t>(n));
    pool.run(nchunks, [&](int k) {
      Index* next = chunk_at(k);
      for (Index i = k * chunk; i < std::min(n, (k + 1) * chunk); ++i) {
        routed[next[m.dist_.locale_of(t[i].row, t[i].col)]++] = i;
      }
    });

    // The blocks' arrays are reserved here, on the calling thread, so
    // they live in its malloc arena rather than in each pool thread's;
    // a block's triple count bounds its distinct entries.
    std::vector<std::vector<Index>> rowptr(static_cast<std::size_t>(nl));
    std::vector<std::vector<Index>> colids(static_cast<std::size_t>(nl));
    std::vector<std::vector<T>> vals(static_cast<std::size_t>(nl));
    for (int l = 0; l < nl; ++l) {
      const auto triples = static_cast<std::size_t>(start[l + 1] - start[l]);
      rowptr[l].reserve(
          static_cast<std::size_t>(m.blocks_[l].rhi - m.blocks_[l].rlo) + 1);
      colids[l].reserve(triples);
      vals[l].reserve(triples);
    }
    pool.run(nl, [&](int l) {
      auto& b = m.blocks_[l];
      b.csr = detail::build_csr(
          t, [&](Index k) { return routed[start[l] + k]; },
          start[l + 1] - start[l], b.rlo, b.rhi - b.rlo, coo.ncols(),
          combine, std::move(rowptr[l]), std::move(colids[l]),
          std::move(vals[l]));
    });
    return m;
  }

  static DistCsr from_coo(LocaleGrid& grid, const Coo<T>& coo) {
    return from_coo(grid, coo, [](const T&, const T& b) { return b; });
  }

  LocaleGrid& grid() const { return *grid_; }
  const BlockDist2D& dist() const { return dist_; }
  Index nrows() const { return dist_.rowd().n(); }
  Index ncols() const { return dist_.cold().n(); }

  Index nnz() const {
    Index s = 0;
    for (const auto& b : blocks_) s += b.csr.nnz();
    return s;
  }

  Block& block(int l) { return blocks_[l]; }
  const Block& block(int l) const { return blocks_[l]; }

  /// Gathers into one local CSR (test/debug only).
  Csr<T> to_local() const {
    Coo<T> coo(nrows(), ncols());
    coo.reserve(static_cast<std::size_t>(nnz()));
    for (const auto& b : blocks_) {
      for (Index lr = 0; lr < b.csr.nrows(); ++lr) {
        auto cols = b.csr.row_colids(lr);
        auto vals = b.csr.row_values(lr);
        for (std::size_t k = 0; k < cols.size(); ++k) {
          coo.add(b.rlo + lr, cols[k], vals[k]);
        }
      }
    }
    return coo.to_csr();
  }

  bool check_invariants() const {
    for (const auto& b : blocks_) {
      if (!b.csr.check_invariants()) return false;
      for (Index c : b.csr.colids()) {
        if (c < b.clo || c >= b.chi) return false;
      }
    }
    return true;
  }

 private:
  /// from_coo routes triples in at most kRouteChunks chunks of at least
  /// kRouteChunk triples each.
  static constexpr Index kRouteChunk = Index{1} << 15;
  static constexpr Index kRouteChunks = 64;

  /// Blocks with their bounds and a default CSR (see shell()).
  struct NoCsr {};
  DistCsr(LocaleGrid& grid, Index nrows, Index ncols, NoCsr)
      : grid_(&grid), dist_(nrows, ncols, grid.rows(), grid.cols()) {
    blocks_.resize(grid.num_locales());
    for (int l = 0; l < grid.num_locales(); ++l) {
      auto& b = blocks_[l];
      b.rlo = dist_.rowd().lo(dist_.prow_of(l));
      b.rhi = dist_.rowd().hi(dist_.prow_of(l));
      b.clo = dist_.cold().lo(dist_.pcol_of(l));
      b.chi = dist_.cold().hi(dist_.pcol_of(l));
    }
  }

  LocaleGrid* grid_;
  BlockDist2D dist_;
  std::vector<Block> blocks_;
};

}  // namespace pgb
