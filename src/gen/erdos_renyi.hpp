// Erdős–Rényi G(n, d/n) sparse matrix generator (paper Section II-A):
// every edge present independently with probability p = d/n, so each row
// holds Poisson(d)-many nonzeros uniformly spread over the columns.
//
// Rows are generated independently from (seed, row), so a 2-D distributed
// matrix holds bit-identical structure to the local build — distributed
// and shared-memory benches see the same matrix. The distributed build
// draws each row once and splits its sorted columns at the column-block
// boundaries into the blocks of its processor row.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/dist.hpp"
#include "runtime/host_pool.hpp"
#include "runtime/locale_grid.hpp"
#include "sparse/csr.hpp"
#include "sparse/dist_csr.hpp"
#include "util/rng.hpp"

namespace pgb {

/// What every row of one ER matrix shares. Throws InvalidArgument for a
/// degree check_er_degree rejects.
struct ErRows {
  ErRows(Index n, double d, std::uint64_t seed);

  Index n;
  double d;
  std::uint64_t seed;
  double limit;  ///< exp(-d), the Poisson sampler's threshold
};

/// Appends the sorted distinct column ids of one ER row to `out`.
/// Count ~ Poisson(d), capped at n.
void er_row_columns(const ErRows& er, Index row, std::vector<Index>& out);

/// The same columns as a vector of their own.
std::vector<Index> er_row_columns(Index n, double d, std::uint64_t seed,
                                  Index row);

/// Throws InvalidArgument unless the row sampler can honour mean degree
/// `d`: finite, non-negative, and small enough (about 708) that its
/// exp(-d) threshold is still a normal double.
void check_er_degree(double d);

/// Local CSR with all values T(1) (graph adjacency semantics).
template <typename T>
Csr<T> erdos_renyi_csr(Index n, double d, std::uint64_t seed) {
  const ErRows er(n, d, seed);
  std::vector<Index> rowptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<Index> colids;
  colids.reserve(static_cast<std::size_t>(d * static_cast<double>(n) * 1.1) +
                 16);
  for (Index r = 0; r < n; ++r) {
    er_row_columns(er, r, colids);
    rowptr[static_cast<std::size_t>(r) + 1] =
        static_cast<Index>(colids.size());
  }
  std::vector<T> vals(colids.size(), T(1));
  return Csr<T>::from_parts(n, n, std::move(rowptr), std::move(colids),
                            std::move(vals));
}

namespace detail {

/// One block's row pointer and column ids.
struct ErBlock {
  std::vector<Index> rowptr;
  std::vector<Index> colids;
};

/// The blocks of an ER matrix distributed by `dist`, in locale order.
/// Each row is drawn once, in ranges of rows of one processor row on the
/// host pool; then each processor row, also on the pool, splits its
/// rows' sorted columns at the column-block boundaries into its blocks,
/// whose arrays the calling thread allocated at their exact sizes.
std::vector<ErBlock> er_blocks(const ErRows& er, const BlockDist2D& dist);

}  // namespace detail

/// 2-D block-distributed ER matrix, block for block the local build's
/// rows and columns (see detail::er_blocks). Generation charges no
/// simulated time.
template <typename T>
DistCsr<T> erdos_renyi_dist(LocaleGrid& grid, Index n, double d,
                            std::uint64_t seed) {
  const ErRows er(n, d, seed);
  auto m = DistCsr<T>::shell(grid, n, n);
  auto blocks = detail::er_blocks(er, m.dist());
  // Reserved here, on the calling thread, so the values live in its
  // malloc arena rather than in each pool thread's.
  std::vector<std::vector<T>> vals(blocks.size());
  for (std::size_t l = 0; l < blocks.size(); ++l) {
    vals[l].reserve(blocks[l].colids.size());
  }
  HostPool::instance().run(grid.num_locales(), [&](int l) {
    auto& b = m.block(l);
    vals[l].resize(blocks[l].colids.size(), T(1));
    b.csr = Csr<T>::from_parts(b.rhi - b.rlo, n, std::move(blocks[l].rowptr),
                               std::move(blocks[l].colids),
                               std::move(vals[l]));
  });
  return m;
}

}  // namespace pgb
