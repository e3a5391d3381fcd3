// Erdős–Rényi G(n, d/n) sparse matrix generator (paper Section II-A):
// every edge present independently with probability p = d/n, so each row
// holds Poisson(d)-many nonzeros uniformly spread over the columns.
//
// Rows are generated independently from (seed, row), so a 2-D distributed
// matrix can be built block-by-block with bit-identical structure to the
// local build — distributed and shared-memory benches see the same matrix.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/host_pool.hpp"
#include "runtime/locale_grid.hpp"
#include "sparse/csr.hpp"
#include "sparse/dist_csr.hpp"
#include "util/rng.hpp"

namespace pgb {

/// Sorted distinct column ids of one ER row. Count ~ Poisson(d), capped
/// at n.
std::vector<Index> er_row_columns(Index n, double d, std::uint64_t seed,
                                  Index row);

/// Throws InvalidArgument unless the row sampler can honour mean degree
/// `d`: finite, non-negative, and small enough (about 708) that its
/// exp(-d) threshold is still a normal double.
void check_er_degree(double d);

/// Local CSR with all values T(1) (graph adjacency semantics).
template <typename T>
Csr<T> erdos_renyi_csr(Index n, double d, std::uint64_t seed) {
  check_er_degree(d);
  std::vector<Index> rowptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<Index> colids;
  colids.reserve(static_cast<std::size_t>(d * static_cast<double>(n) * 1.1) +
                 16);
  for (Index r = 0; r < n; ++r) {
    auto cols = er_row_columns(n, d, seed, r);
    colids.insert(colids.end(), cols.begin(), cols.end());
    rowptr[static_cast<std::size_t>(r) + 1] =
        static_cast<Index>(colids.size());
  }
  std::vector<T> vals(colids.size(), T(1));
  return Csr<T>::from_parts(n, n, std::move(rowptr), std::move(colids),
                            std::move(vals));
}

/// 2-D block-distributed ER matrix; block (R, C) regenerates its rows from
/// the same per-row streams and keeps only its column range. Blocks are
/// independent, so they are built on the host thread pool; generation
/// charges no simulated time.
template <typename T>
DistCsr<T> erdos_renyi_dist(LocaleGrid& grid, Index n, double d,
                            std::uint64_t seed) {
  check_er_degree(d);
  auto m = DistCsr<T>::shell(grid, n, n);
  HostPool::instance().run(grid.num_locales(), [&](int l) {
    auto& b = m.block(l);
    std::vector<Index> rowptr(static_cast<std::size_t>(b.rhi - b.rlo) + 1, 0);
    std::vector<Index> colids;
    for (Index r = b.rlo; r < b.rhi; ++r) {
      auto cols = er_row_columns(n, d, seed, r);
      for (Index c : cols) {
        if (c >= b.clo && c < b.chi) colids.push_back(c);
      }
      rowptr[static_cast<std::size_t>(r - b.rlo) + 1] =
          static_cast<Index>(colids.size());
    }
    std::vector<T> vals(colids.size(), T(1));
    b.csr = Csr<T>::from_parts(b.rhi - b.rlo, n, std::move(rowptr),
                               std::move(colids), std::move(vals));
  });
  return m;
}

}  // namespace pgb
