// Inputs and hashes shared by the construction pin tests
// (Coo.ToCsrPinned in test_sparse, DistCsr.FromCooPinnedBlocks in
// test_dist_containers, ErdosRenyi.PinnedBlocks in test_gen): an R-MAT
// edge list and an unsorted, duplicate-heavy COO folded with a
// non-commutative combine, on a non-square shape that leaves some blocks
// of every tested grid empty, and FNV-1a over CSR and block bytes. The
// literals those tests hold were captured from the builders they
// replaced; any builder must reproduce them byte for byte.
#pragma once

#include <cstdint>

#include "gen/rmat.hpp"
#include "runtime/locale_grid.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/dist_csr.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"

namespace pgb::pins {

template <typename T>
std::uint64_t csr_hash(std::uint64_t h, const Csr<T>& m) {
  const Index shape[2] = {m.nrows(), m.ncols()};
  h = fnv1a_extend(h, shape, sizeof shape);
  h = fnv1a_extend(h, m.rowptr().data(), m.rowptr().size_bytes());
  h = fnv1a_extend(h, m.colids().data(), m.colids().size_bytes());
  return fnv1a_extend(h, m.values().data(), m.values().size_bytes());
}

/// Every block's bounds and CSR bytes, in locale order.
template <typename T>
std::uint64_t blocks_hash(std::uint64_t h, const DistCsr<T>& m) {
  for (int l = 0; l < m.grid().num_locales(); ++l) {
    const auto& b = m.block(l);
    const Index bounds[4] = {b.rlo, b.rhi, b.clo, b.chi};
    h = fnv1a_extend(h, bounds, sizeof bounds);
    h = csr_hash(h, b.csr);
  }
  return h;
}

/// Folds duplicates so that both the order and the grouping of the fold
/// show in the result (wraps modulo 2^64).
inline std::uint64_t noncommutative(std::uint64_t a, std::uint64_t b) {
  return a * 1000003u + b;
}

/// A symmetric R-MAT edge list with its duplicates kept (unit values).
inline Coo<std::int64_t> rmat_input() {
  RmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  p.seed = 5;
  return rmat_coo(p);
}

/// 61 x 53, 4000 triples in random order over few coordinates, each
/// with a distinct value. Rows below 30 reach columns [0, 26), the rest
/// columns [0, 13) plus a band [46, 53), so on 2x2, 2x8 and 32x32 grids
/// some blocks get no triple at all.
inline Coo<std::uint64_t> dup_heavy_input() {
  Coo<std::uint64_t> coo(61, 53);
  Xoshiro256 rng(2718);
  for (std::uint64_t v = 1; v <= 4000; ++v) {
    const Index r = static_cast<Index>(rng.next_below(61));
    Index c = 0;
    if (r < 30) {
      c = static_cast<Index>(rng.next_below(26));
    } else if (rng.next_below(8) == 0) {
      c = 46 + static_cast<Index>(rng.next_below(7));
    } else {
      c = static_cast<Index>(rng.next_below(13));
    }
    coo.add(r, c, v);
  }
  return coo;
}

inline LocaleGrid grid_of(int rows, int cols) {
  return LocaleGrid(GridConfig{.rows = rows, .cols = cols});
}

}  // namespace pgb::pins
