// Distributed SpGEMM: C = A . B on a square locale grid, using the
// 2-D SUMMA algorithm (Buluç & Gilbert's Sparse SUMMA [8] — the
// matrix-matrix reference the paper cites for Assign's communication
// bound). In stage s, processor column s of A is broadcast along
// processor rows and processor row s of B along processor columns; each
// locale multiplies the received pair locally (Gustavson + SPA) and
// accumulates into its C block.
//
// This is the distributed form of the mxm primitive the paper's
// conclusion defers to future work.
#pragma once

#include <vector>

#include "core/mxm.hpp"
#include "runtime/locale_grid.hpp"
#include "sparse/coo.hpp"
#include "sparse/dist_csr.hpp"

namespace pgb {

/// C = A . B on the semiring. Requires a square grid (prows == pcols),
/// the canonical SUMMA layout.
template <typename T, typename SR>
DistCsr<T> mxm_dist(const DistCsr<T>& a, const DistCsr<T>& b,
                    const SR& sr) {
  PGB_REQUIRE_SHAPE(a.ncols() == b.nrows(), "mxm: inner dimension mismatch");
  PGB_REQUIRE_SHAPE(&a.grid() == &b.grid(),
                    "mxm: operands on different grids");
  auto& grid = a.grid();
  PGB_REQUIRE(grid.rows() == grid.cols(),
              "mxm_dist requires a square locale grid (SUMMA)");
  const int p = grid.rows();

  auto c = DistCsr<T>::shell(grid, a.nrows(), b.ncols());
  // Accumulate each locale's C block as triples across stages; combined
  // into CSR at the end (cheaper than per-stage CSR additions).
  std::vector<Coo<T>> acc;
  acc.reserve(grid.num_locales());
  for (int l = 0; l < grid.num_locales(); ++l) {
    const auto& blk = c.block(l);
    acc.emplace_back(blk.rhi - blk.rlo, b.ncols());
  }

  for (int s = 0; s < p; ++s) {
    grid.coforall_locales([&](LocaleCtx& ctx) {
      const int l = ctx.locale();
      const int i = grid.locale(l).row;
      const int j = grid.locale(l).col;

      // Receive A(i, s) from its owner along the processor row and
      // B(s, j) along the processor column (one bulk message each; the
      // broadcast is modeled as the leaf's receive).
      const int a_owner = i * p + s;
      const int b_owner = s * p + j;
      const auto& ablk = a.block(a_owner);
      const auto& bblk = b.block(b_owner);
      if (a_owner != l) ctx.remote_bulk(a_owner, 16 * ablk.csr.nnz());
      if (b_owner != l) ctx.remote_bulk(b_owner, 16 * bblk.csr.nnz());

      // Local multiply-accumulate: for each row of A(i,s), scatter the
      // referenced rows of B(s,j) through a SPA. A's colids are global
      // within [ablk.clo, ablk.chi) = B(s,j)'s global row range.
      Spa<T> spa(bblk.clo, bblk.chi);
      std::vector<Index> touched;  // the row's columns, first touch first
      double flops = 0.0;
      auto& out = acc[l];
      for (Index lr = 0; lr < ablk.csr.nrows(); ++lr) {
        auto acols = ablk.csr.row_colids(lr);
        auto avals = ablk.csr.row_values(lr);
        for (std::size_t ka = 0; ka < acols.size(); ++ka) {
          const Index bl_row = acols[ka] - bblk.rlo;
          auto bcols = bblk.csr.row_colids(bl_row);
          auto bvals = bblk.csr.row_values(bl_row);
          for (std::size_t kb = 0; kb < bcols.size(); ++kb) {
            if (spa.accumulate(bcols[kb],
                               sr.multiply(avals[ka], bvals[kb]), sr.add)) {
              touched.push_back(bcols[kb]);
            }
          }
          flops += static_cast<double>(bcols.size());
        }
        for (Index col : touched) {
          out.add(lr, col, spa.value(col));
        }
        spa.reset(touched);
        touched.clear();
      }
      CostVector cost;
      cost.add(CostKind::kStreamBytes, 16.0 * flops);
      cost.add(CostKind::kRandAccess, flops);
      cost.add(CostKind::kCpuOps, 30.0 * flops);
      ctx.parallel_region(cost);
    });
  }

  // Combine per-stage partial products (duplicates across stages add on
  // the semiring's monoid).
  grid.coforall_locales([&](LocaleCtx& ctx) {
    const int l = ctx.locale();
    c.block(l).csr =
        acc[l].to_csr([&](const T& x, const T& y) { return sr.combine(x, y); });
    CostVector cost;
    const double nnz = static_cast<double>(acc[l].nnz());
    cost.add(CostKind::kCpuOps, 40.0 * nnz);
    cost.add(CostKind::kStreamBytes, 48.0 * nnz);
    ctx.parallel_region(cost);
  });
  return c;
}

}  // namespace pgb
