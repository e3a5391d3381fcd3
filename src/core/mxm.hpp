// Sparse matrix - sparse matrix multiplication (SpGEMM) on a semiring,
// Gustavson's row-wise algorithm with a SPA. The paper lists mxm among
// the remaining GraphBLAS primitives for future work; a shared-memory
// implementation is provided here (used by the triangle-counting example).
#pragma once

#include <vector>

#include "machine/cost.hpp"
#include "runtime/locale_grid.hpp"
#include "sparse/csr.hpp"
#include "sparse/spa.hpp"
#include "util/sorting.hpp"

namespace pgb {

/// c = a . b  (local CSR operands) on the semiring.
template <typename T, typename SR>
Csr<T> mxm_local(LocaleCtx& ctx, const Csr<T>& a, const Csr<T>& b,
                 const SR& sr) {
  PGB_REQUIRE_SHAPE(a.ncols() == b.nrows(), "mxm: inner dimension mismatch");
  const Index nr = a.nrows();
  const Index nc = b.ncols();

  std::vector<Index> rowptr(static_cast<std::size_t>(nr) + 1, 0);
  std::vector<Index> colids;
  std::vector<T> vals;
  Spa<T> spa(0, nc);
  std::vector<Index> touched;  // the row's columns, in first-touch order
  double flops = 0.0;

  for (Index i = 0; i < nr; ++i) {
    auto acols = a.row_colids(i);
    auto avals = a.row_values(i);
    for (std::size_t ka = 0; ka < acols.size(); ++ka) {
      const Index k = acols[ka];
      auto bcols = b.row_colids(k);
      auto bvals = b.row_values(k);
      for (std::size_t kb = 0; kb < bcols.size(); ++kb) {
        if (spa.accumulate(bcols[kb], sr.multiply(avals[ka], bvals[kb]),
                           sr.add)) {
          touched.push_back(bcols[kb]);
        }
      }
      flops += static_cast<double>(bcols.size());
    }
    merge_sort(touched);
    for (Index j : touched) {
      colids.push_back(j);
      vals.push_back(spa.value(j));
    }
    rowptr[static_cast<std::size_t>(i) + 1] =
        static_cast<Index>(colids.size());
    spa.reset(touched);
    touched.clear();
  }

  CostVector c;
  c.add(CostKind::kStreamBytes, 16.0 * flops);
  c.add(CostKind::kRandAccess, flops);
  c.add(CostKind::kCpuOps, 30.0 * flops +
                               20.0 * static_cast<double>(colids.size()));
  c.add(CostKind::kStreamBytes, 24.0 * static_cast<double>(colids.size()));
  ctx.parallel_region(c);

  return Csr<T>::from_parts(nr, nc, std::move(rowptr), std::move(colids),
                            std::move(vals));
}

}  // namespace pgb
