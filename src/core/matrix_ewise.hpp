// Matrix-level element-wise operations, Assign, and Extract.
//
// The paper benchmarks the vector forms; the GraphBLAS spec defines all
// of these for matrices too. With both operands on the same grid and
// dimensions, every block pair is co-located, so these are pure SPMD
// row-merge kernels — no communication, exactly like the vector
// eWiseMult/Assign2.
#pragma once

#include <vector>

#include "core/kernel_costs.hpp"
#include "machine/cost.hpp"
#include "runtime/locale_grid.hpp"
#include "sparse/dist_csr.hpp"

namespace pgb {

namespace detail {

template <typename T>
void require_same_shape(const DistCsr<T>& a, const DistCsr<T>& b,
                        const char* what) {
  PGB_REQUIRE_SHAPE(a.nrows() == b.nrows() && a.ncols() == b.ncols(),
                    std::string(what) + ": dimension mismatch");
  PGB_REQUIRE_SHAPE(&a.grid() == &b.grid(),
                    std::string(what) + ": operands on different grids");
}

/// Merges two CSR blocks row by row. Mode selects intersection
/// (eWiseMult) or union (eWiseAdd) semantics.
template <typename T, typename Op, bool kUnion>
Csr<T> merge_rows(const Csr<T>& a, const Csr<T>& b, Op op) {
  std::vector<Index> rowptr(static_cast<std::size_t>(a.nrows()) + 1, 0);
  std::vector<Index> colids;
  std::vector<T> vals;
  for (Index r = 0; r < a.nrows(); ++r) {
    auto ac = a.row_colids(r);
    auto av = a.row_values(r);
    auto bc = b.row_colids(r);
    auto bv = b.row_values(r);
    std::size_t i = 0, j = 0;
    while (i < ac.size() || j < bc.size()) {
      if (j >= bc.size() || (i < ac.size() && ac[i] < bc[j])) {
        if constexpr (kUnion) {
          colids.push_back(ac[i]);
          vals.push_back(av[i]);
        }
        ++i;
      } else if (i >= ac.size() || bc[j] < ac[i]) {
        if constexpr (kUnion) {
          colids.push_back(bc[j]);
          vals.push_back(bv[j]);
        }
        ++j;
      } else {
        colids.push_back(ac[i]);
        vals.push_back(op(av[i], bv[j]));
        ++i;
        ++j;
      }
    }
    rowptr[static_cast<std::size_t>(r) + 1] =
        static_cast<Index>(colids.size());
  }
  return Csr<T>::from_parts(a.nrows(), a.ncols(), std::move(rowptr),
                            std::move(colids), std::move(vals));
}

template <typename T>
CostVector merge_cost(const Csr<T>& a, const Csr<T>& b, Index out_nnz) {
  CostVector c;
  const double work = static_cast<double>(a.nnz() + b.nnz());
  c.add(CostKind::kCpuOps, kEwiseOpsPerElem * work);
  c.add(CostKind::kStreamBytes,
        16.0 * work + 24.0 * static_cast<double>(out_nnz) +
            8.0 * static_cast<double>(a.nrows()));
  return c;
}

}  // namespace detail

/// C = A .* B: element-wise multiply on the pattern intersection.
template <typename T, typename Op>
DistCsr<T> ewise_mult_matrix(const DistCsr<T>& a, const DistCsr<T>& b,
                             Op op) {
  detail::require_same_shape(a, b, "ewise_mult_matrix");
  auto& grid = a.grid();
  auto c = DistCsr<T>::shell(grid, a.nrows(), a.ncols());
  grid.coforall_locales([&](LocaleCtx& ctx) {
    const int l = ctx.locale();
    c.block(l).csr = detail::merge_rows<T, Op, /*kUnion=*/false>(
        a.block(l).csr, b.block(l).csr, op);
    ctx.parallel_region(
        detail::merge_cost(a.block(l).csr, b.block(l).csr,
                           c.block(l).csr.nnz()));
  });
  return c;
}

/// C = A (+) B: element-wise combine on the pattern union.
template <typename T, typename Op>
DistCsr<T> ewise_add_matrix(const DistCsr<T>& a, const DistCsr<T>& b,
                            Op op) {
  detail::require_same_shape(a, b, "ewise_add_matrix");
  auto& grid = a.grid();
  auto c = DistCsr<T>::shell(grid, a.nrows(), a.ncols());
  grid.coforall_locales([&](LocaleCtx& ctx) {
    const int l = ctx.locale();
    c.block(l).csr = detail::merge_rows<T, Op, /*kUnion=*/true>(
        a.block(l).csr, b.block(l).csr, op);
    ctx.parallel_region(
        detail::merge_cost(a.block(l).csr, b.block(l).csr,
                           c.block(l).csr.nnz()));
  });
  return c;
}

/// A = B for matrices with matching distribution (the paper's restricted
/// Assign, lifted to matrices; SPMD bulk copy like Assign2).
template <typename T>
void assign_matrix(DistCsr<T>& a, const DistCsr<T>& b) {
  detail::require_same_shape(a, b, "assign_matrix");
  auto& grid = a.grid();
  grid.coforall_locales([&](LocaleCtx& ctx) {
    const int l = ctx.locale();
    a.block(l).csr = b.block(l).csr;
    CostVector c;
    const double nnz = static_cast<double>(b.block(l).csr.nnz());
    c.add(CostKind::kCpuOps, kAssignBulkOps * nnz);
    c.add(CostKind::kStreamBytes, 32.0 * nnz);
    ctx.parallel_region(c);
  });
}

/// Extract the submatrix with rows in [rlo, rhi) and columns in
/// [clo, chi), preserving global indices and the original dimensions
/// (entries outside the window are dropped) — the matrix analogue of
/// extract_range.
template <typename T>
DistCsr<T> extract_submatrix(const DistCsr<T>& a, Index rlo, Index rhi,
                             Index clo, Index chi) {
  PGB_REQUIRE(rlo >= 0 && rhi <= a.nrows() && rlo <= rhi,
              "extract_submatrix: bad row range");
  PGB_REQUIRE(clo >= 0 && chi <= a.ncols() && clo <= chi,
              "extract_submatrix: bad column range");
  auto& grid = a.grid();
  auto z = DistCsr<T>::shell(grid, a.nrows(), a.ncols());
  grid.coforall_locales([&](LocaleCtx& ctx) {
    const int l = ctx.locale();
    const auto& blk = a.block(l);
    std::vector<Index> rowptr(
        static_cast<std::size_t>(blk.rhi - blk.rlo) + 1, 0);
    std::vector<Index> colids;
    std::vector<T> vals;
    for (Index lr = 0; lr < blk.csr.nrows(); ++lr) {
      const Index gr = blk.rlo + lr;
      if (gr >= rlo && gr < rhi) {
        auto cols = blk.csr.row_colids(lr);
        auto rvals = blk.csr.row_values(lr);
        for (std::size_t k = 0; k < cols.size(); ++k) {
          if (cols[k] >= clo && cols[k] < chi) {
            colids.push_back(cols[k]);
            vals.push_back(rvals[k]);
          }
        }
      }
      rowptr[static_cast<std::size_t>(lr) + 1] =
          static_cast<Index>(colids.size());
    }
    const Index out_nnz = static_cast<Index>(colids.size());
    z.block(l).csr =
        Csr<T>::from_parts(blk.rhi - blk.rlo, a.ncols(), std::move(rowptr),
                           std::move(colids), std::move(vals));
    CostVector c;
    c.add(CostKind::kCpuOps,
          kApplyOpsPerElem * static_cast<double>(blk.csr.nnz()));
    c.add(CostKind::kStreamBytes,
          16.0 * static_cast<double>(blk.csr.nnz()) +
              24.0 * static_cast<double>(out_nnz));
    ctx.parallel_region(c);
  });
  return z;
}

}  // namespace pgb
