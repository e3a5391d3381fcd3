// Column-wise SpMSpV: y = A x over a CSC matrix.
//
// With CSC, "A times a sparse column vector" visits exactly the columns
// x selects — the transpose-free mxv kernel a dual-format GraphBLAS
// backend dispatches to. Same SPA machinery and charges as the row-wise
// kernel; only the orientation differs (the paper's Fig 6 note: "Neither
// the algorithm nor its complexity is affected by the use of row-wise vs
// column-wise representation").
//
// This kernel is node-local; its distributed driver (mxv_direct.hpp)
// honours SpmspvOptions::comm for the surrounding gather/scatter, so the
// column-wise family supports the fine / bulk / aggregated schedules the
// same way spmspv_dist does.
#pragma once

#include "core/kernel_costs.hpp"
#include "core/spmspv.hpp"
#include "machine/cost.hpp"
#include "runtime/locale_grid.hpp"
#include "sparse/csc.hpp"
#include "sparse/spa.hpp"
#include "sparse/sparse_vec.hpp"

namespace pgb {

/// y[r] = add over x's nonzero columns c of mul(x[c], A[r, c]).
/// x indices are global column ids in [col_lo, col_lo + a.ncols()); the
/// result's indices are row ids in [row_lo, row_lo + a.nrows()).
template <typename TA, typename T, typename SR>
SparseVec<T> spmspv_columnwise(LocaleCtx& ctx, const Csc<TA>& a,
                               Index col_lo, const SparseVec<T>& x,
                               Index row_lo, const SR& sr,
                               const SpmspvOptions& opt = {},
                               Trace* trace = nullptr) {
  PGB_REQUIRE_SHAPE(x.capacity() >= a.ncols(),
                    "spmspv_columnwise: x capacity must cover the columns");
  const Index row_hi = row_lo + a.nrows();

  double t0 = ctx.clock().now();
  Spa<T> spa(row_lo, row_hi);
  Index visited = 0;
  for (Index p = 0; p < x.nnz(); ++p) {
    const Index c = x.index_at(p) - col_lo;
    PGB_ASSERT(c >= 0 && c < a.ncols(),
               "spmspv_columnwise: x index out of column range");
    const T& xv = x.value_at(p);
    auto rows = a.col_rowids(c);
    auto vals = a.col_values(c);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      spa.accumulate(row_lo + rows[k],
                     sr.multiply(xv, static_cast<T>(vals[k])), sr.add);
    }
    visited += static_cast<Index>(rows.size());
  }
  const Index out_nnz = spa.nnz();
  {
    CostVector c;
    c.add(CostKind::kStreamBytes, 9.0 * static_cast<double>(row_hi - row_lo));
    c.add(CostKind::kRandAccess, 2.0 * static_cast<double>(x.nnz()));
    c.add(CostKind::kCpuOps, kSpaOpsPerRow * static_cast<double>(x.nnz()));
    c.add(CostKind::kStreamBytes, 16.0 * static_cast<double>(visited));
    c.add(CostKind::kCpuOps, kSpaOpsPerNnz * static_cast<double>(visited));
    c.add(CostKind::kAtomicDistinct, static_cast<double>(visited));
    c.add(CostKind::kAtomicContended, static_cast<double>(out_nnz));
    ctx.parallel_region(c);
  }
  if (trace) trace->add("spa", ctx.clock().now() - t0);

  // The sort is charged only; the output walk below reads the indices
  // off the SPA in ascending order (see spmspv_shm).
  t0 = ctx.clock().now();
  const CostVector sc = opt.sort == SortAlgo::kMerge
                            ? merge_sort_cost(out_nnz)
                            : radix_sort_cost(out_nnz, row_hi);
  ctx.parallel_region(sc.scaled(0.92));
  ctx.serial_region(sc.scaled(0.08));
  if (trace) trace->add("sort", ctx.clock().now() - t0);

  t0 = ctx.clock().now();
  std::vector<Index> idx;
  std::vector<T> val;
  idx.reserve(static_cast<std::size_t>(out_nnz));
  val.reserve(static_cast<std::size_t>(out_nnz));
  spa.for_each_sorted([&](Index j) {
    idx.push_back(j);
    val.push_back(spa.value(j));
  });
  {
    CostVector c;
    c.add(CostKind::kCpuOps, kSpmspvOutputOps * static_cast<double>(out_nnz));
    c.add(CostKind::kRandAccess, static_cast<double>(out_nnz));
    c.add(CostKind::kStreamBytes, 24.0 * static_cast<double>(out_nnz));
    ctx.parallel_region(c);
  }
  if (trace) trace->add("output", ctx.clock().now() - t0);

  return SparseVec<T>::from_sorted(row_hi - row_lo, std::move(idx),
                                   std::move(val));
}

}  // namespace pgb
