// Masks for vector operations.
//
// The paper's conclusion singles out masks as a GraphBLAS novelty not yet
// attempted in distributed memory; pgas-graphblas implements them for the
// vector operations. A mask is a distributed dense Boolean vector (the
// common case in BFS: the "visited" set); apply_mask filters a sparse
// vector's entries by the mask, honoring MaskMode (normal / complement).
//
// Filtering is local on every locale because the mask shares the
// operand's distribution — masks cost O(nnz/p) and no communication,
// which is exactly why masked SpMSpV is the BFS workhorse.
#pragma once

#include "core/descriptor.hpp"
#include "core/kernel_costs.hpp"
#include "machine/cost.hpp"
#include "runtime/locale_grid.hpp"
#include "sparse/dist_dense_vec.hpp"
#include "sparse/dist_sparse_vec.hpp"

namespace pgb {

/// Returns x filtered by the mask: entries kept where mask[i] != 0
/// (kMask) or mask[i] == 0 (kComplement). kNone returns a copy.
template <typename T, typename B>
DistSparseVec<T> apply_mask(const DistSparseVec<T>& x,
                            const DistDenseVec<B>& mask, MaskMode mode) {
  PGB_REQUIRE_SHAPE(x.capacity() == mask.size(),
                    "mask size must equal vector capacity");
  PGB_REQUIRE_SHAPE(&x.grid() == &mask.grid(),
                    "mask lives on a different grid");
  auto& grid = x.grid();
  DistSparseVec<T> z(grid, x.capacity());

  grid.coforall_locales([&](LocaleCtx& ctx) {
    const int l = ctx.locale();
    const auto& lx = x.local(l);
    const auto& lm = mask.local(l);
    std::vector<Index> idx;
    std::vector<T> val;
    for (Index p = 0; p < lx.nnz(); ++p) {
      const Index i = lx.index_at(p);
      const bool set = lm[i] != B{};
      const bool keep = mode == MaskMode::kNone ||
                        (mode == MaskMode::kMask ? set : !set);
      if (keep) {
        idx.push_back(i);
        val.push_back(lx.value_at(p));
      }
    }
    CostVector c;
    c.add(CostKind::kCpuOps,
          kApplyOpsPerElem * static_cast<double>(lx.nnz()));
    c.add(CostKind::kRandAccess, 0.25 * static_cast<double>(lx.nnz()));
    c.add(CostKind::kStreamBytes, 16.0 * static_cast<double>(lx.nnz()) +
                                      24.0 * static_cast<double>(idx.size()));
    ctx.parallel_region(c);
    z.local(l) = SparseVec<T>::from_sorted(lx.capacity(), std::move(idx),
                                           std::move(val));
  });
  return z;
}

/// Scatter a sparse vector's pattern into a dense Boolean vector
/// (mask[i] |= 1 for every nonzero x[i]); used to maintain visited sets.
template <typename T, typename B>
void mask_union(DistDenseVec<B>& mask, const DistSparseVec<T>& x) {
  PGB_REQUIRE_SHAPE(x.capacity() == mask.size(),
                    "mask size must equal vector capacity");
  auto& grid = x.grid();
  grid.coforall_compute([&](LocaleCtx& ctx) {
    const int l = ctx.locale();
    const auto& lx = x.local(l);
    auto& lm = mask.local(l);
    for (Index p = 0; p < lx.nnz(); ++p) lm[lx.index_at(p)] = B{1};
    CostVector c;
    c.add(CostKind::kCpuOps, 10.0 * static_cast<double>(lx.nnz()));
    c.add(CostKind::kRandAccess, 0.5 * static_cast<double>(lx.nnz()));
    c.add(CostKind::kStreamBytes, 8.0 * static_cast<double>(lx.nnz()));
    ctx.parallel_region(c);
  });
}

}  // namespace pgb
