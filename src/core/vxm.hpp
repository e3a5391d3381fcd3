// GraphBLAS-style entry points: vxm (row vector times matrix) and mxv
// (matrix times column vector), with descriptor-controlled transposition
// and optional masks — the naming surface of the C API the paper cites
// [7], layered over spmspv_dist.
//
// mxv is the library's one A x. Blocks are CSR only (the paper's Fig 6
// note: orientation changes neither the SpMSpV algorithm nor its cost),
// so mxv(A, x) is vxm(x, A^T) with A^T materialized by transpose_dist
// and charged. Callers iterating mxv should transpose once and use vxm.
#pragma once

#include "core/descriptor.hpp"
#include "core/spmspv.hpp"
#include "core/transpose.hpp"
#include "sparse/dist_csr.hpp"
#include "sparse/dist_dense_vec.hpp"
#include "sparse/dist_sparse_vec.hpp"

namespace pgb {

/// y = x A  (optionally x A^T when transpose is set).
template <typename TA, typename T, typename SR>
DistSparseVec<T> vxm(const DistSparseVec<T>& x, const DistCsr<TA>& a,
                     const SR& sr, bool transpose_a = false,
                     const SpmspvOptions& opt = {}) {
  if (!transpose_a) return spmspv_dist(a, x, sr, opt);
  DistCsr<TA> at = transpose_dist(a);
  return spmspv_dist(at, x, sr, opt);
}

/// Masked vxm (mask over the output's index space).
template <typename TA, typename T, typename SR>
DistSparseVec<T> vxm(const DistSparseVec<T>& x, const DistCsr<TA>& a,
                     const DistDenseVec<std::uint8_t>& mask, MaskMode mode,
                     const SR& sr, bool transpose_a = false,
                     const SpmspvOptions& opt = {}) {
  if (!transpose_a) return spmspv_dist_masked(a, x, mask, mode, sr, opt);
  DistCsr<TA> at = transpose_dist(a);
  return spmspv_dist_masked(at, x, mask, mode, sr, opt);
}

/// y = A x: with A[r,c] an edge r -> c, this accumulates over *incoming*
/// edges of each row index — the transpose orientation of vxm.
template <typename TA, typename T, typename SR>
DistSparseVec<T> mxv(const DistCsr<TA>& a, const DistSparseVec<T>& x,
                     const SR& sr, const SpmspvOptions& opt = {}) {
  return vxm(x, a, sr, /*transpose_a=*/true, opt);
}

}  // namespace pgb
