// Umbrella header: the public GraphBLAS surface of pgas-graphblas.
//
// Quick tour (see README.md for a walkthrough):
//
//   LocaleGrid grid = LocaleGrid::square(16, 24);   // 4x4 locales, 24 thr
//   auto a = erdos_renyi_dist<double>(grid, n, d, seed);
//   auto x = random_dist_sparse_vec<double>(grid, n, nnz, seed);
//   auto y = spmspv_dist(a, x, arithmetic_semiring<double>());
//   double t = grid.time();                         // modeled seconds
#pragma once

#include "core/apply.hpp"        // IWYU pragma: export
#include "core/assign.hpp"       // IWYU pragma: export
#include "core/assign_general.hpp"  // IWYU pragma: export
#include "core/descriptor.hpp"   // IWYU pragma: export
#include "core/ewise_add.hpp"    // IWYU pragma: export
#include "core/ewise_mult.hpp"   // IWYU pragma: export
#include "core/extract.hpp"      // IWYU pragma: export
#include "core/mask.hpp"         // IWYU pragma: export
#include "core/matrix_ewise.hpp"  // IWYU pragma: export
#include "core/mxm.hpp"          // IWYU pragma: export
#include "core/mxm_dist.hpp"     // IWYU pragma: export
#include "core/ops.hpp"          // IWYU pragma: export
#include "core/permute.hpp"      // IWYU pragma: export
#include "core/reduce.hpp"       // IWYU pragma: export
#include "core/spmspv.hpp"       // IWYU pragma: export
#include "core/spmv.hpp"         // IWYU pragma: export
#include "core/transpose.hpp"    // IWYU pragma: export
#include "core/vxm.hpp"          // IWYU pragma: export
#include "core/dense_ops.hpp"    // IWYU pragma: export
