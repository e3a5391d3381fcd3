// Tests for matrix-level eWiseMult/eWiseAdd/Assign/Extract and the
// distributed SUMMA SpGEMM.
#include <gtest/gtest.h>

#include "core/matrix_ewise.hpp"
#include "core/mxm.hpp"
#include "core/mxm_dist.hpp"
#include "core/ops.hpp"
#include "gen/erdos_renyi.hpp"

namespace pgb {
namespace {

class MatGrids : public ::testing::TestWithParam<int> {};

TEST_P(MatGrids, EwiseMultMatchesPatternIntersection) {
  const Index n = 200;
  auto grid = LocaleGrid::square(GetParam(), 2);
  auto a = erdos_renyi_dist<double>(grid, n, 6.0, 1);
  auto b = erdos_renyi_dist<double>(grid, n, 6.0, 2);
  auto c = ewise_mult_matrix(a, b, PlusOp{});
  EXPECT_TRUE(c.check_invariants());

  auto la = a.to_local();
  auto lb = b.to_local();
  auto lc = c.to_local();
  Index expected = 0;
  for (Index r = 0; r < n; ++r) {
    for (Index col : la.row_colids(r)) {
      const double* av = la.find(r, col);
      const double* bv = lb.find(r, col);
      const double* cv = lc.find(r, col);
      if (bv) {
        ++expected;
        ASSERT_NE(cv, nullptr);
        EXPECT_DOUBLE_EQ(*cv, *av + *bv);
      } else {
        EXPECT_EQ(cv, nullptr);
      }
    }
  }
  EXPECT_EQ(lc.nnz(), expected);
}

TEST_P(MatGrids, EwiseAddMatchesPatternUnion) {
  const Index n = 150;
  auto grid = LocaleGrid::square(GetParam(), 2);
  auto a = erdos_renyi_dist<double>(grid, n, 4.0, 3);
  auto b = erdos_renyi_dist<double>(grid, n, 4.0, 4);
  auto c = ewise_add_matrix(a, b, PlusOp{});
  EXPECT_TRUE(c.check_invariants());

  auto la = a.to_local();
  auto lb = b.to_local();
  auto lc = c.to_local();
  for (Index r = 0; r < n; ++r) {
    for (Index col = 0; col < n; ++col) {
      const double* av = la.find(r, col);
      const double* bv = lb.find(r, col);
      const double* cv = lc.find(r, col);
      const double expect = (av ? *av : 0.0) + (bv ? *bv : 0.0);
      if (av || bv) {
        ASSERT_NE(cv, nullptr);
        EXPECT_DOUBLE_EQ(*cv, expect);
      } else {
        EXPECT_EQ(cv, nullptr);
      }
    }
  }
}

TEST_P(MatGrids, AssignMatrixCopiesBlocks) {
  const Index n = 100;
  auto grid = LocaleGrid::square(GetParam(), 2);
  auto b = erdos_renyi_dist<double>(grid, n, 5.0, 5);
  DistCsr<double> a(grid, n, n);
  assign_matrix(a, b);
  EXPECT_EQ(a.nnz(), b.nnz());
  auto la = a.to_local();
  auto lb = b.to_local();
  for (Index r = 0; r < n; ++r) {
    auto x = la.row_colids(r);
    auto y = lb.row_colids(r);
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t k = 0; k < x.size(); ++k) EXPECT_EQ(x[k], y[k]);
  }
}

TEST_P(MatGrids, ExtractSubmatrixWindows) {
  const Index n = 120;
  auto grid = LocaleGrid::square(GetParam(), 2);
  auto a = erdos_renyi_dist<double>(grid, n, 8.0, 6);
  auto z = extract_submatrix(a, 20, 80, 30, 90);
  EXPECT_TRUE(z.check_invariants());
  auto la = a.to_local();
  auto lz = z.to_local();
  Index expected = 0;
  for (Index r = 0; r < n; ++r) {
    for (Index col : la.row_colids(r)) {
      const bool inside = r >= 20 && r < 80 && col >= 30 && col < 90;
      if (inside) ++expected;
      EXPECT_EQ(lz.find(r, col) != nullptr, inside)
          << "(" << r << "," << col << ")";
    }
  }
  EXPECT_EQ(lz.nnz(), expected);
}

INSTANTIATE_TEST_SUITE_P(Grids, MatGrids, ::testing::Values(1, 4, 6, 9));

TEST(MatrixEwise, MismatchThrows) {
  auto grid = LocaleGrid::square(4, 1);
  DistCsr<double> a(grid, 10, 10), b(grid, 10, 11);
  EXPECT_THROW(ewise_mult_matrix(a, b, PlusOp{}), DimensionMismatch);
  EXPECT_THROW(ewise_add_matrix(a, b, PlusOp{}), DimensionMismatch);
  EXPECT_THROW(assign_matrix(a, b), DimensionMismatch);
  EXPECT_THROW(extract_submatrix(a, 0, 11, 0, 5), InvalidArgument);
}

// The element-wise kernels, extract_submatrix and mxm_dist start their
// result from DistCsr::shell and fill every block in one coforall. Each
// block must come out (rhi - rlo) x ncols and valid, on grids that split
// n unevenly and where whole blocks are empty. A kill throws out of the
// kernel, so no matrix with unfilled blocks is ever returned.
TEST(MatrixEwise, ResultBlocksHaveFullShape) {
  const Index n = 23;  // divisible by neither 2 nor 3
  const auto expect_full = [](const DistCsr<double>& m, const char* what) {
    EXPECT_TRUE(m.check_invariants()) << what;
    for (int l = 0; l < m.grid().num_locales(); ++l) {
      const auto& b = m.block(l);
      EXPECT_EQ(b.csr.nrows(), b.rhi - b.rlo) << what << " block " << l;
      EXPECT_EQ(b.csr.ncols(), m.ncols()) << what << " block " << l;
      EXPECT_EQ(b.csr.rowptr().size(),
                static_cast<std::size_t>(b.rhi - b.rlo) + 1)
          << what << " block " << l;
    }
  };
  LocaleGrid grid(GridConfig{.rows = 2, .cols = 3});
  const auto a = erdos_renyi_dist<double>(grid, n, 3.0, 1);
  const auto b = erdos_renyi_dist<double>(grid, n, 3.0, 2);
  expect_full(ewise_mult_matrix(a, b, PlusOp{}), "mult");
  expect_full(ewise_add_matrix(a, b, PlusOp{}), "add");
  expect_full(extract_submatrix(a, 3, 17, 2, 20), "extract");
  expect_full(extract_submatrix(a, 5, 5, 0, 0), "empty extract");
  // SUMMA needs a square grid.
  LocaleGrid square(GridConfig{.rows = 3, .cols = 3});
  const auto sa = erdos_renyi_dist<double>(square, n, 3.0, 3);
  const auto sb = erdos_renyi_dist<double>(square, n, 3.0, 4);
  expect_full(mxm_dist(sa, sb, arithmetic_semiring<double>()), "mxm");

  FaultPlan kill(FaultSpec::parse("kill:locale=4,at=0"), 1);
  grid.set_fault_plan(&kill);
  EXPECT_THROW(ewise_mult_matrix(a, b, PlusOp{}), LocaleFailed);
  EXPECT_THROW(ewise_add_matrix(a, b, PlusOp{}), LocaleFailed);
  EXPECT_THROW(extract_submatrix(a, 3, 17, 2, 20), LocaleFailed);
  grid.set_fault_plan(nullptr);
  square.set_fault_plan(&kill);
  EXPECT_THROW(mxm_dist(sa, sb, arithmetic_semiring<double>()),
               LocaleFailed);
  square.set_fault_plan(nullptr);
}

class SummaGrids : public ::testing::TestWithParam<int> {};

TEST_P(SummaGrids, MatchesLocalGustavson) {
  const Index n = 120;
  auto grid = LocaleGrid::square(GetParam(), 2);
  auto a = erdos_renyi_dist<double>(grid, n, 5.0, 7);
  auto b = erdos_renyi_dist<double>(grid, n, 5.0, 8);
  auto c = mxm_dist(a, b, arithmetic_semiring<double>());
  EXPECT_TRUE(c.check_invariants());

  auto gridl = LocaleGrid::single(1);
  LocaleCtx ctx(gridl, 0);
  auto ref = mxm_local(ctx, a.to_local(), b.to_local(),
                       arithmetic_semiring<double>());
  auto lc = c.to_local();
  ASSERT_EQ(lc.nnz(), ref.nnz());
  for (Index r = 0; r < n; ++r) {
    auto rc = ref.row_colids(r);
    auto cc = lc.row_colids(r);
    ASSERT_EQ(rc.size(), cc.size()) << "row " << r;
    for (std::size_t k = 0; k < rc.size(); ++k) {
      EXPECT_EQ(cc[k], rc[k]);
      EXPECT_NEAR(lc.row_values(r)[k], ref.row_values(r)[k], 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SquareGrids, SummaGrids,
                         ::testing::Values(1, 4, 9, 16));

TEST(Summa, MinPlusSemiring) {
  // One step of min-plus matrix squaring = length-2 shortest paths.
  const Index n = 60;
  auto grid = LocaleGrid::square(4, 2);
  auto a = erdos_renyi_dist<double>(grid, n, 4.0, 9);
  auto c = mxm_dist(a, a, min_plus_semiring<double>());
  auto la = a.to_local();
  auto lc = c.to_local();
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) {
      double best = std::numeric_limits<double>::max();
      for (Index k = 0; k < n; ++k) {
        const double* x = la.find(i, k);
        const double* y = la.find(k, j);
        if (x && y) best = std::min(best, *x + *y);
      }
      const double* got = lc.find(i, j);
      if (best < std::numeric_limits<double>::max()) {
        ASSERT_NE(got, nullptr) << i << "," << j;
        EXPECT_NEAR(*got, best, 1e-9);
      } else {
        EXPECT_EQ(got, nullptr);
      }
    }
  }
}

TEST(Summa, NonSquareGridRejected) {
  auto grid = LocaleGrid::square(8, 1);  // 2x4
  DistCsr<double> a(grid, 10, 10), b(grid, 10, 10);
  EXPECT_THROW(mxm_dist(a, b, arithmetic_semiring<double>()),
               InvalidArgument);
}

TEST(SummaModel, CommunicationGrowsWithStages) {
  // SUMMA moves O(nnz * sqrt(p)) words total; per-locale comm time rises
  // slowly with grid size while compute shrinks.
  const Index n = 100000;  // large enough that spawn overhead amortizes
  auto time_for = [&](int nloc) {
    auto grid = LocaleGrid::square(nloc, 24);
    auto a = erdos_renyi_dist<double>(grid, n, 8.0, 1);
    auto b = erdos_renyi_dist<double>(grid, n, 8.0, 2);
    grid.reset();
    mxm_dist(a, b, arithmetic_semiring<double>());
    return grid.time();
  };
  // Scaling holds but is clearly sublinear (broadcast + per-stage spawn
  // overheads grow with sqrt(p)).
  const double t1 = time_for(1);
  const double t16 = time_for(16);
  EXPECT_GT(t1 / t16, 2.0);
  EXPECT_LT(t1 / t16, 12.0);
}

}  // namespace
}  // namespace pgb
