// Tests for the distributed containers: block-distributed sparse/dense
// vectors and the 2-D distributed CSR, including their invariants and
// round trips between local and distributed representations.
#include <gtest/gtest.h>

#include <functional>
#include <ios>
#include <utility>

#include "construction_pins.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/random_vec.hpp"
#include "sparse/dist_csr.hpp"
#include "sparse/dist_dense_vec.hpp"
#include "sparse/dist_sparse_vec.hpp"
#include "util/fnv.hpp"

namespace pgb {
namespace {

class GridSizes : public ::testing::TestWithParam<int> {};

TEST_P(GridSizes, DistSparseVecPartitionRoundTrips) {
  auto grid = LocaleGrid::square(GetParam(), 4);
  const Index n = 1000;
  auto x = random_dist_sparse_vec<double>(grid, n, 137, /*seed=*/3);
  EXPECT_TRUE(x.check_invariants());
  EXPECT_EQ(x.nnz(), 137);

  auto local = x.to_local();
  EXPECT_EQ(local.nnz(), 137);
  // Same content as a directly generated local vector.
  auto ref = random_sparse_vec<double>(n, 137, /*seed=*/3);
  EXPECT_EQ(local.domain().indices().size(), ref.domain().indices().size());
  for (Index p = 0; p < ref.nnz(); ++p) {
    EXPECT_EQ(local.index_at(p), ref.index_at(p));
    EXPECT_EQ(local.value_at(p), ref.value_at(p));
  }
}

TEST_P(GridSizes, EveryIndexOwnedByExactlyOneLocale) {
  auto grid = LocaleGrid::square(GetParam(), 1);
  DistSparseVec<int> x(grid, 100);
  Index total = 0;
  for (int l = 0; l < grid.num_locales(); ++l) {
    total += x.dist().local_size(l);
    for (Index i = x.dist().lo(l); i < x.dist().hi(l); ++i) {
      EXPECT_EQ(x.owner(i), l);
    }
  }
  EXPECT_EQ(total, 100);
}

INSTANTIATE_TEST_SUITE_P(Grids, GridSizes, ::testing::Values(1, 2, 4, 6, 9));

TEST(DistSparseVec, FromSortedRejectsOutOfRange) {
  auto grid = LocaleGrid::single(1);
  EXPECT_THROW(
      DistSparseVec<int>::from_sorted(grid, 10, {5, 12}, {1, 2}),
      InvalidArgument);
}

TEST(DistSparseVec, EmptyVector) {
  auto grid = LocaleGrid::square(4, 1);
  DistSparseVec<double> x(grid, 50);
  EXPECT_EQ(x.nnz(), 0);
  EXPECT_TRUE(x.check_invariants());
  EXPECT_EQ(x.to_local().nnz(), 0);
}

TEST(DistDenseVec, GlobalAccessHitsRightLocale) {
  auto grid = LocaleGrid::square(4, 1);
  DistDenseVec<int> y(grid, 100, 7);
  EXPECT_EQ(y.at(0), 7);
  y.at(99) = 42;
  EXPECT_EQ(y.local(3)[99], 42);
  y.fill(1);
  EXPECT_EQ(y.at(99), 1);
}

TEST(DistDenseVec, LocalBlocksCoverRange) {
  auto grid = LocaleGrid::square(6, 1);
  DistDenseVec<double> y(grid, 101);
  Index covered = 0;
  for (int l = 0; l < 6; ++l) covered += y.local(l).size();
  EXPECT_EQ(covered, 101);
}

class DistCsrGrids : public ::testing::TestWithParam<int> {};

TEST_P(DistCsrGrids, DistributedMatrixMatchesLocal) {
  auto grid = LocaleGrid::square(GetParam(), 2);
  const Index n = 200;
  auto dist = erdos_renyi_dist<double>(grid, n, 6.0, /*seed=*/11);
  auto local = erdos_renyi_csr<double>(n, 6.0, /*seed=*/11);
  EXPECT_TRUE(dist.check_invariants());
  EXPECT_EQ(dist.nnz(), local.nnz());

  auto gathered = dist.to_local();
  ASSERT_EQ(gathered.nnz(), local.nnz());
  for (Index r = 0; r < n; ++r) {
    auto a = gathered.row_colids(r);
    auto b = local.row_colids(r);
    ASSERT_EQ(a.size(), b.size()) << "row " << r;
    for (std::size_t k = 0; k < a.size(); ++k) EXPECT_EQ(a[k], b[k]);
  }
}

TEST_P(DistCsrGrids, BlocksTileTheMatrix) {
  auto grid = LocaleGrid::square(GetParam(), 1);
  DistCsr<int> m(grid, 57, 91);
  Index rows_covered = 0, cols_covered = 0;
  for (int pr = 0; pr < grid.rows(); ++pr) {
    rows_covered += m.block(pr * grid.cols()).rhi -
                    m.block(pr * grid.cols()).rlo;
  }
  for (int pcix = 0; pcix < grid.cols(); ++pcix) {
    cols_covered += m.block(pcix).chi - m.block(pcix).clo;
  }
  EXPECT_EQ(rows_covered, 57);
  EXPECT_EQ(cols_covered, 91);
}

INSTANTIATE_TEST_SUITE_P(Grids, DistCsrGrids, ::testing::Values(1, 2, 4, 9));

TEST(DistCsr, FromCooRoutesTriples) {
  auto grid = LocaleGrid::square(4, 1);  // 2x2
  Coo<int> coo(10, 10);
  coo.add(0, 0, 1);    // block (0,0)
  coo.add(0, 9, 2);    // block (0,1)
  coo.add(9, 0, 3);    // block (1,0)
  coo.add(9, 9, 4);    // block (1,1)
  auto m = DistCsr<int>::from_coo(grid, coo);
  EXPECT_EQ(m.block(0).csr.nnz(), 1);
  EXPECT_EQ(m.block(1).csr.nnz(), 1);
  EXPECT_EQ(m.block(2).csr.nnz(), 1);
  EXPECT_EQ(m.block(3).csr.nnz(), 1);
  EXPECT_EQ(*m.to_local().find(9, 9), 4);
}

// FNV-1a over every block's bounds and CSR bytes, in locale order, for
// the R-MAT edge list (keep-last and summed duplicates) and the
// duplicate-heavy COO (keep-last and a non-commutative fold) on four
// grid shapes. A change to how from_coo routes, sorts or folds triples
// must leave every literal as it is; a mismatch prints the new value.
template <typename T>
std::uint64_t blocks_hash(const DistCsr<T>& m) {
  return pins::blocks_hash(kFnvOffsetBasis, m);
}

// from_coo routes triples in chunks of at least 2^15. With 100000
// triples over few coordinates, runs of duplicates span chunks, and the
// non-commutative fold shows whether every block still folds them in
// input order: each block must hold exactly to_csr's rows in its range.
// The last row holds only 70000 copies of one coordinate, so no column
// sort reorders them and the routing order alone decides their fold.
TEST(DistCsr, FromCooFoldsAcrossRouteChunksInInputOrder) {
  Coo<std::uint64_t> coo(97, 89);
  Xoshiro256 rng(31);
  for (std::uint64_t v = 1; v <= 100000; ++v) {
    coo.add(static_cast<Index>(rng.next_below(96)),
            static_cast<Index>(rng.next_below(89)), v);
  }
  for (std::uint64_t v = 1; v <= 70000; ++v) coo.add(96, 88, v);
  const auto whole = coo.to_csr(pins::noncommutative);
  for (const auto& [rows, cols] : {std::pair{1, 1}, std::pair{2, 2},
                                   std::pair{2, 8}, std::pair{3, 5}}) {
    auto grid = pins::grid_of(rows, cols);
    const auto m =
        DistCsr<std::uint64_t>::from_coo(grid, coo, pins::noncommutative);
    EXPECT_EQ(m.nnz(), whole.nnz());
    for (int l = 0; l < grid.num_locales(); ++l) {
      const auto& b = m.block(l);
      for (Index lr = 0; lr < b.rhi - b.rlo; ++lr) {
        auto cols_got = b.csr.row_colids(lr);
        auto vals_got = b.csr.row_values(lr);
        std::size_t k = 0;
        auto cols_all = whole.row_colids(b.rlo + lr);
        auto vals_all = whole.row_values(b.rlo + lr);
        for (std::size_t j = 0; j < cols_all.size(); ++j) {
          if (cols_all[j] < b.clo || cols_all[j] >= b.chi) continue;
          ASSERT_LT(k, cols_got.size());
          EXPECT_EQ(cols_got[k], cols_all[j]);
          EXPECT_EQ(vals_got[k], vals_all[j]);
          ++k;
        }
        EXPECT_EQ(k, cols_got.size());
      }
    }
  }
}

TEST(DistCsr, FromCooPinnedBlocks) {
  struct Shape {
    int rows, cols;
    std::uint64_t rmat_last, rmat_sum, dup_last, dup_fold;
  };
  const Shape shapes[] = {
      {1, 1, 0x84ed0a4823a65f33ull, 0xdd6176fde0991d33ull,
       0x46ce5517d0d2d22full, 0xfc543682a2461f52ull},
      {2, 2, 0x61fe8818b622a798ull, 0x71b7b6e2c9848a50ull,
       0x80d2574b99f3eb6eull, 0x1deed7858a579f7bull},
      {2, 8, 0x6d2d9e5e1d7ad027ull, 0x3cde948fcf2b77efull,
       0x9b700d306c668243ull, 0x843e29a6b14b2a46ull},
      {32, 32, 0x4415d689d1d73e6eull, 0xd9c18f1d031ed996ull,
       0xb1ad709fe11cef82ull, 0xaaa41dda760ca76bull},
  };
  const auto rmat = pins::rmat_input();
  const auto dup = pins::dup_heavy_input();
  for (const auto& s : shapes) {
    auto grid = pins::grid_of(s.rows, s.cols);
    const auto rmat_last = DistCsr<std::int64_t>::from_coo(grid, rmat);
    const auto rmat_sum = DistCsr<std::int64_t>::from_coo(
        grid, rmat, std::plus<std::int64_t>());
    const auto dup_last = DistCsr<std::uint64_t>::from_coo(grid, dup);
    const auto dup_fold =
        DistCsr<std::uint64_t>::from_coo(grid, dup, pins::noncommutative);
    EXPECT_EQ(blocks_hash(rmat_last), s.rmat_last)
        << s.rows << "x" << s.cols << " rmat keep-last: 0x" << std::hex
        << blocks_hash(rmat_last);
    EXPECT_EQ(blocks_hash(rmat_sum), s.rmat_sum)
        << s.rows << "x" << s.cols << " rmat sum: 0x" << std::hex
        << blocks_hash(rmat_sum);
    EXPECT_EQ(blocks_hash(dup_last), s.dup_last)
        << s.rows << "x" << s.cols << " dup keep-last: 0x" << std::hex
        << blocks_hash(dup_last);
    EXPECT_EQ(blocks_hash(dup_fold), s.dup_fold)
        << s.rows << "x" << s.cols << " dup fold: 0x" << std::hex
        << blocks_hash(dup_fold);
    EXPECT_TRUE(dup_fold.check_invariants());
  }
}

}  // namespace
}  // namespace pgb
