// Tests for the workload generators: determinism, statistical shape, and
// local/distributed structural equality.
#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "gen/erdos_renyi.hpp"
#include "gen/random_vec.hpp"
#include "gen/rmat.hpp"

namespace pgb {
namespace {

TEST(SampleIndices, ExactCountSortedDistinct) {
  auto idx = sample_sorted_indices(1000, 100, 42);
  ASSERT_EQ(idx.size(), 100u);
  for (std::size_t i = 1; i < idx.size(); ++i) {
    EXPECT_LT(idx[i - 1], idx[i]);
  }
  EXPECT_GE(idx.front(), 0);
  EXPECT_LT(idx.back(), 1000);
}

TEST(SampleIndices, Deterministic) {
  EXPECT_EQ(sample_sorted_indices(5000, 500, 7),
            sample_sorted_indices(5000, 500, 7));
  EXPECT_NE(sample_sorted_indices(5000, 500, 7),
            sample_sorted_indices(5000, 500, 8));
}

TEST(SampleIndices, EdgeCases) {
  EXPECT_TRUE(sample_sorted_indices(10, 0, 1).empty());
  auto all = sample_sorted_indices(10, 10, 1);
  ASSERT_EQ(all.size(), 10u);
  EXPECT_EQ(all[9], 9);
  EXPECT_THROW(sample_sorted_indices(10, 11, 1), InvalidArgument);
}

TEST(SampleIndices, RoughlyUniform) {
  // Mean of 2000 samples from [0, 10000) should be near 5000.
  auto idx = sample_sorted_indices(10000, 2000, 99);
  double mean = 0;
  for (auto i : idx) mean += static_cast<double>(i);
  mean /= static_cast<double>(idx.size());
  EXPECT_NEAR(mean, 5000.0, 200.0);
}

TEST(RandomVec, ValuesDeterministic) {
  auto a = random_sparse_vec<double>(1000, 50, 3);
  auto b = random_sparse_vec<double>(1000, 50, 3);
  EXPECT_TRUE(a == b);
}

TEST(RandomBoolVec, DensityApproximatelyP) {
  auto grid = LocaleGrid::square(4, 1);
  auto y = random_dist_bool_vec(grid, 20000, 0.5, 17);
  Index trues = 0;
  for (int l = 0; l < 4; ++l) {
    for (auto v : y.local(l).raw()) trues += v;
  }
  EXPECT_NEAR(static_cast<double>(trues) / 20000.0, 0.5, 0.03);
}

TEST(ErdosRenyi, RowColumnsSortedDistinctInRange) {
  for (Index r = 0; r < 50; ++r) {
    auto cols = er_row_columns(1000, 8.0, 5, r);
    std::set<Index> s(cols.begin(), cols.end());
    EXPECT_EQ(s.size(), cols.size());
    for (std::size_t i = 1; i < cols.size(); ++i) {
      EXPECT_LT(cols[i - 1], cols[i]);
    }
    for (Index c : cols) {
      EXPECT_GE(c, 0);
      EXPECT_LT(c, 1000);
    }
  }
}

TEST(ErdosRenyi, MeanDegreeApproximatesD) {
  const Index n = 2000;
  auto m = erdos_renyi_csr<double>(n, 16.0, 21);
  const double mean =
      static_cast<double>(m.nnz()) / static_cast<double>(n);
  EXPECT_NEAR(mean, 16.0, 0.6);
  EXPECT_TRUE(m.check_invariants());
}

TEST(ErdosRenyi, DistStructureEqualsLocalAcrossGrids) {
  auto local = erdos_renyi_csr<int>(300, 4.0, 9);
  for (int nloc : {2, 4, 6}) {
    auto grid = LocaleGrid::square(nloc, 1);
    auto dist = erdos_renyi_dist<int>(grid, 300, 4.0, 9);
    EXPECT_EQ(dist.nnz(), local.nnz()) << nloc << " locales";
    auto gathered = dist.to_local();
    for (Index r = 0; r < 300; ++r) {
      auto a = gathered.row_colids(r);
      auto b = local.row_colids(r);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t k = 0; k < a.size(); ++k) EXPECT_EQ(a[k], b[k]);
    }
  }
}

TEST(ErdosRenyi, RejectsDegreesTheSamplerCannotHonour) {
  auto grid = LocaleGrid::square(4, 1);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // exp(-d) leaves the normal range just past d = 708.
  for (double d : {nan, inf, -inf, -3.0, -1e-300, 708.5, 1e9}) {
    EXPECT_THROW(erdos_renyi_csr<int>(200, d, 1), InvalidArgument) << d;
    EXPECT_THROW(erdos_renyi_dist<int>(grid, 200, d, 1), InvalidArgument)
        << d;
  }
  EXPECT_EQ(erdos_renyi_csr<int>(200, 0.0, 1).nnz(), 0);
  EXPECT_EQ(erdos_renyi_dist<int>(grid, 200, 0.0, 1).nnz(), 0);
  // The largest accepted degree still fills every row of a small graph.
  EXPECT_EQ(erdos_renyi_csr<int>(50, 708.0, 1).nnz(), 50 * 50);
}

TEST(Rmat, ProducesExpectedShape) {
  RmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  auto m = rmat_csr(p);
  EXPECT_EQ(m.nrows(), 1024);
  EXPECT_TRUE(m.check_invariants());
  // Symmetric generation with dedup: nnz <= 2 * ef * n, and self-loops
  // are dropped.
  EXPECT_LE(m.nnz(), 2 * 8 * 1024);
  EXPECT_GT(m.nnz(), 1024);
  for (Index r = 0; r < m.nrows(); ++r) {
    for (Index c : m.row_colids(r)) EXPECT_NE(c, r);
  }
}

TEST(Rmat, SymmetricWhenRequested) {
  RmatParams p;
  p.scale = 8;
  p.edge_factor = 4;
  auto m = rmat_csr(p);
  for (Index r = 0; r < m.nrows(); ++r) {
    for (Index c : m.row_colids(r)) {
      EXPECT_NE(m.find(c, r), nullptr) << "missing reverse of " << r
                                       << "->" << c;
    }
  }
}

TEST(Rmat, SkewedDegreesVsErdosRenyi) {
  RmatParams p;
  p.scale = 12;
  p.edge_factor = 8;
  auto m = rmat_csr(p);
  Index dmax = 0;
  for (Index r = 0; r < m.nrows(); ++r) dmax = std::max(dmax, m.row_nnz(r));
  const double mean = static_cast<double>(m.nnz()) /
                      static_cast<double>(m.nrows());
  EXPECT_GT(static_cast<double>(dmax), 6.0 * mean);  // power-law-ish skew
}

TEST(Rmat, DistMatchesLocal) {
  RmatParams p;
  p.scale = 8;
  auto grid = LocaleGrid::square(4, 1);
  auto dist = rmat_dist(grid, p);
  auto local = rmat_csr(p);
  EXPECT_EQ(dist.nnz(), local.nnz());
  EXPECT_TRUE(dist.check_invariants());
}

}  // namespace
}  // namespace pgb
