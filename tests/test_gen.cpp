// Tests for the workload generators: determinism, statistical shape, and
// local/distributed structural equality.
#include <gtest/gtest.h>

#include <algorithm>
#include <ios>
#include <limits>
#include <set>

#include "construction_pins.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/random_vec.hpp"
#include "gen/rmat.hpp"
#include "util/fnv.hpp"

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
    EXPECT_TRUE(dist.check_invariants()) << nloc << " locales";
    const auto gathered = dist.to_local();
    EXPECT_TRUE(std::ranges::equal(gathered.rowptr(), local.rowptr()))
        << nloc << " locales";
    EXPECT_TRUE(std::ranges::equal(gathered.colids(), local.colids()))
        << nloc << " locales";
    EXPECT_TRUE(std::ranges::equal(gathered.values(), local.values()))
        << nloc << " locales";
  }
}

// FNV-1a of every block (bounds, shape, rowptr, colids, values) of
// erdos_renyi_dist for n = 1003, three degrees and two seeds each, on
// grids with one processor row or one block, uneven and non-square
// ones, and blocks of about 31 x 31; and of erdos_renyi_csr's bytes.
// Captured from the generator that redrew every row in each column
// block; a change to how rows are drawn or split into blocks must leave
// every literal as it is, at any thread count. A mismatch prints the
// new value.
TEST(ErdosRenyi, PinnedBlocks) {
  constexpr Index kN = 1003;
  const double degrees[3] = {0.0, 3.5, 16.0};
  const std::uint64_t seeds[2] = {9, 2024};
  struct Shape {
    int rows, cols;
    std::uint64_t hash[3];  // per degree, over both seeds
  };
  const Shape shapes[] = {
      {1, 1, {0xec5aa0c38c01e575ull, 0xe276f0030a6d7958ull,
             0xa61f632222bbdddeull}},
      {1, 3, {0x7777c7290e87f125ull, 0xfc8cc26fd35ee549ull,
             0x74f45a4e404854feull}},
      {2, 2, {0x6c4ed28722098bdull, 0xa4a1bc4b50f4c45cull,
             0x2b2f67836f7f7fd4ull}},
      {2, 8, {0x2e160d5e236f9435ull, 0x8f5a8db06f27392bull,
             0xc4a1fe5ed18246cull}},
      {3, 5, {0xc06464b09c8aa1bdull, 0x6d8fb36036f42d1cull,
             0xd2a002a53c121483ull}},
      {8, 8, {0xa7a93344bb0406fdull, 0xf9004dab28bb609eull,
             0x932b573b03a7314dull}},
      {32, 32, {0x4d17886e667a751dull, 0x22fe22cf0a85a36dull,
               0x5322d1eed92e4fd6ull}},
  };
  for (const auto& s : shapes) {
    auto grid = pins::grid_of(s.rows, s.cols);
    for (int k = 0; k < 3; ++k) {
      std::uint64_t h = kFnvOffsetBasis;
      for (const std::uint64_t seed : seeds) {
        const auto m = erdos_renyi_dist<double>(grid, kN, degrees[k], seed);
        h = pins::blocks_hash(h, m);
      }
      EXPECT_EQ(h, s.hash[k]) << s.rows << "x" << s.cols
                              << " d=" << degrees[k] << ": 0x" << std::hex
                              << h;
    }
  }
  const std::uint64_t local[3] = {0xec67bc2c88279d9dull, 0xbf2849eb16f8c58ull,
                                  0x5a3fc4a683294feeull};
  for (int k = 0; k < 3; ++k) {
    std::uint64_t h = kFnvOffsetBasis;
    for (const std::uint64_t seed : seeds) {
      h = pins::csr_hash(h, erdos_renyi_csr<double>(kN, degrees[k], seed));
    }
    EXPECT_EQ(h, local[k]) << "csr d=" << degrees[k] << ": 0x" << std::hex
                           << h;
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

// FNV-1a of rmat_coo's shape and triples, in order, over scales,
// edge factors, seeds, symmetry and corner probabilities, including
// degenerate ones (scale 0, no edges, every edge a self-loop, empty
// corners). A change to how the generator draws or decodes must leave
// every literal as it is; a mismatch prints the new value.
TEST(Rmat, PinnedTriples) {
  struct Case {
    int scale;
    Index edge_factor;
    std::uint64_t seed;
    bool symmetric;
    double a, b, c;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {0, 5, 1, true, 0.57, 0.19, 0.19, 0xaa28ac6355e750e5ull},
      {1, 4, 1, true, 0.57, 0.19, 0.19, 0x8659f32c083cfaa3ull},
      {5, 3, 9, false, 0.57, 0.19, 0.19, 0xcff1410b614754b1ull},
      {8, 16, 1, true, 0.57, 0.19, 0.19, 0x405ac7ff9ed3bd5cull},
      {10, 8, 77, true, 0.45, 0.15, 0.15, 0xf8b7a2f48fd3f60full},
      {12, 5, 123, false, 0.25, 0.25, 0.25, 0x18aa3a526a596fdeull},
      {7, 2, 3, true, 1.0, 0.0, 0.0, 0x54b1c1bf3fbd7405ull},
      {9, 4, 4, true, 0.5, 0.0, 0.5, 0x7d0ef6bb3a72e316ull},
      {11, 6, 6, false, 0.6, 0.2, 0.2, 0x5a40871527eab62eull},
      {6, 0, 8, true, 0.57, 0.19, 0.19, 0xeb4200cb1ffccb85ull},
      {13, 3, 5, false, 0.57, 0.19, 0.19, 0x53097f01901aaa51ull},
      {14, 16, 2024, true, 0.57, 0.19, 0.19, 0xa0516f8c4beb15bbull},
  };
  for (const auto& k : cases) {
    RmatParams p;
    p.scale = k.scale;
    p.edge_factor = k.edge_factor;
    p.seed = k.seed;
    p.symmetric = k.symmetric;
    p.a = k.a;
    p.b = k.b;
    p.c = k.c;
    const auto coo = rmat_coo(p);
    const Index shape[3] = {coo.nrows(), coo.ncols(), coo.nnz()};
    std::uint64_t h = fnv1a_extend(kFnvOffsetBasis, shape, sizeof shape);
    for (const auto& t : coo.triples()) {
      const std::int64_t w[3] = {t.row, t.col, t.val};
      h = fnv1a_extend(h, w, sizeof w);
    }
    EXPECT_EQ(h, k.hash) << "scale=" << k.scale << " ef=" << k.edge_factor
                         << " seed=" << k.seed << ": 0x" << std::hex << h;
  }
}

TEST(Rmat, DistMatchesLocal) {
  RmatParams p;
  p.scale = 8;
  auto grid = LocaleGrid::square(4, 1);
  auto dist = rmat_dist(grid, p);
  auto local = rmat_csr(p);
  EXPECT_EQ(dist.nnz(), local.nnz());
  EXPECT_TRUE(dist.check_invariants());
  // Every value is 1, so from_coo's keep-last equals rmat_csr's
  // combine-to-1, entry for entry.
  const auto gathered = dist.to_local();
  EXPECT_TRUE(std::ranges::equal(gathered.rowptr(), local.rowptr()));
  EXPECT_TRUE(std::ranges::equal(gathered.colids(), local.colids()));
  EXPECT_TRUE(std::ranges::equal(gathered.values(), local.values()));
}

// Parameters the generator cannot honour are errors, before anything is
// allocated: sizes that are negative or overflow 64 bits (n = 2^scale,
// m = edge_factor * n, 2m, and the m * scale draws of the stream), and
// corner probabilities that are NaN, negative or sum past 1 (the
// branchless decode needs b, c >= 0).
TEST(Rmat, RejectsParametersTheGeneratorCannotHonour) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Bad {
    int scale;
    Index edge_factor;
    double a, b, c;
  };
  const Bad bad[] = {
      {-1, 16, 0.57, 0.19, 0.19},
      {63, 16, 0.57, 0.19, 0.19},
      {64, 16, 0.57, 0.19, 0.19},
      {std::numeric_limits<int>::min(), 16, 0.57, 0.19, 0.19},
      {4, -1, 0.57, 0.19, 0.19},
      {62, 1, 0.57, 0.19, 0.19},        // 2m = 2^63
      {40, Index{1} << 22, 0.57, 0.19, 0.19},  // 2m = 2^63
      {61, 1, 0.57, 0.19, 0.19},        // m * scale = 61 * 2^61
      {4, 16, nan, 0.19, 0.19},
      {4, 16, 0.57, nan, 0.19},
      {4, 16, 0.57, 0.19, nan},
      {4, 16, -0.1, 0.19, 0.19},
      {4, 16, 0.57, -1e-300, 0.19},
      {4, 16, 0.57, 0.19, -0.5},
      {4, 16, 0.5, 0.3, 0.3},
      {4, 16, inf, 0.0, 0.0},
  };
  auto grid = LocaleGrid::square(4, 1);
  for (const auto& k : bad) {
    RmatParams p;
    p.scale = k.scale;
    p.edge_factor = k.edge_factor;
    p.a = k.a;
    p.b = k.b;
    p.c = k.c;
    EXPECT_THROW(rmat_coo(p), InvalidArgument) << k.scale;
    EXPECT_THROW(rmat_csr(p), InvalidArgument) << k.scale;
    EXPECT_THROW(rmat_dist(grid, p), InvalidArgument) << k.scale;
  }
  // The edges of the accepted range.
  RmatParams ok;
  ok.scale = 0;
  EXPECT_EQ(rmat_coo(ok).nnz(), 0);  // one vertex: every edge a self-loop
  ok.scale = 5;
  ok.edge_factor = 0;
  EXPECT_EQ(rmat_coo(ok).nnz(), 0);
  ok.edge_factor = 2;
  ok.a = 1.0;
  ok.b = 0.0;
  ok.c = 0.0;
  EXPECT_EQ(rmat_coo(ok).nnz(), 0);  // every draw lands on (0, 0)
}

}  // namespace
}  // namespace pgb
