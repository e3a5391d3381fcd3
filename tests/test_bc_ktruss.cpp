// Tests for betweenness centrality (vs a sequential Brandes reference)
// and k-truss (vs known decompositions).
#include <gtest/gtest.h>

#include <queue>

#include "algo/betweenness.hpp"
#include "algo/ktruss.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/rmat.hpp"

namespace pgb {
namespace {

/// Sequential Brandes reference for unweighted directed graphs.
std::vector<double> brandes_reference(const Csr<std::int64_t>& a,
                                      const std::vector<Index>& sources) {
  const Index n = a.nrows();
  std::vector<double> bc(static_cast<std::size_t>(n), 0.0);
  for (Index s : sources) {
    std::vector<std::vector<Index>> pred(static_cast<std::size_t>(n));
    std::vector<double> sigma(static_cast<std::size_t>(n), 0.0);
    std::vector<Index> dist(static_cast<std::size_t>(n), -1);
    std::vector<Index> order;
    std::queue<Index> q;
    sigma[static_cast<std::size_t>(s)] = 1.0;
    dist[static_cast<std::size_t>(s)] = 0;
    q.push(s);
    while (!q.empty()) {
      const Index v = q.front();
      q.pop();
      order.push_back(v);
      for (Index w : a.row_colids(v)) {
        if (dist[static_cast<std::size_t>(w)] < 0) {
          dist[static_cast<std::size_t>(w)] =
              dist[static_cast<std::size_t>(v)] + 1;
          q.push(w);
        }
        if (dist[static_cast<std::size_t>(w)] ==
            dist[static_cast<std::size_t>(v)] + 1) {
          sigma[static_cast<std::size_t>(w)] +=
              sigma[static_cast<std::size_t>(v)];
          pred[static_cast<std::size_t>(w)].push_back(v);
        }
      }
    }
    std::vector<double> delta(static_cast<std::size_t>(n), 0.0);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const Index w = *it;
      for (Index v : pred[static_cast<std::size_t>(w)]) {
        delta[static_cast<std::size_t>(v)] +=
            sigma[static_cast<std::size_t>(v)] /
            sigma[static_cast<std::size_t>(w)] *
            (1.0 + delta[static_cast<std::size_t>(w)]);
      }
      if (w != s) bc[static_cast<std::size_t>(w)] += delta[static_cast<std::size_t>(w)];
    }
  }
  return bc;
}

class BcGrids : public ::testing::TestWithParam<int> {};

TEST_P(BcGrids, MatchesBrandesReference) {
  const Index n = 150;
  auto grid = LocaleGrid::square(GetParam(), 2);
  auto a = erdos_renyi_dist<std::int64_t>(grid, n, 4.0, 5);
  auto local = a.to_local();
  std::vector<Index> sources{0, 3, 77};

  auto got = betweenness(a, sources);
  auto ref = brandes_reference(local, sources);
  ASSERT_EQ(got.size(), ref.size());
  for (Index v = 0; v < n; ++v) {
    EXPECT_NEAR(got[static_cast<std::size_t>(v)],
                ref[static_cast<std::size_t>(v)], 1e-9)
        << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, BcGrids, ::testing::Values(1, 4, 9));

TEST(Betweenness, PathGraphInteriorDominates) {
  // 0-1-2-3-4 undirected path, exact BC: interior vertex 2 is on the
  // most shortest paths.
  const Index n = 5;
  auto grid = LocaleGrid::square(2, 1);
  Coo<std::int64_t> coo(n, n);
  for (Index i = 0; i + 1 < n; ++i) {
    coo.add(i, i + 1, 1);
    coo.add(i + 1, i, 1);
  }
  auto a = DistCsr<std::int64_t>::from_coo(grid, coo);
  std::vector<Index> all{0, 1, 2, 3, 4};
  auto bc = betweenness(a, all);
  // Known values for P5: [0, 3, 4, 3, 0] x 2 directions.
  EXPECT_NEAR(bc[0], 0.0, 1e-12);
  EXPECT_NEAR(bc[1], 6.0, 1e-9);
  EXPECT_NEAR(bc[2], 8.0, 1e-9);
  EXPECT_NEAR(bc[3], 6.0, 1e-9);
  EXPECT_NEAR(bc[4], 0.0, 1e-12);
}

TEST(Betweenness, StarCenterTakesAll) {
  const Index n = 8;
  auto grid = LocaleGrid::square(4, 1);
  Coo<std::int64_t> coo(n, n);
  for (Index v = 1; v < n; ++v) {
    coo.add(0, v, 1);
    coo.add(v, 0, 1);
  }
  auto a = DistCsr<std::int64_t>::from_coo(grid, coo);
  std::vector<Index> all(static_cast<std::size_t>(n));
  for (Index v = 0; v < n; ++v) all[static_cast<std::size_t>(v)] = v;
  auto bc = betweenness(a, all);
  // Every pair of leaves routes through the center: (n-1)(n-2) paths.
  EXPECT_NEAR(bc[0], static_cast<double>((n - 1) * (n - 2)), 1e-9);
  for (Index v = 1; v < n; ++v) EXPECT_NEAR(bc[static_cast<std::size_t>(v)], 0.0, 1e-12);
}

TEST(Ktruss, K5IsAFiveTruss) {
  const Index n = 5;
  Coo<std::int64_t> coo(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) {
      if (i != j) coo.add(i, j, 1);
    }
  }
  auto a = coo.to_csr();
  auto grid = LocaleGrid::single(2);
  LocaleCtx ctx(grid, 0);
  // Every edge of K5 sits in 3 triangles: survives k=5, dies at k=6.
  EXPECT_EQ(ktruss(ctx, a, 5).edges, 20);
  EXPECT_EQ(ktruss(ctx, a, 6).edges, 0);
}

TEST(Ktruss, TriangleFreeGraphHasNoThreeTruss) {
  const Index n = 12;
  Coo<std::int64_t> coo(n, n);
  for (Index i = 0; i + 1 < n; ++i) {  // a path: no triangles
    coo.add(i, i + 1, 1);
    coo.add(i + 1, i, 1);
  }
  auto grid = LocaleGrid::single(1);
  LocaleCtx ctx(grid, 0);
  EXPECT_EQ(ktruss(ctx, coo.to_csr(), 3).edges, 0);
}

TEST(Ktruss, PendantTriangleDecomposition) {
  // K4 with a pendant triangle sharing one vertex: the K4 is a 4-truss;
  // the pendant triangle survives only k=3.
  Coo<std::int64_t> coo(6, 6);
  auto edge = [&](Index u, Index v) {
    coo.add(u, v, 1);
    coo.add(v, u, 1);
  };
  for (Index i = 0; i < 4; ++i) {
    for (Index j = i + 1; j < 4; ++j) edge(i, j);
  }
  edge(3, 4);
  edge(4, 5);
  edge(3, 5);
  auto a = coo.to_csr();
  auto grid = LocaleGrid::single(1);
  LocaleCtx ctx(grid, 0);
  auto t3 = ktruss(ctx, a, 3);
  EXPECT_EQ(t3.edges, a.nnz());  // everything is in some triangle
  auto t4 = ktruss(ctx, a, 4);
  EXPECT_EQ(t4.edges, 12);  // only the K4 survives
  for (Index r = 0; r < 4; ++r) {
    for (Index c = 0; c < 4; ++c) {
      if (r != c) {
        EXPECT_NE(t4.truss.find(r, c), nullptr);
      }
    }
  }
  EXPECT_EQ(t4.truss.find(4, 5), nullptr);
}

TEST(Ktruss, MonotoneInK) {
  RmatParams p;
  p.scale = 8;
  p.edge_factor = 6;
  auto a = rmat_csr(p);
  auto grid = LocaleGrid::single(4);
  LocaleCtx ctx(grid, 0);
  Index prev = a.nnz() + 1;
  for (int k = 3; k <= 7; ++k) {
    const Index edges = ktruss(ctx, a, k).edges;
    EXPECT_LE(edges, prev) << "k=" << k;
    prev = edges;
  }
}

}  // namespace
}  // namespace pgb
