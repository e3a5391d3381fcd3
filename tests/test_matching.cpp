// Tests for greedy maximal bipartite matching: validity (each side
// matched at most once, only along edges) and maximality (no edge left
// between two unmatched vertices).
#include <gtest/gtest.h>

#include "algo/bipartite_matching.hpp"
#include "gen/erdos_renyi.hpp"

namespace pgb {
namespace {

template <typename T>
void check_matching(const Csr<T>& local, const MatchingResult& res) {
  // Validity: matches are symmetric and along edges.
  Index count = 0;
  for (Index r = 0; r < local.nrows(); ++r) {
    const Index c = res.match_row[static_cast<std::size_t>(r)];
    if (c < 0) continue;
    ++count;
    EXPECT_EQ(res.match_col[static_cast<std::size_t>(c)], r);
    EXPECT_NE(local.find(r, c), nullptr)
        << "match " << r << "-" << c << " is not an edge";
  }
  EXPECT_EQ(count, res.size);
  // Maximality: every edge has a matched endpoint.
  for (Index r = 0; r < local.nrows(); ++r) {
    if (res.match_row[static_cast<std::size_t>(r)] >= 0) continue;
    for (Index c : local.row_colids(r)) {
      EXPECT_GE(res.match_col[static_cast<std::size_t>(c)], 0)
          << "edge " << r << "-" << c << " joins two unmatched vertices";
    }
  }
}

class MatchingGrids : public ::testing::TestWithParam<int> {};

TEST_P(MatchingGrids, ValidAndMaximalOnRandomBipartite) {
  auto grid = LocaleGrid::square(GetParam(), 2);
  auto a = erdos_renyi_dist<std::int64_t>(grid, 400, 3.0, 17);
  auto res = bipartite_matching(a);
  EXPECT_GT(res.size, 0);
  check_matching(a.to_local(), res);
}

TEST_P(MatchingGrids, CommModesAgreeOnValidity) {
  auto grid = LocaleGrid::square(GetParam(), 2);
  auto a = erdos_renyi_dist<std::int64_t>(grid, 300, 4.0, 23);
  SpmspvOptions bulk;
  bulk.comm = CommMode::kBulk;
  auto res = bipartite_matching(a, bulk);
  check_matching(a.to_local(), res);
}

INSTANTIATE_TEST_SUITE_P(Grids, MatchingGrids, ::testing::Values(1, 4, 9));

TEST(Matching, PerfectMatchingOnDiagonal) {
  // Row r connects only to column r: the greedy matching is perfect in
  // one round.
  const Index n = 50;
  auto grid = LocaleGrid::square(4, 1);
  Coo<std::int64_t> coo(n, n);
  for (Index r = 0; r < n; ++r) coo.add(r, r, 1);
  auto a = DistCsr<std::int64_t>::from_coo(grid, coo);
  auto res = bipartite_matching(a);
  EXPECT_EQ(res.size, n);
  EXPECT_EQ(res.rounds, 1);
  check_matching(a.to_local(), res);
}

TEST(Matching, NearPerfectOnDiagonalBand) {
  // Row r connects to columns {r, r+1}. A perfect matching exists, but
  // min-id greedy shifts everything down and strands the last row —
  // a maximal (not maximum) matching of size n-1. (Closing that gap is
  // what the augmenting-path phase of the paper's reference [12] does.)
  const Index n = 50;
  auto grid = LocaleGrid::square(4, 1);
  Coo<std::int64_t> coo(n, n);
  for (Index r = 0; r < n; ++r) {
    coo.add(r, r, 1);
    if (r + 1 < n) coo.add(r, r + 1, 1);
  }
  auto a = DistCsr<std::int64_t>::from_coo(grid, coo);
  auto res = bipartite_matching(a);
  EXPECT_EQ(res.size, n - 1);
  check_matching(a.to_local(), res);
}

TEST(Matching, StarContentionMatchesExactlyOne) {
  // All rows propose to the single column 0.
  const Index n = 20;
  auto grid = LocaleGrid::square(2, 1);
  Coo<std::int64_t> coo(n, n);
  for (Index r = 0; r < n; ++r) coo.add(r, 0, 1);
  auto a = DistCsr<std::int64_t>::from_coo(grid, coo);
  auto res = bipartite_matching(a);
  EXPECT_EQ(res.size, 1);
  EXPECT_EQ(res.match_col[0], 0);  // min proposer wins
  check_matching(a.to_local(), res);
}

TEST(Matching, EmptyGraph) {
  auto grid = LocaleGrid::square(2, 1);
  DistCsr<std::int64_t> a(grid, 10, 10);
  auto res = bipartite_matching(a);
  EXPECT_EQ(res.size, 0);
  EXPECT_EQ(res.rounds, 1);
}

}  // namespace
}  // namespace pgb
