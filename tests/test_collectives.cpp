// Tests for the modeled collectives (broadcast / allgather /
// reduce-scatter) and the collective communication mode of the
// distributed SpMSpV.
#include <gtest/gtest.h>

#include "core/ops.hpp"
#include "core/spmspv.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/random_vec.hpp"
#include "runtime/collectives.hpp"

namespace pgb {
namespace {

TEST(Collectives, RowAndColMembers) {
  auto g = LocaleGrid::square(8, 1);  // 2x4
  EXPECT_EQ(row_members(g, 0), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(row_members(g, 1), (std::vector<int>{4, 5, 6, 7}));
  EXPECT_EQ(col_members(g, 2), (std::vector<int>{2, 6}));
  EXPECT_THROW(row_members(g, 2), InvalidArgument);
  EXPECT_THROW(col_members(g, 4), InvalidArgument);
}

TEST(Collectives, BroadcastSynchronizesMembers) {
  auto g = LocaleGrid::square(16, 1);
  auto members = row_members(g, 0);
  g.clock(members[1]).advance(1e-3);  // a straggler
  broadcast(g, members, 0, 1 << 20, CollectiveAlgo::kTree);
  // All members end at the same time, at or after the straggler.
  const double t = g.clock(members[0]).now();
  EXPECT_GE(t, 1e-3);
  for (int m : members) EXPECT_DOUBLE_EQ(g.clock(m).now(), t);
  // Non-members untouched.
  EXPECT_DOUBLE_EQ(g.clock(15).now(), 0.0);
}

TEST(Collectives, TreeBeatsSerialSends) {
  for (int nloc : {4, 16, 64}) {
    auto g1 = LocaleGrid::square(nloc, 1);
    auto g2 = LocaleGrid::square(nloc, 1);
    std::vector<int> all1(static_cast<std::size_t>(nloc));
    for (int i = 0; i < nloc; ++i) all1[static_cast<std::size_t>(i)] = i;
    auto all2 = all1;

    broadcast(g1, all1, 0, 1 << 20, CollectiveAlgo::kSerialSends);
    broadcast(g2, all2, 0, 1 << 20, CollectiveAlgo::kTree);
    EXPECT_LT(g2.time(), g1.time()) << nloc << " members (broadcast)";

    g1.reset();
    g2.reset();
    allgather(g1, all1, 1 << 16, CollectiveAlgo::kSerialSends);
    allgather(g2, all2, 1 << 16, CollectiveAlgo::kTree);
    EXPECT_LT(g2.time(), g1.time()) << nloc << " members (allgather)";

    g1.reset();
    g2.reset();
    reduce_scatter(g1, all1, 1 << 20, CollectiveAlgo::kSerialSends);
    reduce_scatter(g2, all2, 1 << 20, CollectiveAlgo::kTree);
    EXPECT_LT(g2.time(), g1.time()) << nloc << " members (reduce_scatter)";
  }
}

TEST(Collectives, SingletonGroupIsFree) {
  auto g = LocaleGrid::single(1);
  broadcast(g, {0}, 0, 1 << 20, CollectiveAlgo::kTree);
  allgather(g, {0}, 1 << 20, CollectiveAlgo::kTree);
  reduce_scatter(g, {0}, 1 << 20, CollectiveAlgo::kTree);
  EXPECT_DOUBLE_EQ(g.time(), 0.0);
}

TEST(Collectives, BroadcastScalesLogarithmically) {
  auto run = [](int nloc) {
    auto g = LocaleGrid::square(nloc, 1);
    std::vector<int> all(static_cast<std::size_t>(nloc));
    for (int i = 0; i < nloc; ++i) all[static_cast<std::size_t>(i)] = i;
    broadcast(g, all, 0, 1 << 22, CollectiveAlgo::kTree);
    return g.time();
  };
  // 64 members: 6 rounds; 4 members: 2 rounds.
  EXPECT_NEAR(run(64) / run(4), 3.0, 0.2);
}

class CollectiveSpmspv : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSpmspv, SameResultAsFineGrained) {
  const Index n = 500;
  auto grid = LocaleGrid::square(GetParam(), 4);
  auto a = erdos_renyi_dist<std::int64_t>(grid, n, 6.0, 11);
  auto x = random_dist_sparse_vec<std::int64_t>(grid, n, 80, 12);
  const auto sr = arithmetic_semiring<std::int64_t>();

  auto fine = spmspv_dist(a, x, sr);
  SpmspvOptions copt;
  copt.use_collectives = true;
  auto coll = spmspv_dist(a, x, sr, copt);
  auto f = fine.to_local();
  auto c = coll.to_local();
  ASSERT_EQ(f.nnz(), c.nnz());
  for (Index p = 0; p < f.nnz(); ++p) {
    EXPECT_EQ(f.index_at(p), c.index_at(p));
    EXPECT_EQ(f.value_at(p), c.value_at(p));
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, CollectiveSpmspv,
                         ::testing::Values(1, 4, 6, 9, 16));

TEST(CollectiveSpmspvModel, CollectivesBeatEvenBulk) {
  const Index n = 1000000;
  auto grid = LocaleGrid::square(64, 24);
  auto a = erdos_renyi_dist<std::int64_t>(grid, n, 16.0, 5);
  auto x = random_dist_sparse_vec<std::int64_t>(grid, n, n / 50, 6);
  const auto sr = arithmetic_semiring<std::int64_t>();

  grid.reset();
  spmspv_dist(a, x, sr);
  const double fine = grid.time();

  SpmspvOptions bulk;
  bulk.comm = CommMode::kBulk;
  grid.reset();
  spmspv_dist(a, x, sr, bulk);
  const double t_bulk = grid.time();

  SpmspvOptions coll;
  coll.use_collectives = true;
  grid.reset();
  spmspv_dist(a, x, sr, coll);
  const double t_coll = grid.time();

  EXPECT_LT(t_bulk, fine);
  EXPECT_LT(t_coll, t_bulk);
}

}  // namespace
}  // namespace pgb
