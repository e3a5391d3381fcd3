// Tests for the transpose-free distributed mxv over CSC block mirrors,
// including how its comm sites charge peers co-hosted by a degraded remap.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/mxv_direct.hpp"
#include "core/ops.hpp"
#include "core/vxm.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/random_vec.hpp"
#include "sparse/coo.hpp"

namespace pgb {
namespace {

class MxvDirectGrids : public ::testing::TestWithParam<int> {};

TEST_P(MxvDirectGrids, MatchesTransposeBasedMxv) {
  const Index n = 500;
  auto grid = LocaleGrid::square(GetParam(), 2);
  auto a = erdos_renyi_dist<std::int64_t>(grid, n, 6.0, 3);
  auto x = random_dist_sparse_vec<std::int64_t>(grid, n, 70, 4);
  const auto sr = arithmetic_semiring<std::int64_t>();

  auto mirror = make_csc_mirror(a);
  auto direct = mxv_direct(a, mirror, x, sr);
  auto viaT = mxv(a, x, sr);
  EXPECT_TRUE(direct.check_invariants());
  EXPECT_TRUE(direct.to_local() == viaT.to_local());
}

TEST_P(MxvDirectGrids, AllCommModesAgree) {
  const Index n = 400;
  auto grid = LocaleGrid::square(GetParam(), 2);
  auto a = erdos_renyi_dist<std::int64_t>(grid, n, 5.0, 7);
  auto x = random_dist_sparse_vec<std::int64_t>(grid, n, 50, 8);
  const auto sr = min_plus_semiring<std::int64_t>();
  auto mirror = make_csc_mirror(a);

  SpmspvOptions fine, bulk;
  bulk.bulk_gather = true;
  bulk.bulk_scatter = true;
  auto y1 = mxv_direct(a, mirror, x, sr, fine);
  auto y2 = mxv_direct(a, mirror, x, sr, bulk);
  EXPECT_TRUE(y1.to_local() == y2.to_local());
}

INSTANTIATE_TEST_SUITE_P(Grids, MxvDirectGrids,
                         ::testing::Values(1, 2, 4, 6, 9, 16));

TEST(MxvDirect, MirrorMismatchThrows) {
  auto g1 = LocaleGrid::square(4, 1);
  auto g2 = LocaleGrid::square(9, 1);
  auto a4 = erdos_renyi_dist<std::int64_t>(g1, 50, 3.0, 1);
  auto a9 = erdos_renyi_dist<std::int64_t>(g2, 50, 3.0, 1);
  auto mirror9 = make_csc_mirror(a9);
  DistSparseVec<std::int64_t> x(g1, 50);
  EXPECT_THROW(
      mxv_direct(a4, mirror9, x, arithmetic_semiring<std::int64_t>()),
      InvalidArgument);
}

TEST(MxvDirectModel, AmortizedDirectBeatsTransposePerCall) {
  // Once the mirror exists, each mxv_direct call avoids the full
  // transpose; iterating algorithms win after a few calls.
  const Index n = 200000;
  auto grid = LocaleGrid::square(16, 24);
  auto a = erdos_renyi_dist<std::int64_t>(grid, n, 8.0, 3);
  auto x = random_dist_sparse_vec<std::int64_t>(grid, n, n / 50, 4);
  const auto sr = arithmetic_semiring<std::int64_t>();
  SpmspvOptions bulk;
  bulk.bulk_gather = true;
  bulk.bulk_scatter = true;

  grid.reset();
  auto mirror = make_csc_mirror(a);
  const double t_mirror = grid.time();
  grid.reset();
  mxv_direct(a, mirror, x, sr, bulk);
  const double t_direct = grid.time();

  grid.reset();
  mxv(a, x, sr, bulk);  // transposes every call
  const double t_viaT = grid.time();

  EXPECT_LT(t_direct, t_viaT);
  // The mirror pays for itself within a handful of calls.
  EXPECT_LT(t_mirror + 5 * t_direct, 5 * t_viaT);
}

// ---- co-hosted peers are charged like local ones ----------------------
//
// Both tests remap logical locale 1 of a two-locale grid onto host 0, so
// every peer of every initiator is local or co-hosted.

TEST(MxvDirectCoHosted, ScatterChargesCoHostedOwnerLikeLocal) {
  // On a 1x2 grid block c's column range is x's owner c (the gather is
  // local) and its output rows span both owners. A diagonal matrix keeps
  // each block's output at home; an anti-diagonal one sends all of it to
  // the other logical locale, which the remap made co-hosted. With the
  // owner charged like a local one, both cost exactly the same under
  // every schedule.
  constexpr Index n = 400;
  const auto sr = arithmetic_semiring<double>();
  auto run = [&](bool anti, CommMode mode) {
    auto g = LocaleGrid(GridConfig{.rows = 1, .cols = 2});
    Coo<double> coo(n, n);
    for (Index i = 0; i < n; ++i) coo.add(anti ? n - 1 - i : i, i, 1.0);
    auto a = DistCsr<double>::from_coo(g, coo);
    auto mirror = make_csc_mirror(a);
    std::vector<Index> idx(static_cast<std::size_t>(n));
    for (Index i = 0; i < n; ++i) idx[static_cast<std::size_t>(i)] = i;
    auto x = DistSparseVec<double>::from_sorted(
        g, n, idx, std::vector<double>(static_cast<std::size_t>(n), 2.0));
    g.reset();
    g.remap_locale(1, 0);
    SpmspvOptions opt;
    opt.comm = mode;
    auto y = mxv_direct(a, mirror, x, sr, opt);
    EXPECT_EQ(y.nnz(), n);
    return std::make_pair(
        g.metrics().counter("runtime.parallel_regions").value, g.time());
  };
  for (const CommMode mode : {CommMode::kFine, CommMode::kBulk,
                              CommMode::kAggregated, CommMode::kAuto}) {
    const auto home = run(false, mode);
    const auto away = run(true, mode);
    EXPECT_EQ(away.first, home.first) << to_string(mode) << ": regions";
    EXPECT_EQ(away.second, home.second) << to_string(mode) << ": time";
  }
}

TEST(MxvDirectCoHosted, GatherNeverReplicatesCoHostedSource) {
  // On a 2x1 grid every block reads both x owners, one of them co-hosted
  // after the remap. Repeated identical auto waves bind replication, but
  // a co-hosted source is local memory: nothing ships and no replica is
  // installed.
  const Index n = 2400;
  const auto sr = arithmetic_semiring<double>();
  auto g = LocaleGrid(GridConfig{.rows = 2, .cols = 1});
  auto a = erdos_renyi_dist<double>(g, n, 6.0, 11);
  auto x = random_dist_sparse_vec<double>(g, n, 500, 12);
  auto mirror = make_csc_mirror(a);
  g.reset();
  g.remap_locale(1, 0);
  SpmspvOptions opt;
  opt.comm = CommMode::kAuto;
  const auto ref = mxv_direct(a, mirror, x, sr).to_local();
  for (int pass = 0; pass < 8; ++pass) {
    EXPECT_TRUE(mxv_direct(a, mirror, x, sr, opt).to_local() == ref);
  }
  const auto& mx = g.metrics();
  const obs::Counter* repl = mx.find_counter(
      "inspector.site.decisions",
      {{"site", "mxv.gather"}, {"strategy", "replicate"}});
  ASSERT_NE(repl, nullptr);
  EXPECT_GT(repl->value, 0);
  const obs::Counter* shipped = mx.find_counter("inspector.replicated_bytes");
  EXPECT_EQ(shipped == nullptr ? 0 : shipped->value, 0);
}

}  // namespace
}  // namespace pgb
