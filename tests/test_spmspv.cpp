// Tests for SpMSpV: the shared-memory SPA algorithm against a dense
// reference, the distributed version against the shared-memory one across
// grid shapes and option combinations, the Fig 7-9 modeled shapes, the
// pinned per-component charges of the node-local kernels, and the
// options the fused multi-source kernel rejects.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <tuple>
#include <vector>

#include "core/ops.hpp"
#include "core/spmspv.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/random_vec.hpp"
#include "util/fnv.hpp"

namespace pgb {
namespace {

/// Dense reference for y <- x A on a semiring.
template <typename T, typename SR>
std::vector<T> dense_reference(const Csr<T>& a, const SparseVec<T>& x,
                               const SR& sr) {
  std::vector<T> y(static_cast<std::size_t>(a.ncols()), sr.zero());
  for (Index p = 0; p < x.nnz(); ++p) {
    const Index r = x.index_at(p);
    auto cols = a.row_colids(r);
    auto vals = a.row_values(r);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      auto& slot = y[static_cast<std::size_t>(cols[k])];
      slot = sr.combine(slot, sr.multiply(x.value_at(p), vals[k]));
    }
  }
  return y;
}

template <typename T>
void expect_matches_dense(const SparseVec<T>& got, const std::vector<T>& ref,
                          T zero) {
  Index nnz_ref = 0;
  for (std::size_t c = 0; c < ref.size(); ++c) {
    if (ref[c] != zero) {
      ++nnz_ref;
      const T* v = got.find(static_cast<Index>(c));
      ASSERT_NE(v, nullptr) << "missing output at " << c;
      EXPECT_EQ(*v, ref[c]) << "wrong value at " << c;
    }
  }
  EXPECT_EQ(got.nnz(), nnz_ref);
}

using ShmParam = std::tuple<Index, double, double, SortAlgo>;

class SpmspvShm : public ::testing::TestWithParam<ShmParam> {};

TEST_P(SpmspvShm, MatchesDenseReferenceArithmetic) {
  const auto [n, d, f, sort] = GetParam();
  auto a = erdos_renyi_csr<std::int64_t>(n, d, 7);
  auto x = random_sparse_vec<std::int64_t>(
      n, static_cast<Index>(f * static_cast<double>(n)), 8);
  const auto sr = arithmetic_semiring<std::int64_t>();

  auto grid = LocaleGrid::single(4);
  LocaleCtx ctx(grid, 0);
  SpmspvOptions opt;
  opt.sort = sort;
  auto y = spmspv_shm(ctx, a, 0, x, 0, n, sr, opt);
  expect_matches_dense(y, dense_reference(a, x, sr), sr.zero());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SpmspvShm,
    ::testing::Combine(::testing::Values<Index>(64, 500, 2000),
                       ::testing::Values(2.0, 8.0),
                       ::testing::Values(0.02, 0.2, 0.8),
                       ::testing::Values(SortAlgo::kMerge,
                                         SortAlgo::kRadix)));

TEST(SpmspvShmSemirings, MinPlusMatchesReference) {
  const Index n = 400;
  auto a = erdos_renyi_csr<std::int64_t>(n, 6.0, 3);
  auto x = random_sparse_vec<std::int64_t>(n, 40, 4);
  const auto sr = min_plus_semiring<std::int64_t>();
  auto grid = LocaleGrid::single(1);
  LocaleCtx ctx(grid, 0);
  auto y = spmspv_shm(ctx, a, 0, x, 0, n, sr);
  expect_matches_dense(y, dense_reference(a, x, sr), sr.zero());
}

TEST(SpmspvShm, EmptyVectorGivesEmptyResult) {
  auto a = erdos_renyi_csr<std::int64_t>(100, 4.0, 1);
  SparseVec<std::int64_t> x(100);
  auto grid = LocaleGrid::single(1);
  LocaleCtx ctx(grid, 0);
  auto y = spmspv_shm(ctx, a, 0, x, 0, 100, arithmetic_semiring<std::int64_t>());
  EXPECT_EQ(y.nnz(), 0);
}

TEST(SpmspvShm, OutputSortedAndInRange) {
  const Index n = 1000;
  auto a = erdos_renyi_csr<std::int64_t>(n, 10.0, 2);
  auto x = random_sparse_vec<std::int64_t>(n, 100, 5);
  auto grid = LocaleGrid::single(2);
  LocaleCtx ctx(grid, 0);
  auto y = spmspv_shm(ctx, a, 0, x, 0, n, arithmetic_semiring<std::int64_t>());
  EXPECT_TRUE(is_sorted_ascending(y.domain().indices()));
  for (Index p = 0; p < y.nnz(); ++p) {
    EXPECT_GE(y.index_at(p), 0);
    EXPECT_LT(y.index_at(p), n);
  }
}

TEST(SpmspvShm, RecordsPhaseTrace) {
  const Index n = 500;
  auto a = erdos_renyi_csr<std::int64_t>(n, 8.0, 2);
  auto x = random_sparse_vec<std::int64_t>(n, 50, 3);
  auto grid = LocaleGrid::single(4);
  LocaleCtx ctx(grid, 0);
  Trace trace;
  spmspv_shm(ctx, a, 0, x, 0, n, arithmetic_semiring<std::int64_t>(), {},
             &trace);
  EXPECT_GT(trace.get("spa"), 0.0);
  EXPECT_GT(trace.get("sort"), 0.0);
  EXPECT_GT(trace.get("output"), 0.0);
  EXPECT_NEAR(trace.get("spa") + trace.get("sort") + trace.get("output"),
              grid.time(), 1e-12);
}

/// (locales, a, b), run under the schedule kModes[a][b]: fine (false,
/// false), agg (true, false), auto (false, true), bulk (true, true).
/// Two booleans rather than a CommMode keep the instances' ctest names,
/// which print the tuple.
using DistParam = std::tuple<int, bool, bool>;

class SpmspvDist : public ::testing::TestWithParam<DistParam> {};

TEST_P(SpmspvDist, MatchesLocalReference) {
  const auto [nloc, a_bit, b_bit] = GetParam();
  constexpr CommMode kModes[2][2] = {{CommMode::kFine, CommMode::kAuto},
                                     {CommMode::kAggregated, CommMode::kBulk}};
  const Index n = 600;
  auto grid = LocaleGrid::square(nloc, 4);
  auto a = erdos_renyi_dist<std::int64_t>(grid, n, 6.0, 11);
  auto x = random_dist_sparse_vec<std::int64_t>(grid, n, 80, 12);
  const auto sr = arithmetic_semiring<std::int64_t>();

  SpmspvOptions opt;
  opt.comm = kModes[a_bit][b_bit];
  auto y = spmspv_dist(a, x, sr, opt);
  EXPECT_TRUE(y.check_invariants());

  auto ref = dense_reference(a.to_local(), x.to_local(), sr);
  expect_matches_dense(y.to_local(), ref, sr.zero());
}

INSTANTIATE_TEST_SUITE_P(
    GridsAndModes, SpmspvDist,
    ::testing::Combine(::testing::Values(1, 2, 4, 6, 9, 16),
                       ::testing::Bool(), ::testing::Bool()));

TEST(SpmspvDist, MinFirstSemiringParentStyle) {
  // BFS-style: x carries vertex ids, result holds min discovering row.
  const Index n = 300;
  auto grid = LocaleGrid::square(4, 2);
  auto a = erdos_renyi_dist<std::int64_t>(grid, n, 5.0, 21);
  std::vector<Index> fidx{10, 50, 200};
  std::vector<std::int64_t> fval{10, 50, 200};
  auto x = DistSparseVec<std::int64_t>::from_sorted(grid, n, fidx, fval);
  const auto sr = min_first_semiring<std::int64_t>();
  auto y = spmspv_dist(a, x, sr);
  auto ref = dense_reference(a.to_local(), x.to_local(), sr);
  expect_matches_dense(y.to_local(), ref, sr.zero());
}

TEST(SpmspvDist, RecordsDistPhases) {
  // Each phase ends at a barrier, so the phases add up to the run and the
  // local phase reads the same whatever the comm schedule (what
  // abl_bulk_vs_fine's mixed columns rely on), up to the last bits.
  const Index n = 400;
  auto grid = LocaleGrid::square(4, 2);
  auto a = erdos_renyi_dist<std::int64_t>(grid, n, 6.0, 2);
  auto x = random_dist_sparse_vec<std::int64_t>(grid, n, 60, 3);
  double local[2];
  for (int bulk : {0, 1}) {
    SpmspvOptions opt;
    opt.comm = bulk ? CommMode::kBulk : CommMode::kFine;
    grid.reset();
    spmspv_dist(a, x, arithmetic_semiring<std::int64_t>(), opt);
    const Trace& t = grid.trace();
    EXPECT_GT(t.get("gather"), 0.0);
    EXPECT_GT(t.get("local"), 0.0);
    EXPECT_GT(t.get("scatter"), 0.0);
    EXPECT_NEAR(t.get("gather") + t.get("local") + t.get("scatter"),
                grid.time(), 1e-12 * grid.time())
        << to_string(opt.comm);
    local[bulk] = t.get("local");
  }
  EXPECT_NEAR(local[0], local[1], 1e-12 * local[0]);
}

// ---- modeled-performance shapes (Figs 7-9) ----

TEST(SpmspvModel, SortDominatesSharedMemory) {
  // Fig 7: with merge sort, sorting is the most expensive component.
  const Index n = 100000;
  auto a = erdos_renyi_csr<std::int64_t>(n, 16.0, 5);
  auto x = random_sparse_vec<std::int64_t>(n, n / 50, 6);
  auto grid = LocaleGrid::single(1);
  LocaleCtx ctx(grid, 0);
  Trace trace;
  spmspv_shm(ctx, a, 0, x, 0, n, arithmetic_semiring<std::int64_t>(), {},
             &trace);
  EXPECT_GT(trace.get("sort"), trace.get("spa"));
  EXPECT_GT(trace.get("sort"), trace.get("output"));
}

TEST(SpmspvModel, SharedMemorySpeedupAroundTen) {
  // Paper: 9-11x going from 1 to 24 threads.
  const Index n = 200000;
  auto a = erdos_renyi_csr<std::int64_t>(n, 16.0, 5);
  auto x = random_sparse_vec<std::int64_t>(n, n / 50, 6);
  auto run = [&](int threads) {
    auto grid = LocaleGrid::single(threads);
    LocaleCtx ctx(grid, 0);
    spmspv_shm(ctx, a, 0, x, 0, n, arithmetic_semiring<std::int64_t>());
    return grid.time();
  };
  const double speedup = run(1) / run(24);
  EXPECT_GT(speedup, 6.0);
  EXPECT_LT(speedup, 16.0);
}

TEST(SpmspvModel, RadixSortCutsTheSortCost) {
  const Index n = 200000;
  auto a = erdos_renyi_csr<std::int64_t>(n, 16.0, 5);
  auto x = random_sparse_vec<std::int64_t>(n, n / 50, 6);
  auto run = [&](SortAlgo s) {
    auto grid = LocaleGrid::single(24);
    LocaleCtx ctx(grid, 0);
    SpmspvOptions opt;
    opt.sort = s;
    Trace t;
    spmspv_shm(ctx, a, 0, x, 0, n, arithmetic_semiring<std::int64_t>(), opt,
               &t);
    return t.get("sort");
  };
  EXPECT_GT(run(SortAlgo::kMerge), 2.0 * run(SortAlgo::kRadix));
}

TEST(SpmspvModel, GatherDominatesDistributedRuns) {
  // Figs 8-9: communication (gather) swamps the local multiply at scale.
  const Index n = 200000;
  auto grid = LocaleGrid::square(16, 24);
  auto a = erdos_renyi_dist<std::int64_t>(grid, n, 16.0, 5);
  auto x = random_dist_sparse_vec<std::int64_t>(grid, n, n / 50, 6);
  grid.reset();
  spmspv_dist(a, x, arithmetic_semiring<std::int64_t>());
  EXPECT_GT(grid.trace().get("gather"), grid.trace().get("local"));
}

TEST(SpmspvDist, CommModesProduceIdenticalResults) {
  const Index n = 600;
  auto grid = LocaleGrid::square(9, 4);
  auto a = erdos_renyi_dist<std::int64_t>(grid, n, 6.0, 11);
  auto x = random_dist_sparse_vec<std::int64_t>(grid, n, 80, 12);
  const auto sr = arithmetic_semiring<std::int64_t>();
  auto ref = dense_reference(a.to_local(), x.to_local(), sr);

  for (CommMode m :
       {CommMode::kFine, CommMode::kBulk, CommMode::kAggregated}) {
    SpmspvOptions opt;
    opt.comm = m;
    opt.agg_capacity = 64;  // small enough for mid-stream flushes
    auto y = spmspv_dist(a, x, sr, opt);
    EXPECT_TRUE(y.check_invariants());
    expect_matches_dense(y.to_local(), ref, sr.zero());
  }
}

TEST(SpmspvModel, AggregationCutsMessagesByOrderOfMagnitude) {
  // The aggregation layer's reason to exist: identical output, ~10x+
  // fewer modeled messages than the fine-grained schedule.
  const Index n = 200000;
  auto grid = LocaleGrid::square(16, 24);
  auto a = erdos_renyi_dist<std::int64_t>(grid, n, 16.0, 5);
  auto x = random_dist_sparse_vec<std::int64_t>(grid, n, n / 50, 6);
  const auto sr = arithmetic_semiring<std::int64_t>();

  SpmspvOptions opt;
  grid.reset();
  auto y_fine = spmspv_dist(a, x, sr, opt.with_comm(CommMode::kFine));
  const auto m_fine = grid.comm_stats().messages;
  grid.reset();
  auto y_agg = spmspv_dist(a, x, sr, opt.with_comm(CommMode::kAggregated));
  const auto m_agg = grid.comm_stats().messages;

  EXPECT_GE(m_fine, 10 * m_agg);
  auto lf = y_fine.to_local();
  auto la = y_agg.to_local();
  ASSERT_EQ(lf.nnz(), la.nnz());
  for (Index p = 0; p < lf.nnz(); ++p) {
    EXPECT_EQ(lf.index_at(p), la.index_at(p));
    EXPECT_EQ(lf.value_at(p), la.value_at(p));
  }
}

TEST(SpmspvModel, BulkGatherBeatsFineGrained) {
  const Index n = 200000;
  auto grid = LocaleGrid::square(16, 24);
  auto a = erdos_renyi_dist<std::int64_t>(grid, n, 16.0, 5);
  auto x = random_dist_sparse_vec<std::int64_t>(grid, n, n / 50, 6);

  grid.reset();
  SpmspvOptions fine;
  spmspv_dist(a, x, arithmetic_semiring<std::int64_t>(), fine);
  const double t_fine = grid.trace().get("gather");

  grid.reset();
  SpmspvOptions bulk;
  bulk.comm = CommMode::kBulk;
  spmspv_dist(a, x, arithmetic_semiring<std::int64_t>(), bulk);
  const double t_bulk = grid.trace().get("gather");
  EXPECT_GT(t_fine, 10.0 * t_bulk);
}

// ---- pinned charges of the node-local kernels ---------------------------
//
// The modeled charge of each step follows the options (opt.algo, and
// opt.sort for the SPA kernels) whatever route the host takes to the
// sorted output. Each case pins the bits of the Trace components, of
// grid.time() and an FNV-1a hash of the output on a block whose index
// ranges start away from zero.

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

std::uint64_t output_hash(const SparseVec<double>& v) {
  std::uint64_t h = kFnvOffsetBasis;
  auto word = [&](std::uint64_t w) { h = fnv1a_extend(h, &w, sizeof w); };
  word(static_cast<std::uint64_t>(v.capacity()));
  word(static_cast<std::uint64_t>(v.nnz()));
  for (Index p = 0; p < v.nnz(); ++p) {
    word(static_cast<std::uint64_t>(v.index_at(p)));
    word(bits(v.value_at(p)));
  }
  return h;
}

/// The bits of one node-local run's charges and output.
struct LocalCharge {
  std::uint64_t spa, sort, output, time, out;
  bool operator==(const LocalCharge&) const = default;
};

/// Runs `kernel(ctx, trace)` on a fresh 24-thread locale.
template <typename Kernel>
LocalCharge local_charge(Kernel&& kernel) {
  auto grid = LocaleGrid::single(24);
  LocaleCtx ctx(grid, 0);
  Trace trace;
  const SparseVec<double> y = kernel(ctx, &trace);
  return {bits(trace.get("spa")), bits(trace.get("sort")),
          bits(trace.get("output")), bits(grid.time()), output_hash(y)};
}

void expect_charge(const char* name, const LocalCharge& got,
                   const LocalCharge& want) {
  if (got == want) return;
  ADD_FAILURE() << name << ": charges or output moved";
  std::printf("      {0x%016llxull, 0x%016llxull, 0x%016llxull,\n"
              "       0x%016llxull, 0x%016llxull},  // %s\n",
              static_cast<unsigned long long>(got.spa),
              static_cast<unsigned long long>(got.sort),
              static_cast<unsigned long long>(got.output),
              static_cast<unsigned long long>(got.time),
              static_cast<unsigned long long>(got.out), name);
}

/// nnz random entries over the global index range [lo, hi).
SparseVec<double> block_vec(Index lo, Index hi, Index nnz,
                            std::uint64_t seed) {
  auto v = random_sparse_vec<double>(hi - lo, nnz, seed);
  std::vector<Index> idx(v.domain().indices().begin(),
                         v.domain().indices().end());
  for (Index& i : idx) i += lo;
  return SparseVec<double>::from_sorted(
      hi - lo, std::move(idx),
      std::vector<double>(v.values().begin(), v.values().end()));
}

TEST(SpmspvCharge, PinnedPerSortAndAlgo) {
  auto dgrid = LocaleGrid::square(16, 4);
  auto a = erdos_renyi_dist<double>(dgrid, 8000, 8.0, 31);
  const int l = 5;  // processor (1, 1): both ranges start at 2000
  const auto& blk = a.block(l);
  ASSERT_GT(blk.rlo, 0);
  ASSERT_GT(blk.clo, 0);
  const auto sr = arithmetic_semiring<double>();
  const auto xr = block_vec(blk.rlo, blk.rhi, 300, 32);

  auto shm = [&](SpmspvOptions opt) {
    return local_charge([&](LocaleCtx& ctx, Trace* t) {
      return spmspv_shm(ctx, blk.csr, blk.rlo, xr, blk.clo, blk.chi, sr, opt,
                        t);
    });
  };
  SpmspvOptions merge;
  SpmspvOptions radix;
  radix.sort = SortAlgo::kRadix;
  SpmspvOptions bucket;
  bucket.algo = SpmspvAlgo::kBucket;

  expect_charge("shm/merge", shm(merge),
                {0x3f3ff44f1989fa9cull, 0x3f40af74e6b02a10ull,
                 0x3f3f89f742381978ull, 0x3f58374c0a489a0dull,
                 0x0cbcc4ced0e36f02ull});
  expect_charge("shm/radix", shm(radix),
                {0x3f3ff44f1989fa9cull, 0x3f3f8fe2437648d0ull,
                 0x3f3f89f742381978ull, 0x3f57c38a27ce1739ull,
                 0x0cbcc4ced0e36f02ull});
  expect_charge("shm/bucket", shm(bucket),
                {0x3f3f8da8aba28917ull, 0x0000000000000000ull,
                 0x3f3f7ce68a7c1c73ull, 0x3f4f85479b0f52c5ull,
                 0x0cbcc4ced0e36f02ull});
}

// ---- the fused entry rejects what only the solo entry models -----------

void run_fused(const SpmspvOptions& opt) {
  auto grid = LocaleGrid::square(4, 2);
  auto a = erdos_renyi_dist<double>(grid, 400, 4.0, 11);
  auto x = random_dist_sparse_vec<double>(grid, 400, 40, 12);
  spmspv_dist_multi<double, double>(a, {&x, &x}, {}, MaskMode::kNone,
                                    arithmetic_semiring<double>(), opt);
}

TEST(SpmspvMultiOptions, RejectsCollectives) {
  SpmspvOptions opt;
  opt.use_collectives = true;
  EXPECT_THROW(run_fused(opt), InvalidArgument);
}

TEST(SpmspvMultiOptions, RejectsStragglerShedding) {
  // Solo waves shed a flagged straggler's multiply; a fused wave would
  // silently not, so the same options must not mean two things.
  SpmspvOptions opt;
  opt.straggler_shed = 0.3;
  EXPECT_THROW(run_fused(opt), InvalidArgument);
}

// ---- the solo entries check straggler_shed before the wave charges ------

TEST(SpmspvDist, RejectsShedOutsideUnitInterval) {
  auto grid = LocaleGrid::square(4, 2);
  auto a = erdos_renyi_dist<double>(grid, 2000, 8.0, 7);
  auto x = random_dist_sparse_vec<double>(grid, 2000, 300, 9);
  DistDenseVec<std::uint8_t> mask(grid, 2000, 0);
  const auto sr = arithmetic_semiring<double>();
  for (const double shed : {1.0, 1.5, -0.25, std::nan("")}) {
    for (const bool masked : {false, true}) {
      grid.reset();
      SpmspvOptions opt;
      opt.straggler_shed = shed;
      if (masked) {
        EXPECT_THROW(spmspv_dist_masked(a, x, mask, MaskMode::kComplement,
                                        sr, opt),
                     InvalidArgument)
            << shed;
      } else {
        EXPECT_THROW(spmspv_dist(a, x, sr, opt), InvalidArgument) << shed;
      }
      // Nothing was charged or counted.
      for (int l = 0; l < grid.num_locales(); ++l) {
        EXPECT_EQ(grid.clock(l).now(), 0.0) << shed << " l=" << l;
      }
      EXPECT_EQ(grid.comm_stats().messages, 0) << shed;
      EXPECT_EQ(grid.comm_stats().bytes, 0) << shed;
      EXPECT_EQ(grid.metrics().find_counter("kernel.calls",
                                            {{"kernel", "spmspv_dist"}}),
                nullptr)
          << shed;
    }
  }
}

}  // namespace
}  // namespace pgb
