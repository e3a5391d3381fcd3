// Tests for the locale-grid runtime: grid construction, block
// distributions, clock semantics of coforall/barrier, the
// communication-charging helpers, and the host-parallel compute dispatch
// against the serial loop.
#include <gtest/gtest.h>

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "obs/span.hpp"
#include "runtime/aggregator.hpp"
#include "runtime/dist.hpp"
#include "runtime/host_pool.hpp"
#include "runtime/locale_grid.hpp"

namespace pgb {
namespace {

TEST(LocaleGrid, SingleGrid) {
  auto g = LocaleGrid::single(24);
  EXPECT_EQ(g.num_locales(), 1);
  EXPECT_EQ(g.threads(), 24);
  EXPECT_EQ(g.colocated(), 1);
}

TEST(LocaleGrid, SquareFactorsNearSquare) {
  auto g16 = LocaleGrid::square(16, 24);
  EXPECT_EQ(g16.rows(), 4);
  EXPECT_EQ(g16.cols(), 4);
  auto g8 = LocaleGrid::square(8, 24);
  EXPECT_EQ(g8.rows(), 2);
  EXPECT_EQ(g8.cols(), 4);
  auto g2 = LocaleGrid::square(2, 24);
  EXPECT_EQ(g2.rows(), 1);
  EXPECT_EQ(g2.cols(), 2);
}

TEST(LocaleGrid, RowMajorCoordinates) {
  auto g = LocaleGrid::square(8, 1);  // 2 x 4
  EXPECT_EQ(g.locale(5).row, 1);
  EXPECT_EQ(g.locale(5).col, 1);
  EXPECT_EQ(g.locale(3).row, 0);
  EXPECT_EQ(g.locale(3).col, 3);
}

TEST(LocaleGrid, NodePlacement) {
  auto g = LocaleGrid::square(8, 1, /*locales_per_node=*/4);
  EXPECT_TRUE(g.same_node(0, 3));
  EXPECT_FALSE(g.same_node(3, 4));
  EXPECT_TRUE(g.same_node(4, 7));
}

TEST(LocaleGrid, RejectsBadConfig) {
  EXPECT_THROW(LocaleGrid(GridConfig{.rows = 0}), InvalidArgument);
  EXPECT_THROW(LocaleGrid(GridConfig{.threads_per_locale = 0}),
               InvalidArgument);
}

TEST(LocaleGrid, CoforallRunsBodyOncePerLocale) {
  auto g = LocaleGrid::square(6, 4);
  std::vector<int> seen;
  g.coforall_locales([&](LocaleCtx& ctx) { seen.push_back(ctx.locale()); });
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(LocaleGrid, CoforallChargesForkAndBarrier) {
  auto g = LocaleGrid::square(8, 4);
  g.coforall_locales([](LocaleCtx&) {});
  // Even an empty body costs 7 remote forks + a barrier.
  const double expected_min = 7 * g.net().params().tau_fork;
  EXPECT_GE(g.time(), expected_min);
  EXPECT_LT(g.time(), expected_min * 3);
}

TEST(LocaleGrid, BarrierSynchronizesClocks) {
  auto g = LocaleGrid::square(4, 1);
  g.clock(2).advance(1.0);
  g.barrier_all();
  for (int l = 0; l < 4; ++l) EXPECT_GE(g.clock(l).now(), 1.0);
  EXPECT_DOUBLE_EQ(g.clock(0).now(), g.clock(3).now());
}

TEST(LocaleGrid, ResetClearsClocksAndTrace) {
  auto g = LocaleGrid::single(1);
  g.clock(0).advance(5.0);
  g.trace().add("x", 1.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.time(), 0.0);
  EXPECT_TRUE(g.trace().phases().empty());
}

TEST(LocaleCtx, LocalPeerChargesNothing) {
  auto g = LocaleGrid::square(4, 1);
  LocaleCtx ctx(g, 1);
  ctx.remote_chain(1, 1000, 3.0, 8);
  ctx.remote_msgs(1, 1000, 8);
  ctx.remote_bulk(1, 1 << 20);
  ctx.remote_rt(1, 8);
  EXPECT_DOUBLE_EQ(g.clock(1).now(), 0.0);
}

TEST(LocaleCtx, RemotePeerAdvancesOnlyIssuerClock) {
  auto g = LocaleGrid::square(4, 1);
  LocaleCtx ctx(g, 1);
  ctx.remote_bulk(2, 1 << 20);
  EXPECT_GT(g.clock(1).now(), 0.0);
  EXPECT_DOUBLE_EQ(g.clock(2).now(), 0.0);
}

TEST(LocaleCtx, ContentionMultipliesCost) {
  auto g = LocaleGrid::square(4, 1);
  LocaleCtx a(g, 0), b(g, 1);
  a.remote_chain(2, 100, 2.0, 8, 1.0);
  b.remote_chain(2, 100, 2.0, 8, 4.0);
  EXPECT_NEAR(g.clock(1).now(), 4.0 * g.clock(0).now(), 1e-12);
}

TEST(LocaleCtx, ParallelRegionIncludesSpawnBurden) {
  auto g = LocaleGrid::single(24);
  LocaleCtx ctx(g, 0);
  ctx.parallel_region(CostVector{});  // no work, only spawn
  EXPECT_NEAR(g.clock(0).now(), 24 * g.model().node.tau_task, 1e-12);
}

TEST(LocaleCtx, SerialRegionHasNoSpawnBurden) {
  auto g = LocaleGrid::single(24);
  LocaleCtx ctx(g, 0);
  ctx.serial_region(CostVector{});
  EXPECT_DOUBLE_EQ(g.clock(0).now(), 0.0);
}

// ---- distributions ----

class Dist1DParam
    : public ::testing::TestWithParam<std::pair<Index, int>> {};

TEST_P(Dist1DParam, BlocksPartitionTheRange) {
  const auto [n, parts] = GetParam();
  BlockDist1D d(n, parts);
  Index covered = 0;
  for (int p = 0; p < parts; ++p) {
    EXPECT_EQ(d.hi(p) - d.lo(p), d.local_size(p));
    covered += d.local_size(p);
    if (p > 0) {
      EXPECT_EQ(d.lo(p), d.hi(p - 1));
    }
  }
  EXPECT_EQ(covered, n);
}

TEST_P(Dist1DParam, OwnerIsConsistentWithBlocks) {
  const auto [n, parts] = GetParam();
  BlockDist1D d(n, parts);
  const Index step = std::max<Index>(1, n / 137);
  for (Index i = 0; i < n; i += step) {
    const int p = d.owner(i);
    EXPECT_GE(i, d.lo(p));
    EXPECT_LT(i, d.hi(p));
  }
  if (n >= parts) {
    // With fewer items than parts, leading/trailing blocks may be empty
    // and the boundary items belong to interior parts.
    EXPECT_EQ(d.owner(0), 0);
    EXPECT_EQ(d.owner(n - 1), parts - 1);
  }
}

// owner() is one division: the last part p with n*p < (i+1)*parts.
// Every index of every small shape, empty parts included, and the part
// boundaries of the largest shapes whose bounds n*p/parts fit 64 bits
// must land in the part whose bounds hold them.
TEST(BlockDist1D, OwnerHoldsEveryIndex) {
  int wrong = 0;
  for (Index n = 1; n <= 130; ++n) {
    for (int parts = 1; parts <= 40; ++parts) {
      const BlockDist1D d(n, parts);
      for (Index i = 0; i < n; ++i) {
        const int p = d.owner(i);
        wrong += p >= 0 && p < parts && d.lo(p) <= i && i < d.hi(p) ? 0 : 1;
      }
    }
  }
  EXPECT_EQ(wrong, 0);
  const Index top = std::numeric_limits<Index>::max();
  for (const auto& [n, parts] : {std::pair<Index, int>{top / 1024, 1024},
                                 std::pair<Index, int>{top / 3, 3},
                                 std::pair<Index, int>{top, 1}}) {
    const BlockDist1D d(n, parts);
    for (int p = 0; p < parts; p += std::max(1, parts / 16)) {
      EXPECT_EQ(d.owner(d.lo(p)), p) << n << "/" << parts;
      EXPECT_EQ(d.owner(d.hi(p) - 1), p) << n << "/" << parts;
    }
    EXPECT_EQ(d.owner(n - 1), parts - 1);
  }
}

// lo() and hi() compute n * p in 64 bits, so a shape whose n * parts
// passes INT64_MAX is rejected up front; the largest accepted one
// builds, and its bounds and owner agree on the last index.
TEST(BlockDist1D, RejectsShapesWhoseBoundsOverflow) {
  const Index top = std::numeric_limits<Index>::max();
  EXPECT_THROW(BlockDist1D(top, 1024), InvalidArgument);
  EXPECT_THROW(BlockDist1D(top / 1024 + 1, 1024), InvalidArgument);
  const Index n = top / 1024;
  const BlockDist1D d(n, 1024);
  EXPECT_EQ(d.hi(1023), n);
  EXPECT_LE(d.lo(1023), n - 1);
  EXPECT_EQ(d.owner(n - 1), 1023);
  EXPECT_NO_THROW(BlockDist1D(top, 1));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Dist1DParam,
    ::testing::Values(std::pair<Index, int>{100, 1},
                      std::pair<Index, int>{100, 7},
                      std::pair<Index, int>{7, 7},
                      std::pair<Index, int>{5, 8},  // more parts than items
                      std::pair<Index, int>{1000003, 64},
                      std::pair<Index, int>{0, 4}));

TEST(Dist2D, LocaleOfMatchesRowMajorGrid) {
  BlockDist2D d(100, 100, 2, 4);
  EXPECT_EQ(d.locale_of(0, 0), 0);
  EXPECT_EQ(d.locale_of(0, 99), 3);
  EXPECT_EQ(d.locale_of(99, 0), 4);
  EXPECT_EQ(d.locale_of(99, 99), 7);
  EXPECT_EQ(d.prow_of(6), 1);
  EXPECT_EQ(d.pcol_of(6), 2);
}

TEST(LocaleGridThreads, SetThreadsClampsToOversubscriptionCap) {
  auto grid = LocaleGrid::square(4, 1);
  const int cap = grid.max_threads();
  // cap = kOversubscribeCap x the locale's core share; well above the
  // bench sweeps (1..32 threads on the default model).
  EXPECT_GE(cap, 32);
  grid.set_threads(cap);  // at the cap: accepted verbatim
  EXPECT_EQ(grid.threads(), cap);
  grid.set_threads(cap + 1);  // beyond: clamped, not honored
  EXPECT_EQ(grid.threads(), cap);
  grid.set_threads(1000000);
  EXPECT_EQ(grid.threads(), cap);
  grid.set_threads(2);  // back under the cap: exact again
  EXPECT_EQ(grid.threads(), 2);
  EXPECT_THROW(grid.set_threads(0), InvalidArgument);
}

TEST(Dist2D, EveryCellOwnedByExactlyOneLocale) {
  BlockDist2D d(31, 17, 3, 2);
  for (Index r = 0; r < 31; ++r) {
    for (Index c = 0; c < 17; ++c) {
      const int l = d.locale_of(r, c);
      EXPECT_GE(l, 0);
      EXPECT_LT(l, 6);
      EXPECT_GE(r, d.rowd().lo(d.prow_of(l)));
      EXPECT_LT(r, d.rowd().hi(d.prow_of(l)));
      EXPECT_GE(c, d.cold().lo(d.pcol_of(l)));
      EXPECT_LT(c, d.cold().hi(d.pcol_of(l)));
    }
  }
}

// ---- host pool ----

TEST(HostPool, RunsEveryItemOnce) {
  for (int threads : {1, 3}) {
    HostPool pool(threads);
    EXPECT_EQ(pool.threads(), threads);
    std::vector<int> hits(1000, 0);
    pool.run(1000, [&](int i) { ++hits[static_cast<std::size_t>(i)]; });
    EXPECT_EQ(hits, std::vector<int>(1000, 1));
  }
}

TEST(HostPool, SizedFromTheAffinityMask) {
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof set, &set), 0);
  EXPECT_EQ(HostPool::instance().threads(), CPU_COUNT(&set));
}

TEST(HostPool, LowestThrowingItemWinsAndEveryItemRuns) {
  HostPool pool(3);
  std::atomic<int> ran{0};
  try {
    pool.run(64, [&](int i) {
      ++ran;
      if (i == 41 || i == 17 || i == 60) {
        throw std::runtime_error(std::to_string(i));
      }
    });
    FAIL() << "expected the item's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "17");
  }
  EXPECT_EQ(ran.load(), 64);
  ran = 0;
  pool.run(64, [&](int) { ++ran; });
  EXPECT_EQ(ran.load(), 64);
}

// The hand-off between runs: most runs follow the previous one at once,
// while the workers are still between jobs; every 100th follows a
// caller-side gap of 2 ms, long enough for idle workers to block.
static_assert(HostPool::kSpinBudget < std::chrono::milliseconds(2));
TEST(HostPool, BackToBackRunsRunEveryItemOnce) {
  HostPool pool(3);
  std::vector<int> hits;
  for (int r = 0; r < 20000; ++r) {
    if (r % 100 == 99) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    const int n = 1 + r % 9;
    hits.assign(static_cast<std::size_t>(n), 0);
    pool.run(n, [&](int i) { ++hits[static_cast<std::size_t>(i)]; });
    ASSERT_EQ(hits, std::vector<int>(static_cast<std::size_t>(n), 1))
        << "run " << r;
  }
}

TEST(HostPool, DestroyRightAfterARun) {
  for (int r = 0; r < 200; ++r) {
    std::atomic<int> ran{0};
    {
      HostPool pool(3);
      pool.run(8, [&](int) { ++ran; });
    }
    EXPECT_EQ(ran.load(), 8);
  }
}

// ---- coforall_compute against the serial loop ----
//
// Twin grids run the same comm-free bodies, one through coforall_locales
// and one through coforall_compute; the clock bits, the registry and the
// trace (spans, instants and counter samples in recorded order, wall
// fields left out) must come out equal.

/// A body with SPA-sized charges that differ per locale, nested spans,
/// parallel regions and instants. Records per locale whether it ran and
/// whether it recorded into a body log (the buffered, pooled path).
struct ComputeBody {
  std::vector<int> runs;
  std::vector<int> buffered;

  explicit ComputeBody(int n) : runs(n, 0), buffered(n, 0) {}

  void operator()(LocaleCtx& ctx) {
    const int l = ctx.locale();
    ++runs[static_cast<std::size_t>(l)];
    buffered[static_cast<std::size_t>(l)] = ctx.trace_log() != nullptr;
    obs::LocaleSpan outer(ctx, "test.local", {{"l", std::to_string(l)}});
    for (int r = 0; r <= l % 3; ++r) {
      obs::LocaleSpan inner(ctx, "test.spa");
      CostVector c;
      c.add(CostKind::kStreamBytes, 9.0 * 12500 + 16.0 * 1000 * (l + 1));
      c.add(CostKind::kRandAccess, 200.0 * (r + 1));
      c.add(CostKind::kAtomicDistinct, 1000.0 * (l + 1));
      ctx.parallel_region(c);
      ctx.trace_instant("test.tick", {{"r", std::to_string(r)}});
    }
    CostVector s;
    s.add(CostKind::kCpuOps, 100.0 * l);
    ctx.serial_region(s);
  }
};

enum class Prep { kNoSession, kSession, kFaultPlan, kKill, kRemap };

std::string prep_name(const ::testing::TestParamInfo<Prep>& info) {
  static const char* const kNames[] = {"NoSession", "Session", "FaultPlan",
                                       "Kill", "Remap"};
  return kNames[static_cast<int>(info.param)];
}

std::string bits(double v) {
  char buf[24];
  std::snprintf(
      buf, sizeof buf, "%016llx",
      static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  return buf;
}

/// Everything the serial loop's result is judged by: clock bits, the
/// registry snapshot, and the trace without its wall fields.
std::string observable_state(LocaleGrid& g, const obs::TraceSession& s) {
  std::string out = "clocks:";
  for (int l = 0; l < g.num_locales(); ++l) {
    out += " " + bits(g.clock(l).now());
  }
  out += "\nmetrics: " + g.metrics().json() + "\n";
  auto args = [](const obs::TraceArgs& a) {
    std::string r;
    for (const auto& kv : a) r += " " + kv.key + "=" + kv.value;
    return r;
  };
  for (const auto& e : s.spans()) {
    out += "span " + e.name + " t" + std::to_string(e.track) + " d" +
           std::to_string(e.depth) + " " + bits(e.sim_begin) + "-" +
           bits(e.sim_end) + args(e.args) + "\n";
  }
  for (const auto& e : s.instants()) {
    out += "instant " + e.name + " t" + std::to_string(e.track) + " " +
           bits(e.sim_ts) + args(e.args) + "\n";
  }
  for (const auto& c : s.counter_samples()) {
    out += "counter " + c.name + " " + bits(c.sim_ts) + " " + bits(c.value) +
           "\n";
  }
  return out;
}

/// One twin: a 16-locale grid prepared for `prep`, then two dispatches
/// of ComputeBody through coforall_compute (`compute`) or the serial loop.
struct Twin {
  static constexpr int kLocales = 16;
  static constexpr int kVictim = 9;

  LocaleGrid grid = LocaleGrid::square(kLocales, 24);
  obs::TraceSession session;
  FaultPlan plan{FaultSpec::parse(
                     "drop:p=0.5;kill:locale=" + std::to_string(kVictim) +
                     ",at=0"),
                 7};
  FaultPlan drops{FaultSpec::parse("drop:p=0.5"), 7};
  ComputeBody body{kLocales};
  int failed = -1;  ///< LocaleFailed's locale, -1 when none was thrown

  Twin(Prep prep, bool compute) {
    if (prep != Prep::kNoSession) grid.set_trace_session(&session);
    // Uneven clocks first, so forks, barrier and kill times see skew.
    grid.coforall_locales([](LocaleCtx& ctx) {
      CostVector c;
      c.add(CostKind::kCpuOps, 5000.0 * (ctx.locale() % 5));
      ctx.serial_region(c);
    });
    if (prep == Prep::kRemap) grid.remap_locale(3, 11);
    if (prep == Prep::kFaultPlan) grid.set_fault_plan(&drops);
    if (prep == Prep::kKill) grid.set_fault_plan(&plan);
    const auto dispatch = compute ? &LocaleGrid::coforall_compute
                                  : &LocaleGrid::coforall_locales;
    try {
      for (int rep = 0; rep < 2; ++rep) {
        (grid.*dispatch)([this](LocaleCtx& ctx) { body(ctx); });
      }
    } catch (const LocaleFailed& e) {
      failed = e.locale();
    }
    grid.set_fault_plan(nullptr);
  }
};

class CoforallCompute : public ::testing::TestWithParam<Prep> {};

TEST_P(CoforallCompute, LeavesTheSerialLoopsState) {
  const Prep prep = GetParam();
  Twin serial(prep, /*compute=*/false);
  Twin pooled(prep, /*compute=*/true);
  EXPECT_EQ(observable_state(pooled.grid, pooled.session),
            observable_state(serial.grid, serial.session));
  EXPECT_EQ(pooled.body.runs, serial.body.runs);
  EXPECT_EQ(pooled.failed, serial.failed);
  // The bodies draw nothing from the plan's RNG.
  EXPECT_EQ(pooled.drops.decisions(), 0);
  EXPECT_EQ(pooled.plan.decisions(), 0);

  const int n = Twin::kLocales;
  if (prep == Prep::kKill) {
    // The bodies below the dead locale ran; the rest were never spawned.
    EXPECT_EQ(pooled.failed, Twin::kVictim);
    for (int l = 0; l < n; ++l) {
      EXPECT_EQ(pooled.body.runs[l], l < Twin::kVictim ? 1 : 0) << l;
    }
    const auto& instants = pooled.session.instants();
    ASSERT_FALSE(instants.empty());
    EXPECT_EQ(instants.back().name, "fault.locale_failed");
  } else {
    EXPECT_EQ(pooled.failed, -1);
    EXPECT_EQ(pooled.body.runs, std::vector<int>(n, 2));
  }
  // Traced runs keep the pooled path. A fault plan (one sequential RNG
  // for every delivery) and a degraded remap (two logical locales sharing
  // a host clock) take the serial one.
  const bool serial_path = prep == Prep::kFaultPlan || prep == Prep::kKill ||
                           prep == Prep::kRemap;
  const int expect_buffered = serial_path ? 0 : 1;
  for (int l = 0; l < n; ++l) {
    if (pooled.body.runs[l] == 0) continue;
    EXPECT_EQ(pooled.body.buffered[l], expect_buffered) << l;
    EXPECT_EQ(serial.body.buffered[l], 0) << l;
  }
}

INSTANTIATE_TEST_SUITE_P(Preps, CoforallCompute,
                         ::testing::Values(Prep::kNoSession, Prep::kSession,
                                           Prep::kFaultPlan, Prep::kKill,
                                           Prep::kRemap),
                         prep_name);

TEST(CoforallComputeErrors, LowestLocaleExceptionWinsAndPoolServesNext) {
  auto g = LocaleGrid::square(16, 4);
  obs::TraceSession session;
  g.set_trace_session(&session);
  try {
    g.coforall_compute([](LocaleCtx& ctx) {
      obs::LocaleSpan span(ctx, "test.throwing");
      const int l = ctx.locale();
      if (l == 12 || l == 5 || l == 7) {
        throw std::runtime_error(std::to_string(l));
      }
    });
    FAIL() << "expected a body's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "5");
  }
  // Every body ran and was merged: one closed span per locale.
  EXPECT_EQ(session.spans().size(), 16u);
  std::atomic<int> ran{0};
  g.coforall_compute([&](LocaleCtx&) { ++ran; });
  EXPECT_EQ(ran.load(), 16);
}

TEST(CoforallComputeNesting, DispatchFromInsideABodyRunsInline) {
  auto outer = LocaleGrid::square(8, 4);
  std::vector<int> inline_everywhere(8, 0);
  outer.coforall_compute([&](LocaleCtx& ctx) {
    const auto self = std::this_thread::get_id();
    // A private grid simulated inside one locale's body.
    auto inner = LocaleGrid::square(4, 1);
    std::vector<std::thread::id> where(4);
    inner.coforall_compute([&](LocaleCtx& ictx) {
      where[static_cast<std::size_t>(ictx.locale())] =
          std::this_thread::get_id();
      ictx.serial_region(CostVector{});
    });
    bool same = true;
    for (const auto& id : where) same = same && id == self;
    inline_everywhere[static_cast<std::size_t>(ctx.locale())] = same;
  });
  EXPECT_EQ(inline_everywhere, std::vector<int>(8, 1));
}

// ---- coforall_compute bodies that communicate ----
//
// The same twin-grid comparison with bodies that call every remote_*
// helper and flush aggregated puts and gets, on grids with the comm
// matrix enabled and a detail-level trace session: the comm funnel's
// counters, the lazily registered keys, the matrix cells and the detail
// instants must all come out as the serial loop leaves them.

/// Per-locale peers and sizes differ, and some paths and channels are
/// used by some locales only, so which keys get registered depends on
/// which bodies ran.
struct CommBody {
  bool channels = true;  ///< odd locales build aggregation channels
  std::vector<int> buffered;
  std::vector<std::int64_t> got;  ///< per-locale SrcAggregator results

  CommBody(int n, bool with_channels)
      : channels(with_channels), buffered(n, 0), got(n, 0) {}

  void operator()(LocaleCtx& ctx) {
    const int l = ctx.locale();
    const int n = ctx.grid().num_locales();
    buffered[static_cast<std::size_t>(l)] = ctx.body_log() != nullptr;
    obs::LocaleSpan span(ctx, "test.comm", {{"l", std::to_string(l)}});
    if (l % 3 == 0) ctx.remote_chain((l + 1) % n, 5 + l, 1.5, 16, 2.0);
    ctx.remote_msgs((l + 5) % n, 3 + l, 24, 1.0 + l % 2);
    if (l % 4 != 1) ctx.remote_bulk((l + 7) % n, 1000 * (l + 1));
    ctx.remote_rt((l + n - 1) % n, 8);
    ctx.remote_bulk(l, 64);  // the locale itself: free
    CostVector c;
    c.add(CostKind::kCpuOps, 300.0 * (l + 1));
    ctx.parallel_region(c);
    if (!channels || l % 2 == 0) return;
    {
      AggChannel chan(ctx, /*capacity=*/4);
      chan.flush_put((l + 2) % n, 128, 8);
      chan.flush_get((l + 3) % n, 64, 512, 8);
      chan.get_elems((l + 6) % n, 11, 16);
      chan.flush_put(l, 16, 1);  // the locale itself: a local flush
      chan.drain();
    }
    DstAggregator<int> puts(ctx, [](int, std::vector<int>&) {},
                            /*capacity=*/3);
    for (int i = 0; i < 10; ++i) puts.push((l + i) % n, i);
    std::int64_t sum = 0;
    SrcAggregator<int> gets(
        ctx,
        [&](int peer, std::vector<int>& batch) {
          for (int r : batch) sum += peer * 100 + r;
        },
        /*capacity=*/2);
    for (int i = 0; i < 5; ++i) gets.get((l + 2 * i) % n, i);
    gets.flush_all();
    puts.flush_all();
    PutCounts counts(ctx, /*capacity=*/5, /*contention=*/1.0, 24);
    counts.push((l + 4) % n, 12);
    counts.push((l + 1) % n, 3);
    counts.flush_all();
    got[static_cast<std::size_t>(l)] = sum;
  }
};

/// One twin for the comm bodies: a 16-locale grid with the comm matrix
/// on and a session, two dispatches through coforall_compute (`compute`)
/// or the serial loop.
struct CommTwin {
  static constexpr int kLocales = 16;

  LocaleGrid grid = LocaleGrid::square(kLocales, 24);
  obs::TraceSession session{/*detail=*/true};
  FaultPlan plan{FaultSpec::parse("drop:p=0.3;dup:p=0.2"), 11};
  CommBody body;

  CommTwin(bool compute, bool channels, bool detail, bool fault_plan)
      : body(kLocales, channels) {
    session.set_detail(detail);
    grid.set_trace_session(&session);
    grid.enable_comm_matrix();
    if (fault_plan) grid.set_fault_plan(&plan);
    const auto dispatch = compute ? &LocaleGrid::coforall_compute
                                  : &LocaleGrid::coforall_locales;
    for (int rep = 0; rep < 2; ++rep) {
      (grid.*dispatch)([this](LocaleCtx& ctx) { body(ctx); });
    }
    grid.set_fault_plan(nullptr);
  }

  std::string state() {
    return observable_state(grid, session) + "matrix: " +
           grid.comm_matrix_json() + grid.comm_matrix_csv();
  }
};

TEST(CoforallComputeComm, EveryHelperAndChannelMatchesTheSerialLoop) {
  for (const bool detail : {true, false}) {
    CommTwin serial(/*compute=*/false, /*channels=*/true, detail, false);
    CommTwin pooled(/*compute=*/true, /*channels=*/true, detail, false);
    EXPECT_EQ(pooled.state(), serial.state()) << "detail=" << detail;
    EXPECT_EQ(pooled.body.got, serial.body.got);
    EXPECT_EQ(pooled.body.buffered, std::vector<int>(CommTwin::kLocales, 1));
    // The matrix stays conserved against the registry's totals.
    const CommStats cs = pooled.grid.comm_stats();
    EXPECT_EQ(pooled.grid.comm_matrix_total_messages(), cs.messages);
    EXPECT_EQ(pooled.grid.comm_matrix_total_bytes(), cs.bytes);
    EXPECT_GT(cs.agg_flushes, 0);
  }
}

TEST(CoforallComputeComm, KeysRegisterOnlyWhereABodyUsedThem) {
  CommTwin serial(/*compute=*/false, /*channels=*/false, true, false);
  CommTwin pooled(/*compute=*/true, /*channels=*/false, true, false);
  EXPECT_EQ(pooled.state(), serial.state());
  // No body built a channel, so the agg.* family was never registered.
  const std::string json = pooled.grid.metrics().json();
  EXPECT_EQ(json.find("agg.messages"), std::string::npos);
  EXPECT_EQ(json.find("path=agg"), std::string::npos);
  EXPECT_NE(json.find("path=chain"), std::string::npos);
}

TEST(CoforallComputeComm, FaultPlanRunsTheSerialLoop) {
  CommTwin serial(/*compute=*/false, /*channels=*/true, true, true);
  CommTwin pooled(/*compute=*/true, /*channels=*/true, true, true);
  EXPECT_EQ(pooled.state(), serial.state());
  // Every delivery drew from the plan's one RNG in the serial order.
  EXPECT_GT(pooled.plan.decisions(), 0);
  EXPECT_EQ(pooled.plan.decisions(), serial.plan.decisions());
  EXPECT_EQ(pooled.body.buffered, std::vector<int>(CommTwin::kLocales, 0));
}

}  // namespace
}  // namespace pgb
