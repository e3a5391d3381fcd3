// Tests for the inspector–executor comm optimizer: decision pricing
// (including the node-side bulk per-pair region floor and the observed
// hit-rate replication model), replica-cache lifecycle (content
// fingerprint eviction, membership-epoch flush), byte-identity of
// --comm=auto against every manual schedule, the within-5%-of-best and
// strictly-faster-on-mixed-workload performance gates, and bit-identical
// recovery when a locale is killed and degraded-remapped mid-run.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "algo/algo_recovery.hpp"
#include "algo/bfs.hpp"
#include "core/assign_general.hpp"
#include "core/ops.hpp"
#include "core/spmspv.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/random_vec.hpp"
#include "runtime/dist.hpp"
#include "runtime/inspector.hpp"

namespace pgb {
namespace {

// ---- decision pricing -------------------------------------------------

TEST(InspectorDecide, ReplicationTreeDepth) {
  EXPECT_EQ(replication_tree_depth(1.0), 1);
  EXPECT_EQ(replication_tree_depth(2.0), 1);
  EXPECT_EQ(replication_tree_depth(4.0), 2);
  EXPECT_EQ(replication_tree_depth(63.0), 6);
  EXPECT_EQ(replication_tree_depth(64.0), 6);
}

SiteFootprint scatter_footprint(std::int64_t per_elems, std::int64_t pairs) {
  SiteFootprint fp;
  fp.pairs = pairs;
  fp.elements = per_elems * pairs;
  fp.max_initiator_elements = per_elems;
  fp.max_initiator_pairs = pairs;
  fp.bytes_each = 16;
  fp.gather = false;
  fp.read_only = false;
  return fp;
}

TEST(InspectorDecide, BulkPairOverheadFlipsBulkToAgg) {
  // At modest batch sizes the wire favors one bulk per peer; the SpMSpV
  // scatter's per-destination packing region (the task-spawn floor) is
  // what actually makes bulk lose to aggregation there. The inspector
  // must reproduce that flip when the kernel reports the overhead.
  auto grid = LocaleGrid::square(16, 24);
  Inspector& insp = grid.inspector();

  SiteFootprint fp = scatter_footprint(400, 15);
  const SiteDecision without = insp.decide("test.scatter.wire_only", fp);
  EXPECT_EQ(without.strategy, SiteStrategy::kBulk);

  fp.bulk_pair_overhead = grid.region_floor();
  ASSERT_GT(fp.bulk_pair_overhead, 1e-5);  // the floor is real money
  const SiteDecision with = insp.decide("test.scatter.with_floor", fp);
  EXPECT_EQ(with.strategy, SiteStrategy::kAggregated);
  EXPECT_LT(with.predicted, without.predicted + 15.0 * fp.bulk_pair_overhead);
}

TEST(InspectorDecide, AggCapacityIsTunedPowerOfTwo) {
  auto grid = LocaleGrid::square(16, 24);
  SiteFootprint fp = scatter_footprint(20000, 15);
  fp.bulk_pair_overhead = grid.region_floor();
  const SiteDecision d = grid.inspector().decide("test.scatter.cap", fp);
  ASSERT_EQ(d.strategy, SiteStrategy::kAggregated);
  EXPECT_GE(d.agg_capacity, 512);
  EXPECT_LE(d.agg_capacity, 8192);
  EXPECT_EQ(d.agg_capacity & (d.agg_capacity - 1), 0);
}

TEST(InspectorDecide, ScattersNeverReplicate) {
  auto grid = LocaleGrid::square(16, 24);
  SiteFootprint fp = scatter_footprint(64, 15);
  fp.read_only = true;  // read-only alone is not enough: gathers only
  for (int i = 0; i < 12; ++i) {
    const SiteDecision d = grid.inspector().decide("test.scatter.ro", fp);
    EXPECT_NE(d.strategy, SiteStrategy::kReplicate);
  }
}

TEST(InspectorDecide, RepeatStreakUnlocksReplicateThenHitsSustainIt) {
  // A read-only gather whose block is small relative to the pull volume:
  // the first wave prices replication at the full ship cost (no history),
  // so bulk wins; an identical footprint repeating amortizes the ship
  // until replicate takes over.
  auto grid = LocaleGrid::square(4, 2);
  Inspector& insp = grid.inspector();
  SiteFootprint fp;
  fp.pairs = 3;
  fp.elements = 2000;
  fp.max_initiator_elements = 2000;
  fp.max_initiator_pairs = 3;
  fp.bytes_each = 24;
  fp.block_bytes = 9600;  // whole source block: cheap to ship once
  fp.chain_rts = 4.0;     // fine pulls are dependent binary searches
  fp.read_only = true;
  fp.gather = true;

  const SiteDecision first = insp.decide("test.gather.reuse", fp);
  EXPECT_NE(first.strategy, SiteStrategy::kReplicate);

  SiteStrategy last = first.strategy;
  for (int i = 0; i < 10; ++i) last = insp.decide("test.gather.reuse", fp).strategy;
  EXPECT_EQ(last, SiteStrategy::kReplicate);

  // Once the executor reports near-perfect cache reuse, replication stays
  // priced at the miss-fraction floor and keeps winning.
  for (int i = 0; i < 50; ++i) {
    insp.cache_lookup("test.gather.reuse", 1, 0, 42);
    insp.cache_install("test.gather.reuse", 1, 0, 42, fp.block_bytes);
    insp.cache_lookup("test.gather.reuse", 1, 0, 42);
  }
  EXPECT_EQ(insp.decide("test.gather.reuse", fp).strategy,
            SiteStrategy::kReplicate);
}

TEST(InspectorDecide, ContentChurnDriftsAwayFromReplicate) {
  // PageRank-shaped trap: the footprint signature repeats every wave
  // (same sizes) but the source content changes every wave, so every
  // cache probe misses. The observed hit rate must drag the replicate
  // price back to the full ship cost so the site returns to bulk/agg.
  auto grid = LocaleGrid::square(4, 2);
  Inspector& insp = grid.inspector();
  SiteFootprint fp;
  fp.pairs = 3;
  fp.elements = 2000;
  fp.max_initiator_elements = 2000;
  fp.max_initiator_pairs = 3;
  fp.bytes_each = 24;
  fp.block_bytes = 9600;
  fp.chain_rts = 4.0;
  fp.read_only = true;
  fp.gather = true;

  SiteStrategy s = SiteStrategy::kBulk;
  for (int i = 0; i < 10; ++i) s = insp.decide("test.gather.churn", fp).strategy;
  ASSERT_EQ(s, SiteStrategy::kReplicate);

  // Every wave ships a new fingerprint: all misses.
  for (std::uint64_t tag = 1; tag <= 40; ++tag) {
    insp.cache_lookup("test.gather.churn", 1, 0, tag);
    insp.cache_install("test.gather.churn", 1, 0, tag, fp.block_bytes);
  }
  EXPECT_NE(insp.decide("test.gather.churn", fp).strategy,
            SiteStrategy::kReplicate);
}

// ---- replica cache lifecycle ------------------------------------------

std::vector<Index> pull_map(Index zcap, Index n) {
  std::vector<Index> m(static_cast<std::size_t>(zcap));
  for (Index k = 0; k < zcap; ++k) {
    m[static_cast<std::size_t>(k)] = (k * 37 + 11) % n;
  }
  return m;
}

TEST(InspectorCache, RepeatedExtractHitsReplicaCache) {
  const Index n = 4000;
  auto grid = LocaleGrid::square(4, 2);
  auto a = random_dist_sparse_vec<double>(grid, n, 400, 9);
  const auto idx = pull_map(8000, n);

  const auto ref = extract_indexed(a, idx, CommMode::kBulk).to_local();
  auto& mx = grid.metrics();
  for (int i = 0; i < 8; ++i) {
    const auto z = extract_indexed(a, idx, CommMode::kAuto).to_local();
    EXPECT_TRUE(z == ref) << "auto diverged from bulk on pass " << i;
  }
  // The site settled on replication and later passes were served from
  // resident blocks.
  EXPECT_GT(mx.counter("inspector.cache.installs").value, 0);
  EXPECT_GT(mx.counter("inspector.cache.hits").value, 0);
  EXPECT_GT(mx.counter("inspector.replicated_bytes").value, 0);
  EXPECT_GT(grid.inspector().cached_blocks(), 0);
}

TEST(InspectorCache, ContentChangeEvictsAndReships) {
  const Index n = 4000;
  auto grid = LocaleGrid::square(4, 2);
  auto a = random_dist_sparse_vec<double>(grid, n, 400, 9);
  const auto idx = pull_map(8000, n);

  for (int i = 0; i < 8; ++i) extract_indexed(a, idx, CommMode::kAuto);
  const auto installs0 =
      grid.metrics().counter("inspector.cache.installs").value;
  ASSERT_GT(grid.inspector().cached_blocks(), 0);

  // Rewrite every block's values: fingerprints change, resident replicas
  // are stale and must be evicted and re-shipped on the next pull.
  for (int o = 0; o < grid.num_locales(); ++o) {
    auto& lv = a.local(o);
    std::vector<Index> li;
    std::vector<double> lval;
    for (Index p = 0; p < lv.nnz(); ++p) {
      li.push_back(lv.index_at(p));
      lval.push_back(lv.value_at(p) + 1.0);
    }
    lv = SparseVec<double>::from_sorted(lv.capacity(), std::move(li),
                                        std::move(lval));
  }
  const auto ref = extract_indexed(a, idx, CommMode::kBulk).to_local();
  const auto z = extract_indexed(a, idx, CommMode::kAuto).to_local();
  EXPECT_TRUE(z == ref);  // fresh values, never stale replicas
  EXPECT_GT(grid.metrics().counter("inspector.cache.installs").value,
            installs0);
}

TEST(InspectorCache, MembershipRemapFlushesEverything) {
  const Index n = 4000;
  auto grid = LocaleGrid::square(4, 2);
  auto a = random_dist_sparse_vec<double>(grid, n, 400, 9);
  const auto idx = pull_map(8000, n);

  for (int i = 0; i < 8; ++i) extract_indexed(a, idx, CommMode::kAuto);
  ASSERT_GT(grid.inspector().cached_blocks(), 0);
  const auto inval0 =
      grid.metrics().counter("inspector.cache.invalidations").value;

  // The degraded-mode primitive: logical 2 moves onto host 0.
  grid.remap_locale(2, 0);
  const auto ref = extract_indexed(a, idx, CommMode::kBulk).to_local();
  const auto z = extract_indexed(a, idx, CommMode::kAuto).to_local();
  EXPECT_TRUE(z == ref);
  EXPECT_GT(grid.metrics().counter("inspector.cache.invalidations").value,
            inval0);
  grid.restore_membership();
}

TEST(InspectorCache, MidStreamRemapIsBitIdenticalToFaultFree) {
  // The epoch-invalidation end-to-end check: a stream of auto extracts
  // with a degraded remap in the middle must produce exactly the values
  // of the fault-free stream — the flush forces re-ships, never stale
  // reads — and must count the flush.
  const Index n = 4000;
  const auto idx = pull_map(8000, n);
  auto run = [&](bool remap_midway) {
    auto grid = LocaleGrid::square(4, 2);
    auto a = random_dist_sparse_vec<double>(grid, n, 400, 9);
    std::vector<SparseVec<double>> outs;
    std::int64_t flushed = 0;
    for (int i = 0; i < 6; ++i) {
      if (remap_midway && i == 3) {
        const auto before =
            grid.metrics().counter("inspector.cache.invalidations").value;
        grid.remap_locale(1, 3);
        outs.push_back(extract_indexed(a, idx, CommMode::kAuto).to_local());
        flushed =
            grid.metrics().counter("inspector.cache.invalidations").value -
            before;
        continue;
      }
      outs.push_back(extract_indexed(a, idx, CommMode::kAuto).to_local());
    }
    return std::make_pair(outs, flushed);
  };

  const auto [base, f0] = run(false);
  const auto [faulted, f1] = run(true);
  EXPECT_EQ(f0, 0);
  EXPECT_GT(f1, 0);  // the remap flushed live replicas
  ASSERT_EQ(base.size(), faulted.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_TRUE(base[i] == faulted[i]) << "pass " << i;
  }
}

// ---- auto vs manual: byte identity and the performance gates ----------

TEST(InspectorAuto, SpmspvByteIdenticalToEveryManualSchedule) {
  const Index n = 50000;
  auto grid = LocaleGrid::square(16, 24);
  auto a = erdos_renyi_dist<double>(grid, n, 8.0, 5);
  auto x = random_dist_sparse_vec<double>(grid, n, 1000, 6);
  const auto sr = arithmetic_semiring<double>();

  SpmspvOptions opt;
  opt.comm = CommMode::kAuto;
  auto y_auto = spmspv_dist(a, x, sr, opt);
  for (const CommMode mode :
       {CommMode::kFine, CommMode::kBulk, CommMode::kAggregated}) {
    grid.reset();
    opt.comm = mode;
    auto y = spmspv_dist(a, x, sr, opt);
    for (int l = 0; l < grid.num_locales(); ++l) {
      EXPECT_TRUE(y_auto.local(l) == y.local(l))
          << "locale " << l << " vs " << to_string(mode);
    }
  }
}

struct TimedRun {
  double time = 0.0;
  std::int64_t messages = 0;
  SparseVec<double> y;
};

TimedRun timed_spmspv(LocaleGrid& grid, const DistCsr<double>& a,
                      const DistSparseVec<double>& x, CommMode mode) {
  grid.reset();
  SpmspvOptions opt;
  opt.comm = mode;
  TimedRun r;
  r.y = spmspv_dist(a, x, arithmetic_semiring<double>(), opt).to_local();
  r.time = grid.time();
  r.messages = grid.comm_stats().messages;
  return r;
}

TEST(InspectorAuto, WithinFivePercentOfBestAndBeatsEveryFixedOnMixed) {
  // The calibration workload: at 64 locales the gather phase is won by
  // bulk and the scatter phase by aggregation, so every fixed schedule
  // leaves time on the table and auto's mixed binding must strictly win.
  const Index n = 100000;
  auto grid = LocaleGrid::square(64, 24);
  auto a = erdos_renyi_dist<double>(grid, n, 16.0, 5);
  auto x = random_dist_sparse_vec<double>(grid, n, 2000, 6);

  const TimedRun fine = timed_spmspv(grid, a, x, CommMode::kFine);
  const TimedRun bulk = timed_spmspv(grid, a, x, CommMode::kBulk);
  const TimedRun agg = timed_spmspv(grid, a, x, CommMode::kAggregated);
  const TimedRun autorun = timed_spmspv(grid, a, x, CommMode::kAuto);

  EXPECT_TRUE(autorun.y == fine.y);
  EXPECT_TRUE(autorun.y == bulk.y);
  EXPECT_TRUE(autorun.y == agg.y);

  const double best = std::min({fine.time, bulk.time, agg.time});
  EXPECT_LE(autorun.time, 1.05 * best);
  // Mixed workload: strictly faster than every fixed schedule.
  EXPECT_LT(autorun.time, fine.time);
  EXPECT_LT(autorun.time, bulk.time);
  EXPECT_LT(autorun.time, agg.time);
}

TEST(InspectorAuto, SameSeedRunsAreIndistinguishable) {
  const Index n = 50000;
  auto run = [&] {
    auto grid = LocaleGrid::square(16, 24);
    auto a = erdos_renyi_dist<double>(grid, n, 8.0, 5);
    auto x = random_dist_sparse_vec<double>(grid, n, 1000, 6);
    return timed_spmspv(grid, a, x, CommMode::kAuto);
  };
  const TimedRun r1 = run();
  const TimedRun r2 = run();
  EXPECT_TRUE(r1.y == r2.y);
  EXPECT_DOUBLE_EQ(r1.time, r2.time);
  EXPECT_EQ(r1.messages, r2.messages);
}

TEST(InspectorAuto, PublishesPerSiteDecisionCounters) {
  const Index n = 50000;
  auto grid = LocaleGrid::square(16, 24);
  auto a = erdos_renyi_dist<double>(grid, n, 8.0, 5);
  auto x = random_dist_sparse_vec<double>(grid, n, 1000, 6);
  SpmspvOptions opt;
  opt.comm = CommMode::kAuto;
  spmspv_dist(a, x, arithmetic_semiring<double>(), opt);

  EXPECT_GE(grid.inspector().num_sites(), 2);  // gather + scatter
  const auto reports = grid.inspector().report();
  bool saw_gather = false, saw_scatter = false;
  for (const auto& r : reports) {
    if (r.site == "spmspv.gather") saw_gather = true;
    if (r.site == "spmspv.scatter") saw_scatter = true;
    EXPECT_GT(r.calls, 0);
  }
  EXPECT_TRUE(saw_gather);
  EXPECT_TRUE(saw_scatter);
  EXPECT_EQ(grid.metrics().counter("inspector.sites").value,
            grid.inspector().num_sites());
  // The per-site strategy counters feed pgb --profile so pgb_diff can
  // flag a silent strategy flip between runs.
  std::int64_t site_decisions = 0;
  for (const auto& r : reports) {
    for (int s = 0; s < 4; ++s) {
      site_decisions += r.decisions[s];
      const auto* c = grid.metrics().find_counter(
          "inspector.site.decisions",
          {{"site", r.site},
           {"strategy", to_string(static_cast<SiteStrategy>(s))}});
      if (r.decisions[s] > 0) {
        ASSERT_NE(c, nullptr) << r.site;
        EXPECT_EQ(c->value, r.decisions[s]);
      }
    }
  }
  EXPECT_GT(site_decisions, 0);
}

// ---- kill + degraded rebuild under --comm=auto (satellite) ------------

TEST(InspectorRecovery, KillDegradedRemapBitIdenticalUnderAuto) {
  auto grid = LocaleGrid::square(4, 2);
  auto a = erdos_renyi_dist<double>(grid, 600, 8.0, 11);
  SpmspvOptions opt;
  opt.comm = CommMode::kAuto;

  grid.reset();
  const BfsResult base = bfs(a, 0, opt);
  const double total = grid.time();
  ASSERT_GT(total, 0.0);
  const std::string faults = "kill:locale=1,at=" + std::to_string(total * 0.4);

  auto chaos = [&] {
    grid.reset();
    FaultPlan plan(FaultSpec::parse(faults), 21);
    ResilienceOptions bopt;  // degraded by default
    RecoveryReport report;
    auto res = run_resilient(grid, &plan, bfs_recovery_loop(a, 0, opt), bopt,
                             &report);
    return std::make_tuple(res, grid.time(), report.rebuilds);
  };
  const auto [r1, t1, n1] = chaos();
  const auto [r2, t2, n2] = chaos();
  EXPECT_EQ(r1.parent, base.parent);
  EXPECT_EQ(r1.level_sizes, base.level_sizes);
  EXPECT_EQ(r1.parent, r2.parent);
  EXPECT_DOUBLE_EQ(t1, t2);
  EXPECT_GE(n1, 1);
  EXPECT_EQ(n1, n2);
  EXPECT_FALSE(grid.membership().remapped());
}

}  // namespace
}  // namespace pgb
