// Tests for degraded-mode recovery: membership remapping, the replica
// store (buddy mirrors, parity folds, incremental dirty-chunk flushes),
// the localized-rebuild driver producing bit-identical results across
// comm schedules, straggler-aware barriers, and the SpMSpV
// work-shedding hook.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "algo/algo_recovery.hpp"
#include "algo/bfs.hpp"
#include "algo/pagerank.hpp"
#include "algo/sssp.hpp"
#include "core/ops.hpp"
#include "core/spmspv.hpp"
#include "fault/replica.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/random_vec.hpp"
#include "runtime/dist.hpp"
#include "sparse/dist_dense_vec.hpp"

namespace pgb {
namespace {

TEST(Membership, IdentityUntilRemapped) {
  Membership m(8);
  EXPECT_EQ(m.size(), 8);
  EXPECT_FALSE(m.remapped());
  EXPECT_EQ(m.active(), 8);
  const std::uint64_t e0 = m.epoch();
  for (int l = 0; l < 8; ++l) EXPECT_EQ(m.host(l), l);

  m.remap(3, 7);
  EXPECT_TRUE(m.remapped());
  EXPECT_EQ(m.host(3), 7);
  EXPECT_EQ(m.active(), 7);  // hosts {0,1,2,4,5,6,7}
  EXPECT_GT(m.epoch(), e0);

  m.reset();
  EXPECT_FALSE(m.remapped());
  EXPECT_EQ(m.host(3), 3);
  EXPECT_EQ(m.active(), 8);
}

TEST(Membership, RemapViewRefreshesWhenEpochMoves) {
  Membership m(4);
  RemapView view(m);
  EXPECT_FALSE(view.remapped());
  EXPECT_EQ(view.host(2), 2);
  m.remap(2, 0);
  // The cached view notices the epoch bump on the next query.
  EXPECT_TRUE(view.remapped());
  EXPECT_EQ(view.host(2), 0);
}

TEST(Membership, GridRemapBumpsEpochAndCounter) {
  auto grid = LocaleGrid::square(4, 1);
  const std::uint64_t e0 = grid.membership_epoch();
  grid.remap_locale(3, 1);
  EXPECT_EQ(grid.host_of(3), 1);
  EXPECT_GT(grid.membership_epoch(), e0);
  EXPECT_EQ(grid.metrics().counter("membership.remaps").value, 1);
  grid.restore_membership();
  EXPECT_EQ(grid.host_of(3), 3);
}

TEST(Membership, CoHostedCommIsFreeAfterRemap) {
  auto grid = LocaleGrid::square(4, 1);
  grid.remap_locale(3, 1);
  const auto msgs0 = grid.hot().messages->value;
  const auto bytes0 = grid.hot().bytes->value;
  const double t0 = grid.time();
  LocaleCtx ctx(grid, 3);
  // Logical 3 now lives on host 1: "remote" traffic between them is a
  // local memory operation — no messages, no bytes, no clock time.
  ctx.remote_bulk(1, 1 << 20);
  ctx.remote_msgs(1, 100, 16);
  ctx.remote_rt(1, 8);
  ctx.remote_chain(1, 50, 2.0, 16);
  EXPECT_EQ(grid.hot().messages->value, msgs0);
  EXPECT_EQ(grid.hot().bytes->value, bytes0);
  EXPECT_DOUBLE_EQ(grid.time(), t0);
  // A genuinely remote peer still pays.
  ctx.remote_bulk(2, 1 << 10);
  EXPECT_GT(grid.hot().messages->value, msgs0);
}

TEST(Replica, BuddyIsNeverSelfAndIsInvolutionForEvenRings) {
  for (int n = 2; n <= 9; ++n) {
    for (int l = 0; l < n; ++l) {
      const int b = replica_buddy_of(l, n);
      EXPECT_NE(b, l) << "n=" << n;
      EXPECT_GE(b, 0);
      EXPECT_LT(b, n);
      if (n % 2 == 0) {
        EXPECT_EQ(replica_buddy_of(b, n), l) << "n=" << n;  // pairs
      }
    }
  }
}

TEST(Replica, ParityHolderLivesOutsideItsGroup) {
  auto grid = LocaleGrid::square(8, 1);
  ReplicaOptions opt;
  opt.scheme = ReplicaScheme::kParity;
  opt.parity_group = 4;
  ReplicaStore store(grid, opt);
  for (int l = 0; l < 8; ++l) {
    const int holder = store.parity_holder(store.group_of(l));
    EXPECT_NE(store.group_of(holder), store.group_of(l)) << "l=" << l;
  }
  // parity_group >= n would force the parity into its own group.
  ReplicaOptions bad;
  bad.scheme = ReplicaScheme::kParity;
  bad.parity_group = 8;
  EXPECT_THROW(ReplicaStore(grid, bad), InvalidArgument);
}

TEST(Replica, SecondIdenticalFlushShipsNothing) {
  auto grid = LocaleGrid::square(4, 1);
  DistDenseVec<double> v(grid, 1000, 1.5);
  ReplicaStore store(grid, {});
  store.staging().put_dense("v", v);
  store.flush(0);
  const std::int64_t first = store.shipped_bytes();
  EXPECT_GT(first, 0);
  EXPECT_EQ(store.protected_round(), 0);

  // Same bytes staged again: the chunk diff finds nothing dirty.
  store.staging().put_dense("v", v);
  store.flush(1);
  EXPECT_EQ(store.shipped_bytes(), first);
  EXPECT_EQ(store.protected_round(), 1);

  // One element changes: only its chunk (plus header) travels, far less
  // than the full vector.
  v.local(0).raw()[3] = 42.0;
  store.staging().put_dense("v", v);
  store.flush(2);
  const std::int64_t delta = store.shipped_bytes() - first;
  EXPECT_GT(delta, 0);
  EXPECT_LT(delta, first / 2);
  EXPECT_EQ(grid.metrics().counter("replica.flushes").value, 3);
  EXPECT_EQ(grid.metrics().counter("replica.bytes").value,
            store.shipped_bytes());
}

TEST(Replica, BuddyRebuildReadsTheMirrorNotThePrimary) {
  auto grid = LocaleGrid::square(4, 1);
  DistDenseVec<double> v(grid, 800, 0.0);
  for (int l = 0; l < 4; ++l) {
    auto raw = v.local(l).raw();
    for (std::size_t i = 0; i < raw.size(); ++i) {
      raw[i] = static_cast<double>(l * 10000 + static_cast<int>(i));
    }
  }
  ReplicaStore store(grid, {});
  store.staging().put_dense("v", v);
  store.flush(0);

  // Locale 2 "dies": trash its primary copy. A rebuild that read the
  // primary would reproduce garbage (and fail the checksum).
  const int dead = 2;
  CheckpointEntry* e = store.primary_for_test().find_mutable("v");
  ASSERT_NE(e, nullptr);
  for (CheckpointBlock& blk : e->blocks) {
    if (blk.locale == dead) std::fill(blk.bytes.begin(), blk.bytes.end(), 0xFF);
  }

  const std::int64_t restored = store.rebuild(dead);
  EXPECT_GT(restored, 0);
  DistDenseVec<double> out(grid, 800, -1.0);
  store.restored().get_dense("v", out);
  for (int l = 0; l < 4; ++l) {
    const auto raw = out.local(l).raw();
    for (std::size_t i = 0; i < raw.size(); ++i) {
      ASSERT_DOUBLE_EQ(raw[i],
                       static_cast<double>(l * 10000 + static_cast<int>(i)))
          << "l=" << l << " i=" << i;
    }
  }
  EXPECT_EQ(grid.metrics().counter("recovery.rebuilds").value, 1);
  EXPECT_GT(grid.metrics().counter("replica.restored_bytes").value, 0);
}

TEST(Replica, ParityReconstructionSurvivesPrimaryLoss) {
  auto grid = LocaleGrid::square(8, 1);
  DistDenseVec<double> v(grid, 1600, 0.0);
  for (int l = 0; l < 8; ++l) {
    auto raw = v.local(l).raw();
    for (std::size_t i = 0; i < raw.size(); ++i) {
      raw[i] = static_cast<double>(l) + 0.25 * static_cast<double>(i);
    }
  }
  ReplicaOptions opt;
  opt.scheme = ReplicaScheme::kParity;
  opt.parity_group = 4;
  ReplicaStore store(grid, opt);
  store.staging().put_dense("v", v);
  store.flush(0);

  const int dead = 5;
  CheckpointEntry* e = store.primary_for_test().find_mutable("v");
  ASSERT_NE(e, nullptr);
  for (CheckpointBlock& blk : e->blocks) {
    if (blk.locale == dead) std::fill(blk.bytes.begin(), blk.bytes.end(), 0);
  }

  store.rebuild(dead);  // parity XOR surviving members, checksum-checked
  DistDenseVec<double> out(grid, 1600, -1.0);
  store.restored().get_dense("v", out);
  const auto raw = out.local(dead).raw();
  for (std::size_t i = 0; i < raw.size(); ++i) {
    ASSERT_DOUBLE_EQ(
        raw[i], static_cast<double>(dead) + 0.25 * static_cast<double>(i));
  }
}

TEST(Replica, ParityTracksIncrementalUpdates) {
  // The fold is maintained as parity ^= old ^ new: after several
  // mutating flushes, reconstruction must still reproduce the *latest*
  // flushed state.
  auto grid = LocaleGrid::square(8, 1);
  DistDenseVec<double> v(grid, 400, 1.0);
  ReplicaOptions opt;
  opt.scheme = ReplicaScheme::kParity;
  opt.parity_group = 4;
  ReplicaStore store(grid, opt);
  for (std::int64_t round = 0; round < 3; ++round) {
    for (int l = 0; l < 8; ++l) {
      auto raw = v.local(l).raw();
      for (std::size_t i = 0; i < raw.size(); ++i) {
        raw[i] += static_cast<double>(l + 1) * static_cast<double>(round);
      }
    }
    store.staging().put_dense("v", v);
    store.flush(round);
  }
  const int dead = 1;
  CheckpointEntry* e = store.primary_for_test().find_mutable("v");
  for (CheckpointBlock& blk : e->blocks) {
    if (blk.locale == dead) std::fill(blk.bytes.begin(), blk.bytes.end(), 0);
  }
  store.rebuild(dead);
  DistDenseVec<double> out(grid, 400, -1.0);
  store.restored().get_dense("v", out);
  const auto want = v.local(dead).raw();
  const auto got = out.local(dead).raw();
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_DOUBLE_EQ(got[i], want[i]);
  }
}

// ---- the chaos-determinism matrix (issue satellite): kill + rebuild is
// bit-identical to fault-free, for both rebuild modes, across all three
// comm schedules, and two same-seed executions are indistinguishable. --

struct RebuildRun {
  BfsResult res;
  double time = 0.0;
  std::int64_t messages = 0;
  RecoveryReport report;
};

RebuildRun run_bfs_rebuild(LocaleGrid& grid, const DistCsr<double>& a,
                           CommMode mode, RecoveryPolicy rmode,
                           const std::string& faults) {
  grid.reset();
  SpmspvOptions opt;
  opt.comm = mode;
  FaultPlan plan(FaultSpec::parse(faults), 21);
  ResilienceOptions bopt;
  bopt.policy = rmode;
  RebuildRun out;
  out.res = run_resilient(grid, &plan, bfs_recovery_loop(a, 0, opt), bopt,
                          &out.report);
  out.time = grid.time();
  out.messages = grid.hot().messages->value;
  return out;
}

TEST(Rebuild, KillRebuildBitIdenticalAcrossModesAndDeterministic) {
  auto grid = LocaleGrid::square(4, 2);
  auto a = erdos_renyi_dist<double>(grid, 600, 8.0, 11);
  for (const CommMode mode :
       {CommMode::kFine, CommMode::kBulk, CommMode::kAggregated}) {
    grid.reset();
    SpmspvOptions opt;
    opt.comm = mode;
    const BfsResult base = bfs(a, 0, opt);
    const double total = grid.time();
    ASSERT_GT(total, 0.0);
    const std::string faults =
        "kill:locale=1,at=" + std::to_string(total * 0.4);

    for (const RecoveryPolicy rmode :
         {RecoveryPolicy::kDegraded, RecoveryPolicy::kSpare}) {
      const RebuildRun r1 = run_bfs_rebuild(grid, a, mode, rmode, faults);
      const RebuildRun r2 = run_bfs_rebuild(grid, a, mode, rmode, faults);
      // Bit-identical to the fault-free run...
      EXPECT_EQ(r1.res.parent, base.parent)
          << to_string(mode) << "/" << to_string(rmode);
      EXPECT_EQ(r1.res.level_sizes, base.level_sizes);
      // ...and the two same-seed chaos executions are indistinguishable,
      // result AND modeled time AND traffic.
      EXPECT_EQ(r1.res.parent, r2.res.parent);
      EXPECT_DOUBLE_EQ(r1.time, r2.time);
      EXPECT_EQ(r1.messages, r2.messages);
      EXPECT_GE(r1.report.rebuilds, 1);
      EXPECT_EQ(std::string(r1.report.mode), to_string(rmode));
      // The driver restored the identity mapping on exit.
      EXPECT_FALSE(grid.membership().remapped());
    }
  }
}

TEST(Rebuild, SsspDegradedBitIdentical) {
  auto grid = LocaleGrid::square(4, 2);
  auto a = erdos_renyi_dist<double>(grid, 400, 6.0, 13);
  grid.reset();
  const SsspResult base = sssp(a, 0, {});
  const double total = grid.time();

  grid.reset();
  FaultPlan plan(
      FaultSpec::parse("kill:locale=2,at=" + std::to_string(total * 0.5)), 3);
  ResilienceOptions bopt;  // degraded by default
  RecoveryReport report;
  const SsspResult rec =
      run_resilient(grid, &plan, sssp_recovery_loop(a, 0, {}), bopt, &report);
  EXPECT_EQ(rec.dist, base.dist);  // exact double equality
  EXPECT_EQ(rec.rounds, base.rounds);
  EXPECT_GE(report.rebuilds, 1);
  EXPECT_EQ(report.degraded_locales, 1);
  EXPECT_GT(report.sim_time_lost, 0.0);
  EXPECT_GT(report.bytes_restored, 0);
}

TEST(Rebuild, PagerankParityDegradedBitIdentical) {
  auto grid = LocaleGrid::square(8, 2);
  auto a = erdos_renyi_dist<double>(grid, 600, 6.0, 17);
  grid.reset();
  const PagerankResult base = pagerank(a, 0.85, 1e-8, 40);
  const double total = grid.time();

  grid.reset();
  FaultPlan plan(
      FaultSpec::parse("kill:locale=5,at=" + std::to_string(total * 0.5)), 3);
  ResilienceOptions bopt;
  bopt.replica.scheme = ReplicaScheme::kParity;
  bopt.replica.parity_group = 4;
  RecoveryReport report;
  const PagerankResult rec = run_resilient(
      grid, &plan, pagerank_recovery_loop(a, 0.85, 1e-8, 40), bopt, &report);
  EXPECT_EQ(rec.rank, base.rank);  // exact double equality
  EXPECT_EQ(rec.iterations, base.iterations);
  EXPECT_EQ(rec.residual, base.residual);
  EXPECT_GE(report.rebuilds, 1);
}

TEST(Rebuild, FaultFreeRunMatchesPlainAndPricesReplication) {
  auto grid = LocaleGrid::square(4, 2);
  auto a = erdos_renyi_dist<double>(grid, 400, 6.0, 11);
  grid.reset();
  const BfsResult base = bfs(a, 0, {});

  grid.reset();
  RecoveryReport report;
  const BfsResult rec = run_resilient(
      grid, nullptr, bfs_recovery_loop(a, 0, {}), ResilienceOptions{}, &report);
  EXPECT_EQ(rec.parent, base.parent);
  EXPECT_EQ(rec.level_sizes, base.level_sizes);
  EXPECT_EQ(report.rebuilds, 0);
  EXPECT_EQ(report.restarts, 0);
  EXPECT_GE(report.checkpoints, 1);   // per-round flush cadence
  EXPECT_GT(report.replica_bytes, 0);  // static + incremental replication
  EXPECT_GT(grid.metrics().counter("replica.flushes").value, 0);
}

TEST(Rebuild, SecondFailureTakingTheBuddyRethrows) {
  // Degraded mode remaps the dead logical onto its buddy; losing that
  // buddy too exceeds the single-fault tolerance and must surface.
  auto grid = LocaleGrid::square(4, 2);
  auto a = erdos_renyi_dist<double>(grid, 400, 6.0, 11);
  grid.reset();
  bfs(a, 0, {});
  const double total = grid.time();

  grid.reset();
  // Locale 1's buddy is 3 (n/2 away); kill both.
  ASSERT_EQ(replica_buddy_of(1, 4), 3);
  FaultPlan plan(FaultSpec::parse(
                     "kill:locale=1,at=" + std::to_string(total * 0.3) +
                     ";kill:locale=3,at=" + std::to_string(total * 0.3)),
                 3);
  ResilienceOptions bopt;
  EXPECT_THROW(run_resilient(grid, &plan, bfs_recovery_loop(a, 0, {}), bopt),
               LocaleFailed);
  // Even on the throwing path, the guard restored the grid.
  EXPECT_FALSE(grid.membership().remapped());
  EXPECT_EQ(grid.fault_plan(), nullptr);
}

// ---- the failure budget: one for every policy --------------------------

/// `kills` kills at t=0 on locales 0, 1, ...: distinct locales whose
/// buddies (8 on) stay alive on a 16-locale grid.
FaultSpec first_locales_killed(int kills) {
  std::string spec;
  for (int l = 0; l < kills; ++l) {
    spec += l > 0 ? ";kill:locale=" : "kill:locale=";
    spec += std::to_string(l) + ",at=0";
  }
  return FaultSpec::parse(spec);
}

TEST(Resilience, FailureBudgetIsFourKillsForEveryPolicy) {
  for (const RecoveryPolicy policy :
       {RecoveryPolicy::kRollback, RecoveryPolicy::kSpare,
        RecoveryPolicy::kDegraded}) {
    auto grid = LocaleGrid::square(16, 2);
    auto a = erdos_renyi_dist<double>(grid, 800, 6.0, 11);
    grid.reset();
    const BfsResult base = bfs(a, 0, {});
    ResilienceOptions opt;
    opt.policy = policy;
    RetryPolicy outer;
    outer.max_attempts = 7;  // what the grid carries around the driver
    ASSERT_EQ(kMaxFailures, 4);

    grid.reset();
    grid.set_retry_policy(outer);
    FaultPlan four(first_locales_killed(kMaxFailures), 5);
    RecoveryReport report;
    const BfsResult res = run_resilient(
        grid, &four, bfs_recovery_loop(a, 0, {}), opt, &report);
    EXPECT_EQ(res.parent, base.parent) << to_string(policy);
    EXPECT_EQ(report.restarts + report.rebuilds, kMaxFailures);

    grid.reset();
    FaultPlan five(first_locales_killed(kMaxFailures + 1), 5);
    EXPECT_THROW(
        run_resilient(grid, &five, bfs_recovery_loop(a, 0, {}), opt),
        LocaleFailed)
        << to_string(policy);
    // The guard put back what was attached before the call.
    EXPECT_EQ(grid.fault_plan(), nullptr);
    EXPECT_EQ(grid.retry_policy().max_attempts, outer.max_attempts);
    EXPECT_FALSE(grid.membership().remapped());
  }
}

// ---- straggler-aware barriers + the SpMSpV shedding hook ---------------

TEST(Straggler, BarrierSkewFlagsStalledLocale) {
  auto grid = LocaleGrid::square(4, 1);
  FaultPlan plan(FaultSpec::parse("stall:locale=2,ms=5"), 1);
  grid.set_fault_plan(&plan);
  grid.set_straggler_threshold(1e-3);
  grid.coforall_locales([&](LocaleCtx& ctx) {
    ctx.remote_msgs((ctx.locale() + 1) % 4, 10, 16);
  });
  grid.barrier_all();
  grid.set_fault_plan(nullptr);
  // Locale 2's sends each stalled 5 ms: it enters the barrier far behind.
  EXPECT_GE(grid.metrics().counter("straggler.detected").value, 1);
  EXPECT_GE(grid.straggler_hits(2), 1);
  EXPECT_EQ(grid.straggler_hits(0), 0);
  EXPECT_GE(grid.metrics().histogram("barrier.skew").count, 1);
}

TEST(Straggler, DetectionIsOffWithoutThresholdOrPlan) {
  auto grid = LocaleGrid::square(4, 1);
  grid.coforall_locales([&](LocaleCtx& ctx) {
    ctx.remote_msgs((ctx.locale() + 1) % 4, 10, 16);
  });
  grid.barrier_all();
  // No threshold, no plan: the skew histogram must not even register —
  // fault-free metric key sets are part of the profile-regression
  // contract.
  EXPECT_EQ(grid.metrics().find_histogram("barrier.skew"), nullptr);
  EXPECT_EQ(grid.metrics().find_counter("straggler.detected"), nullptr);
}

TEST(Straggler, SpmspvShedMovesChargingNotResults) {
  auto grid = LocaleGrid::square(4, 2);
  auto a = erdos_renyi_dist<double>(grid, 2000, 8.0, 7);
  auto x = random_dist_sparse_vec<double>(grid, 2000, 300, 9);
  grid.reset();
  const auto base = spmspv_dist(a, x, arithmetic_semiring<double>(), {});

  grid.reset();
  // Manufacture a straggler record for locale 1's host, then run with
  // shedding enabled and the plan detached.
  {
    FaultPlan plan(FaultSpec::parse("stall:locale=1,ms=5"), 1);
    grid.set_fault_plan(&plan);
    grid.set_straggler_threshold(1e-3);
    grid.coforall_locales([&](LocaleCtx& ctx) {
      ctx.remote_msgs((ctx.locale() + 1) % 4, 10, 16);
    });
    grid.barrier_all();
    grid.set_fault_plan(nullptr);
  }
  ASSERT_GE(grid.straggler_hits(1), 1);
  SpmspvOptions opt;
  opt.straggler_shed = 0.4;
  const auto shed = spmspv_dist(a, x, arithmetic_semiring<double>(), opt);
  EXPECT_GE(grid.metrics().counter("spmspv.rebalanced").value, 1);
  ASSERT_EQ(shed.nnz(), base.nnz());
  for (int l = 0; l < grid.num_locales(); ++l) {
    const auto bi = base.local(l).domain().indices();
    const auto si = shed.local(l).domain().indices();
    EXPECT_TRUE(std::equal(si.begin(), si.end(), bi.begin(), bi.end()))
        << "l=" << l;
    const auto bv = base.local(l).values();
    const auto sv = shed.local(l).values();
    EXPECT_TRUE(std::equal(sv.begin(), sv.end(), bv.begin(), bv.end()))
        << "l=" << l;
  }
}

}  // namespace
}  // namespace pgb
