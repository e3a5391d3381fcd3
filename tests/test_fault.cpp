// Tests for the fault-injection plane: spec parsing, the deterministic
// fault plan, retry/timeout accounting in the comm layer (all three comm
// schedules), checkpoint round-trips and checksum detection, and
// checkpoint/restart recovery producing bit-identical results after a
// locale kill.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "algo/algo_recovery.hpp"
#include "algo/bfs.hpp"
#include "algo/pagerank.hpp"
#include "algo/sssp.hpp"
#include "core/ops.hpp"
#include "core/spmspv.hpp"
#include "fault/checkpoint.hpp"
#include "fault/fault.hpp"
#include "fault/recovery.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/random_vec.hpp"
#include "runtime/aggregator.hpp"
#include "util/rng.hpp"

namespace pgb {
namespace {

TEST(FaultSpec, ParsesEveryKind) {
  const FaultSpec s = FaultSpec::parse(
      "drop:p=0.1;dup:p=0.2,peer=3;corrupt:p=0.05;stall:p=0.01,ms=0.5;"
      "kill:locale=2,at=0.002");
  ASSERT_EQ(s.rules.size(), 5u);
  EXPECT_EQ(s.rules[0].kind, FaultKind::kDrop);
  EXPECT_DOUBLE_EQ(s.rules[0].probability, 0.1);
  EXPECT_EQ(s.rules[0].locale, -1);
  EXPECT_EQ(s.rules[1].kind, FaultKind::kDuplicate);
  EXPECT_EQ(s.rules[1].locale, 3);
  EXPECT_EQ(s.rules[2].kind, FaultKind::kCorrupt);
  EXPECT_EQ(s.rules[3].kind, FaultKind::kStall);
  EXPECT_DOUBLE_EQ(s.rules[3].stall_seconds, 0.5e-3);
  EXPECT_EQ(s.rules[4].kind, FaultKind::kLocaleFail);
  EXPECT_EQ(s.rules[4].locale, 2);
  EXPECT_DOUBLE_EQ(s.rules[4].at_time, 0.002);
}

TEST(FaultSpec, RoundTripsThroughToString) {
  const std::string spec =
      "drop:p=0.25,peer=1;stall:p=0.5,ms=2;kill:locale=0,at=1";
  const FaultSpec a = FaultSpec::parse(spec);
  const FaultSpec b = FaultSpec::parse(a.to_string());
  ASSERT_EQ(a.rules.size(), b.rules.size());
  for (std::size_t i = 0; i < a.rules.size(); ++i) {
    EXPECT_EQ(a.rules[i].kind, b.rules[i].kind);
    EXPECT_DOUBLE_EQ(a.rules[i].probability, b.rules[i].probability);
    EXPECT_EQ(a.rules[i].locale, b.rules[i].locale);
    EXPECT_DOUBLE_EQ(a.rules[i].stall_seconds, b.rules[i].stall_seconds);
    EXPECT_DOUBLE_EQ(a.rules[i].at_time, b.rules[i].at_time);
  }
}

TEST(FaultSpec, RejectsMalformedInput) {
  EXPECT_THROW(FaultSpec::parse(""), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("explode:p=0.5"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("drop"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("drop:p=1.5"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("drop:p=-0.1"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("drop:p=abc"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("drop:p=0.1,ms=3"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("drop:p=0.1,volume=11"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("stall:p=0.1"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("kill:locale=1"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("kill:at=0.5"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("kill:locale=1,at=0.5,p=1"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("drop:p=0.1;;dup:p=0.1"), InvalidArgument);
}

TEST(FaultSpec, ParsesSourceTargetedStall) {
  const FaultSpec s = FaultSpec::parse("stall:locale=7,ms=0.5");
  ASSERT_EQ(s.rules.size(), 1u);
  EXPECT_EQ(s.rules[0].kind, FaultKind::kStall);
  EXPECT_EQ(s.rules[0].src_locale, 7);
  EXPECT_DOUBLE_EQ(s.rules[0].probability, 0.0);  // deterministic, no draw
  EXPECT_DOUBLE_EQ(s.rules[0].stall_seconds, 0.5e-3);
}

TEST(FaultSpec, SourceTargetedStallRoundTripsThroughToString) {
  const FaultSpec a = FaultSpec::parse("stall:locale=3,ms=2;drop:p=0.1");
  const FaultSpec b = FaultSpec::parse(a.to_string());
  ASSERT_EQ(b.rules.size(), 2u);
  EXPECT_EQ(b.rules[0].kind, FaultKind::kStall);
  EXPECT_EQ(b.rules[0].src_locale, 3);
  EXPECT_DOUBLE_EQ(b.rules[0].stall_seconds, 2e-3);
}

TEST(FaultSpec, RejectsMalformedSourceTargetedStall) {
  // The deterministic form is strict: locale= requires ms= and forbids
  // the probabilistic keys.
  EXPECT_THROW(FaultSpec::parse("stall:locale=2"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("stall:locale=2,p=0.5,ms=1"),
               InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("stall:locale=2,peer=1,ms=1"),
               InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("stall:locale=2,at=0.5,ms=1"),
               InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("stall:locale=-1,ms=1"), InvalidArgument);
}

TEST(FaultSpec, RejectsSpecsThatWouldRunADifferentFault) {
  // Each of these used to parse into a fault other than the one written
  // (a truncated locale, a padded or hex number, an infinite time) or
  // only failed through an out-of-range double-to-int cast.
  for (const char* spec : {
           "kill:locale=1.5,at=0",
           "kill:locale=1e10,at=0",
           "kill:locale=nan,at=0",
           "kill:locale=0x10,at=0",
           "kill:locale= 1,at=0",
           "kill:locale=+1,at=0",
           "kill:locale=99999999999,at=0",
           "kill:locale=1,at=inf",
           "kill:locale=1,at=0x1",
           "kill:locale=1,at= 0.5",
           "drop:p=0.1,peer=-0.5",
           "drop:p=0.1,peer=-1",
           "drop:p= 0.1",
           "drop:p=0x0.1",
           "drop:p=nan",
           "stall:p=0.1,ms=inf",
           "stall:p=0.1,ms=1e999",
           "stall:p=0.1,ms=2374520455.2556167",
           "stall:locale=2.7,ms=1",
       }) {
    EXPECT_THROW(FaultSpec::parse(spec), InvalidArgument) << spec;
  }
  // The plain forms still parse, exponents included.
  EXPECT_EQ(FaultSpec::parse("kill:locale=12,at=2e-3").rules[0].locale, 12);
  EXPECT_DOUBLE_EQ(FaultSpec::parse("drop:p=.5").rules[0].probability, 0.5);
}

TEST(FaultSpec, GridRejectsAPlanNamingALocaleItDoesNotHave) {
  auto grid = LocaleGrid::square(4, 1);
  for (const char* spec :
       {"kill:locale=4,at=0", "drop:p=0.1,peer=4", "stall:locale=99,ms=1"}) {
    FaultPlan plan(FaultSpec::parse(spec), 1);
    EXPECT_THROW(grid.set_fault_plan(&plan), InvalidArgument) << spec;
    EXPECT_EQ(grid.fault_plan(), nullptr);
  }
  FaultPlan ok(FaultSpec::parse("kill:locale=3,at=0;drop:p=0.1,peer=3"), 1);
  grid.set_fault_plan(&ok);
  EXPECT_EQ(grid.fault_plan(), &ok);
  grid.set_fault_plan(nullptr);
}

TEST(FaultSpec, MutatedSpecsThrowOrRoundTrip) {
  // Seeded byte mutations of the valid specs used across the tests and
  // CI. Every mutant either throws InvalidArgument or parses to a spec
  // whose canonical rendering is a fixed point of parse + to_string.
  const std::vector<std::string> seeds = {
      "drop:p=0.01",
      "drop:p=0.02,peer=3;stall:p=0.001,ms=0.5",
      "stall:locale=7,ms=0.5",
      "corrupt:p=0.005;kill:locale=5,at=0.002",
      "drop:p=0.1;dup:p=0.2,peer=3;corrupt:p=0.05;stall:p=0.01,ms=0.5;"
      "kill:locale=2,at=0.002",
      "kill:locale=11,at=0.05",
  };
  const std::string alphabet = "0123456789.eE+-,;:=x pnalmsti";
  Xoshiro256 rng(2024);
  int parsed = 0;
  for (int iter = 0; iter < 6000; ++iter) {
    std::string m = seeds[rng.next() % seeds.size()];
    const int edits = 1 + static_cast<int>(rng.next() % 3);
    for (int e = 0; e < edits && !m.empty(); ++e) {
      const std::size_t at = rng.next() % m.size();
      const char c = rng.next() % 4 == 0
                         ? static_cast<char>(rng.next() % 256)
                         : alphabet[rng.next() % alphabet.size()];
      switch (rng.next() % 3) {
        case 0: m[at] = c; break;
        case 1: m.insert(m.begin() + static_cast<std::ptrdiff_t>(at), c); break;
        default: m.erase(at, 1); break;
      }
    }
    std::string canon;
    try {
      canon = FaultSpec::parse(m).to_string();
    } catch (const InvalidArgument&) {
      continue;
    }
    ++parsed;
    EXPECT_EQ(FaultSpec::parse(canon).to_string(), canon) << "mutant: " << m;
  }
  EXPECT_GT(parsed, 0);
}

TEST(FaultPlan, SourceTargetedStallIsDeterministicAndAlignsRngStream) {
  // The targeted stall fires on every message from its source — no RNG
  // draw — so adding it must not perturb the fate stream of the
  // probabilistic rules (chaos runs stay reproducible when a stall
  // clause is appended).
  FaultPlan with(FaultSpec::parse("drop:p=0.3;stall:locale=1,ms=2"), 11);
  FaultPlan without(FaultSpec::parse("drop:p=0.3"), 11);
  for (int i = 0; i < 200; ++i) {
    const auto fw = with.attempt_fate(1, 2);
    const auto fo = without.attempt_fate(1, 2);
    EXPECT_EQ(fw.drop, fo.drop);
    EXPECT_DOUBLE_EQ(fw.stall, fo.stall + 2e-3);  // fires every time
  }
  // Messages from any other source are untouched.
  const auto other = with.attempt_fate(0, 1);
  EXPECT_DOUBLE_EQ(other.stall, 0.0);
}

TEST(RetryPolicy, ValidateRejectsNonsense) {
  RetryPolicy ok;
  EXPECT_NO_THROW(ok.validate());
  RetryPolicy zero_attempts;
  zero_attempts.max_attempts = 0;
  EXPECT_THROW(zero_attempts.validate(), InvalidArgument);
  RetryPolicy neg_timeout;
  neg_timeout.timeout = -1.0;
  EXPECT_THROW(neg_timeout.validate(), InvalidArgument);
  RetryPolicy shrinking_backoff;
  shrinking_backoff.backoff_mult = 0.5;
  EXPECT_THROW(shrinking_backoff.validate(), InvalidArgument);
}

TEST(FaultPlan, FateStreamIsDeterministicInSeed) {
  const FaultSpec s = FaultSpec::parse("drop:p=0.3;dup:p=0.2");
  FaultPlan p1(s, 9), p2(s, 9), p3(s, 10);
  bool any_differs_from_p3 = false;
  for (int i = 0; i < 500; ++i) {
    const auto f1 = p1.attempt_fate(0, 1);
    const auto f2 = p2.attempt_fate(0, 1);
    const auto f3 = p3.attempt_fate(0, 1);
    EXPECT_EQ(f1.drop, f2.drop);
    EXPECT_EQ(f1.duplicate, f2.duplicate);
    if (f1.drop != f3.drop || f1.duplicate != f3.duplicate) {
      any_differs_from_p3 = true;
    }
  }
  EXPECT_EQ(p1.decisions(), 500);
  EXPECT_TRUE(any_differs_from_p3);  // different seed, different stream
}

TEST(FaultPlan, KillScheduleRespectsTimeAndRecovery) {
  FaultPlan plan(FaultSpec::parse("kill:locale=2,at=1.5"), 1);
  EXPECT_FALSE(plan.has_message_faults());
  EXPECT_FALSE(plan.is_down(2, 1.0));
  EXPECT_TRUE(plan.is_down(2, 1.5));
  EXPECT_TRUE(plan.is_down(2, 99.0));
  EXPECT_FALSE(plan.is_down(1, 99.0));
  EXPECT_DOUBLE_EQ(plan.kill_time(2), 1.5);
  EXPECT_TRUE(std::isinf(plan.kill_time(0)));
  plan.mark_recovered(2);
  EXPECT_FALSE(plan.is_down(2, 99.0));
}

TEST(PlanDelivery, DropStormTimesOutEveryAttempt) {
  FaultPlan plan(FaultSpec::parse("drop:p=1"), 1);
  RetryPolicy rp;
  rp.max_attempts = 3;
  rp.jitter = 0.0;  // deterministic wait arithmetic
  const DeliveryOutcome out = plan_delivery(plan, rp, 0, 1, 0.0);
  EXPECT_EQ(out.attempts, 3);
  EXPECT_FALSE(out.delivered);
  EXPECT_EQ(out.drops, 3);
  EXPECT_EQ(out.timeouts, 3);
  // Three ack timeouts plus two exponential backoffs (20us, 40us).
  EXPECT_DOUBLE_EQ(out.wait_time, 3 * rp.timeout + rp.backoff * 3.0);
}

TEST(PlanDelivery, CorruptNaksImmediatelyWithoutTimeout) {
  FaultPlan plan(FaultSpec::parse("corrupt:p=1"), 1);
  RetryPolicy rp;
  rp.max_attempts = 2;
  rp.jitter = 0.0;
  const DeliveryOutcome out = plan_delivery(plan, rp, 0, 1, 0.0);
  EXPECT_EQ(out.attempts, 2);
  EXPECT_FALSE(out.delivered);
  EXPECT_EQ(out.corrupts, 2);
  EXPECT_EQ(out.timeouts, 0);
  EXPECT_DOUBLE_EQ(out.wait_time, rp.backoff);  // one backoff, no timeout
}

TEST(PlanDelivery, DeadPeerExhaustsAttempts) {
  FaultPlan plan(FaultSpec::parse("kill:locale=1,at=0"), 1);
  RetryPolicy rp;
  const DeliveryOutcome out = plan_delivery(plan, rp, 0, 1, 0.5);
  EXPECT_EQ(out.attempts, rp.max_attempts);
  EXPECT_FALSE(out.delivered);
  EXPECT_EQ(out.timeouts, rp.max_attempts);
  EXPECT_EQ(out.drops, 0);  // the peer is dead, not the wire
}

TEST(PlanDelivery, StallAndDuplicateDeliverFirstTry) {
  FaultPlan stall_plan(FaultSpec::parse("stall:p=1,ms=2"), 1);
  RetryPolicy rp;
  const DeliveryOutcome s = plan_delivery(stall_plan, rp, 0, 1, 0.0);
  EXPECT_TRUE(s.delivered);
  EXPECT_EQ(s.attempts, 1);
  EXPECT_EQ(s.stalls, 1);
  EXPECT_DOUBLE_EQ(s.stall_time, 2e-3);

  FaultPlan dup_plan(FaultSpec::parse("dup:p=1"), 1);
  const DeliveryOutcome d = plan_delivery(dup_plan, rp, 0, 1, 0.0);
  EXPECT_TRUE(d.delivered);
  EXPECT_EQ(d.attempts, 1);
  EXPECT_EQ(d.duplicates, 1);
  EXPECT_DOUBLE_EQ(d.wait_time, 0.0);
}

// A drop storm with A max attempts makes every logical transfer cost
// exactly A wire messages — across all three comm schedules — and the
// comm.messages per-path family stays coherent with the total.
TEST(Transfer, WireMessagesAreAttemptsTimesLogicalAcrossCommModes) {
  for (const CommMode mode :
       {CommMode::kFine, CommMode::kBulk, CommMode::kAggregated}) {
    auto grid = LocaleGrid::square(4, 1);
    auto a = erdos_renyi_dist<double>(grid, 300, 5.0, 3);
    auto x = random_dist_sparse_vec<double>(grid, 300, 40, 7);
    grid.reset();
    FaultPlan plan(FaultSpec::parse("drop:p=1"), 1);
    RetryPolicy rp;
    rp.max_attempts = 3;
    grid.set_fault_plan(&plan);
    grid.set_retry_policy(rp);
    SpmspvOptions opt;
    opt.comm = mode;
    spmspv_dist(a, x, arithmetic_semiring<double>(), opt);
    const auto& hot = grid.hot();
    ASSERT_GT(hot.logical_messages->value, 0) << to_string(mode);
    EXPECT_EQ(hot.messages->value, 3 * hot.logical_messages->value)
        << to_string(mode);
    EXPECT_GT(hot.retries->value, 0) << to_string(mode);
    EXPECT_EQ(hot.timeouts->value, 3 * (hot.retries->value / 2))
        << to_string(mode);  // every attempt of every transfer timed out
    // Per-path family sums to the total even under retries.
    const auto snap = grid.metrics().snapshot();
    std::int64_t family = 0;
    for (const auto& [key, val] : snap.values) {
      if (key.rfind("comm.messages{", 0) == 0) family += val.counter;
    }
    EXPECT_EQ(family, hot.messages->value) << to_string(mode);
    grid.set_fault_plan(nullptr);
  }
}

TEST(Transfer, DuplicatesAddWireTrafficButNoTime) {
  auto grid = LocaleGrid::square(4, 1);
  auto a = erdos_renyi_dist<double>(grid, 300, 5.0, 3);
  auto x = random_dist_sparse_vec<double>(grid, 300, 40, 7);
  grid.reset();
  auto clean = spmspv_dist(a, x, arithmetic_semiring<double>(), {});
  const double clean_time = grid.time();
  const std::int64_t clean_logical = grid.hot().logical_messages->value;

  grid.reset();
  FaultPlan plan(FaultSpec::parse("dup:p=1"), 1);
  grid.set_fault_plan(&plan);
  auto dup = spmspv_dist(a, x, arithmetic_semiring<double>(), {});
  const auto& hot = grid.hot();
  EXPECT_EQ(hot.logical_messages->value, clean_logical);
  EXPECT_EQ(hot.messages->value, 2 * clean_logical);  // every send doubled
  EXPECT_GT(hot.injected_dup->value, 0);  // one fate draw per transfer
  EXPECT_EQ(grid.time(), clean_time);  // duplicates overlap the original
  EXPECT_EQ(clean.to_local(), dup.to_local());
  grid.set_fault_plan(nullptr);
}

TEST(Transfer, StallsAddLatency) {
  auto grid = LocaleGrid::square(4, 1);
  auto a = erdos_renyi_dist<double>(grid, 300, 5.0, 3);
  auto x = random_dist_sparse_vec<double>(grid, 300, 40, 7);
  grid.reset();
  spmspv_dist(a, x, arithmetic_semiring<double>(), {});
  const double clean_time = grid.time();

  grid.reset();
  FaultPlan plan(FaultSpec::parse("stall:p=1,ms=0.05"), 1);
  grid.set_fault_plan(&plan);
  spmspv_dist(a, x, arithmetic_semiring<double>(), {});
  EXPECT_GT(grid.hot().injected_stall->value, 0);
  EXPECT_GT(grid.time(), clean_time);
  grid.set_fault_plan(nullptr);
}

TEST(Transfer, MessageFaultsPreserveResultsBitForBit) {
  auto grid = LocaleGrid::square(4, 2);
  auto a = erdos_renyi_dist<double>(grid, 400, 6.0, 5);
  auto x = random_dist_sparse_vec<double>(grid, 400, 50, 9);
  grid.reset();
  const auto clean = spmspv_dist(a, x, arithmetic_semiring<double>(), {});

  grid.reset();
  FaultPlan plan(FaultSpec::parse(
                     "drop:p=0.05;dup:p=0.03;corrupt:p=0.01;stall:p=0.01,ms=0.1"),
                 17);
  grid.set_fault_plan(&plan);
  const auto chaotic = spmspv_dist(a, x, arithmetic_semiring<double>(), {});
  EXPECT_GT(grid.hot().retries->value, 0);
  EXPECT_EQ(clean.to_local(), chaotic.to_local());
  grid.set_fault_plan(nullptr);
}

TEST(Chaos, SameSpecAndSeedGiveIdenticalMetricsAndResults) {
  auto run = [](std::string* metrics_json, double* time, BfsResult* out) {
    auto grid = LocaleGrid::square(4, 2);
    auto a = erdos_renyi_dist<double>(grid, 400, 6.0, 5);
    grid.reset();
    FaultPlan plan(FaultSpec::parse(
                       "drop:p=0.02;dup:p=0.01;corrupt:p=0.005;"
                       "stall:p=0.002,ms=0.1"),
                   99);
    grid.set_fault_plan(&plan);
    *out = bfs(a, 0, {});
    *metrics_json = grid.metrics().json();
    *time = grid.time();
    grid.set_fault_plan(nullptr);
  };
  std::string j1, j2;
  double t1 = 0.0, t2 = 0.0;
  BfsResult r1, r2;
  run(&j1, &t1, &r1);
  run(&j2, &t2, &r2);
  EXPECT_EQ(j1, j2);
  EXPECT_EQ(t1, t2);  // bit-identical simulated time
  EXPECT_EQ(r1.parent, r2.parent);
  EXPECT_EQ(r1.level_sizes, r2.level_sizes);
}

TEST(Checkpoint, DenseSparseHostScalarRoundTrip) {
  auto grid = LocaleGrid::square(4, 1);
  const Index n = 100;
  DistDenseVec<double> dense(grid, n, 0.0);
  for (Index i = 0; i < n; ++i) dense.at(i) = 0.5 * static_cast<double>(i);
  auto sparse = DistSparseVec<double>::from_sorted(
      grid, n, {3, 40, 77, 99}, {1.5, -2.0, 8.25, 0.125});
  const std::vector<Index> host{5, -1, 42};

  Checkpoint c;
  c.put_dense("dense", dense);
  c.put_sparse("sparse", sparse);
  c.put_host("host", host);
  c.put_scalar("level", Index{7});
  c.put_scalar("done", false);
  c.round = 4;
  EXPECT_TRUE(c.verify());
  EXPECT_GT(c.total_bytes(), 0);
  EXPECT_TRUE(c.has("dense"));
  EXPECT_FALSE(c.has("nope"));

  DistDenseVec<double> dense2(grid, n, -1.0);
  DistSparseVec<double> sparse2(grid, n);
  c.get_dense("dense", dense2);
  c.get_sparse("sparse", sparse2);
  for (Index i = 0; i < n; ++i) EXPECT_EQ(dense2.at(i), dense.at(i));
  EXPECT_EQ(sparse2.to_local(), sparse.to_local());
  EXPECT_TRUE(sparse2.check_invariants());
  EXPECT_EQ(c.get_host<Index>("host"), host);
  EXPECT_EQ(c.get_scalar<Index>("level"), 7);
  EXPECT_EQ(c.get_scalar<bool>("done"), false);
}

TEST(Checkpoint, OverwritingKeyReplacesEntry) {
  Checkpoint c;
  c.put_scalar("x", std::int64_t{1});
  c.put_scalar("x", std::int64_t{2});
  EXPECT_EQ(c.get_scalar<std::int64_t>("x"), 2);
  EXPECT_EQ(c.total_bytes(), static_cast<std::int64_t>(sizeof(std::int64_t)));
}

TEST(Checkpoint, ChecksumCatchesCorruption) {
  auto grid = LocaleGrid::square(4, 1);
  DistDenseVec<double> dense(grid, 64, 1.0);
  Checkpoint c;
  c.put_dense("dense", dense);
  ASSERT_TRUE(c.verify());
  c.find_mutable("dense")->blocks[1].bytes[0] ^= 0xFF;
  EXPECT_FALSE(c.verify());
  DistDenseVec<double> out(grid, 64, 0.0);
  EXPECT_THROW(c.get_dense("dense", out), Error);
}

TEST(Checkpoint, MissingKeyThrows) {
  Checkpoint c;
  EXPECT_THROW(c.get_scalar<int>("nope"), Error);
  auto grid = LocaleGrid::square(4, 1);
  DistDenseVec<double> out(grid, 10, 0.0);
  EXPECT_THROW(c.get_dense("nope", out), Error);
}

TEST(Checkpoint, SaveAndRestoreChargeSimulatedTime) {
  auto grid = LocaleGrid::square(4, 1);
  DistDenseVec<double> dense(grid, 4096, 1.0);
  Checkpoint c;
  c.put_dense("dense", dense);
  c.round = 1;
  const double t0 = grid.time();
  charge_checkpoint_save(grid, c);
  const double t1 = grid.time();
  EXPECT_GT(t1, t0);
  EXPECT_EQ(grid.metrics().counter("ckpt.saves").value, 1);
  EXPECT_EQ(grid.metrics().counter("ckpt.bytes").value, c.total_bytes());
  charge_checkpoint_restore(grid, c, 1 << 20);
  EXPECT_GT(grid.time(), t1);
  EXPECT_EQ(grid.metrics().counter("ckpt.restores").value, 1);
}

TEST(Kill, CoforallThrowsLocaleFailedOnce) {
  auto grid = LocaleGrid::square(4, 1);
  FaultPlan plan(FaultSpec::parse("kill:locale=2,at=0"), 1);
  grid.set_fault_plan(&plan);
  int ran = 0;
  try {
    grid.coforall_locales([&](LocaleCtx&) { ++ran; });
    FAIL() << "expected LocaleFailed";
  } catch (const LocaleFailed& e) {
    EXPECT_EQ(e.locale(), 2);
  }
  EXPECT_EQ(ran, 2);  // locales 0 and 1 dispatched before the dead one
  EXPECT_EQ(
      grid.metrics().counter("fault.injected", {{"kind", "kill"}}).value, 1);
  grid.set_fault_plan(nullptr);
}

TEST(Recovery, BfsRecoversBitIdenticalFromCheckpoint) {
  auto grid = LocaleGrid::square(4, 2);
  auto a = erdos_renyi_dist<double>(grid, 500, 8.0, 11);
  grid.reset();
  const BfsResult base = bfs(a, 0, {});
  const double total = grid.time();
  ASSERT_GT(total, 0.0);

  grid.reset();
  FaultPlan plan(
      FaultSpec::parse("kill:locale=1,at=" + std::to_string(total * 0.4)), 3);
  ResilienceOptions ropt;
  ropt.policy = RecoveryPolicy::kRollback;
  ropt.checkpoint_every = 2;
  RecoveryReport stats;
  const BfsResult rec =
      run_resilient(grid, &plan, bfs_recovery_loop(a, 0, {}), ropt, &stats);
  EXPECT_EQ(rec.parent, base.parent);
  EXPECT_EQ(rec.level_sizes, base.level_sizes);
  EXPECT_GE(stats.restarts, 1);
  EXPECT_GE(stats.checkpoints, 1);
  EXPECT_GE(grid.metrics().counter("recovery.restarts").value, 1);
  EXPECT_EQ(
      grid.metrics().counter("fault.injected", {{"kind", "kill"}}).value, 1);
  // The grid's previous (null) plan is restored by the driver.
  EXPECT_EQ(grid.fault_plan(), nullptr);
}

TEST(Recovery, SsspRecoversBitIdenticalFromCheckpoint) {
  auto grid = LocaleGrid::square(4, 2);
  auto a = erdos_renyi_dist<double>(grid, 400, 6.0, 13);
  grid.reset();
  const SsspResult base = sssp(a, 0, {});
  const double total = grid.time();
  ASSERT_GT(total, 0.0);

  grid.reset();
  FaultPlan plan(
      FaultSpec::parse("kill:locale=2,at=" + std::to_string(total * 0.5)), 3);
  ResilienceOptions ropt;
  ropt.policy = RecoveryPolicy::kRollback;
  ropt.checkpoint_every = 2;
  RecoveryReport stats;
  const SsspResult rec =
      run_resilient(grid, &plan, sssp_recovery_loop(a, 0, {}), ropt, &stats);
  EXPECT_EQ(rec.dist, base.dist);  // exact double equality
  EXPECT_EQ(rec.rounds, base.rounds);
  EXPECT_GE(stats.restarts, 1);
}

TEST(Recovery, PagerankRecoversBitIdenticalFromCheckpoint) {
  auto grid = LocaleGrid::square(4, 2);
  auto a = erdos_renyi_dist<double>(grid, 300, 6.0, 17);
  grid.reset();
  const PagerankResult base = pagerank(a, 0.85, 1e-8, 50);
  const double total = grid.time();
  ASSERT_GT(total, 0.0);

  grid.reset();
  FaultPlan plan(
      FaultSpec::parse("kill:locale=3,at=" + std::to_string(total * 0.5)), 3);
  ResilienceOptions ropt;
  ropt.policy = RecoveryPolicy::kRollback;
  ropt.checkpoint_every = 4;
  RecoveryReport stats;
  const PagerankResult rec =
      run_resilient(grid, &plan, pagerank_recovery_loop(a, 0.85, 1e-8, 50),
                    ropt, &stats);
  EXPECT_EQ(rec.rank, base.rank);  // exact double equality
  EXPECT_EQ(rec.iterations, base.iterations);
  EXPECT_EQ(rec.residual, base.residual);
  EXPECT_GE(stats.restarts, 1);
}

TEST(Recovery, WithoutCheckpointsRestartsFromScratch) {
  auto grid = LocaleGrid::square(4, 2);
  auto a = erdos_renyi_dist<double>(grid, 400, 6.0, 11);
  grid.reset();
  const BfsResult base = bfs(a, 0, {});
  const double total = grid.time();

  grid.reset();
  FaultPlan plan(
      FaultSpec::parse("kill:locale=1,at=" + std::to_string(total * 0.4)), 3);
  ResilienceOptions ropt;
  ropt.policy = RecoveryPolicy::kRollback;
  ropt.checkpoint_every = 0;  // no snapshots: recovery = full re-run
  RecoveryReport stats;
  const BfsResult rec =
      run_resilient(grid, &plan, bfs_recovery_loop(a, 0, {}), ropt, &stats);
  EXPECT_EQ(rec.parent, base.parent);
  EXPECT_EQ(rec.level_sizes, base.level_sizes);
  EXPECT_GE(stats.restarts, 1);
  EXPECT_EQ(stats.checkpoints, 0);
  EXPECT_EQ(grid.metrics().counter("ckpt.saves").value, 0);
  EXPECT_EQ(grid.metrics().counter("ckpt.restores").value, 0);
}

TEST(Recovery, FaultFreeRunUnderDriverMatchesPlainRun) {
  auto grid = LocaleGrid::square(4, 2);
  auto a = erdos_renyi_dist<double>(grid, 400, 6.0, 11);
  grid.reset();
  const BfsResult base = bfs(a, 0, {});

  grid.reset();
  ResilienceOptions ropt;
  ropt.policy = RecoveryPolicy::kRollback;
  ropt.checkpoint_every = 2;
  RecoveryReport stats;
  const BfsResult rec =
      run_resilient(grid, nullptr, bfs_recovery_loop(a, 0, {}), ropt, &stats);
  EXPECT_EQ(rec.parent, base.parent);
  EXPECT_EQ(rec.level_sizes, base.level_sizes);
  EXPECT_EQ(stats.restarts, 0);
  EXPECT_GE(stats.checkpoints, 1);  // cadence still paid, for the ablation
}

TEST(AggChannel, DroppedFlushIsResentAndDeliveredExactlyOnce) {
  auto grid = LocaleGrid::square(4, 1);
  FaultPlan plan(FaultSpec::parse("drop:p=1"), 5);
  RetryPolicy rp;
  rp.max_attempts = 2;
  grid.set_fault_plan(&plan);
  grid.set_retry_policy(rp);
  LocaleCtx ctx(grid, 0);
  int delivers = 0;
  {
    DstAggregator<int> agg(ctx,
                           [&](int, std::vector<int>& b) {
                             delivers += static_cast<int>(b.size());
                           });
    agg.push(1, 42);
    agg.flush_all();
    EXPECT_EQ(delivers, 1);  // re-sent on the wire, delivered once
    EXPECT_EQ(agg.stats().resends, 1);
  }
  EXPECT_EQ(grid.metrics().counter("agg.resends").value, 1);
  // flush_put models 3 one-way messages; both wire attempts pay them.
  EXPECT_EQ(grid.hot().logical_messages->value, 3);
  EXPECT_EQ(grid.hot().messages->value, 6);
  EXPECT_EQ(grid.metrics()
                .counter("comm.undeliverable", {{"path", "agg"}})
                .value,
            1);
  grid.set_fault_plan(nullptr);
}

}  // namespace
}  // namespace pgb
