// Golden pins for the recovery drivers. Every round-structured algorithm
// (BFS, SSSP, pagerank and the fused BFS/SSSP batches) runs under every
// recovery policy (checkpoint rollback, spare rebuild, degraded rebuild
// over buddy mirrors and over parity groups), fault-free and with one
// locale kill at three points: at t=0, just before the first snapshot,
// and mid-run. The ingest stream runs with a kill inside each of its
// stages and inside a query batch that restores it through the
// service's rebuild hook.
//
// Each case folds what the run exposes into one FNV-1a hash and
// compares it with a literal:
//   algorithms  the result, the bits of grid.time(), every
//               RecoveryReport field, the recovery.*, replica.*, ckpt.*,
//               membership.remaps and comm.messages/bytes counters, the
//               membership mapping, and every span, instant and counter
//               sample of the trace;
//   ingest      every published graph's ingest_graph_hash, the bits of
//               grid.time(), IngestStats and the ingest.* counters.
// A refactor of the drivers must leave this file unchanged: every call
// into the driver API is in recovery_golden_drivers.hpp. Only a
// deliberate change to recovery charging may re-capture the literals;
// the test prints the new table line on mismatch.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "gen/erdos_renyi.hpp"
#include "ingest/ingest.hpp"
#include "obs/trace.hpp"
#include "recovery_golden_drivers.hpp"
#include "service/service.hpp"

namespace pgb {
namespace {

/// FNV-1a accumulator over the pieces of one case.
struct Hasher {
  std::uint64_t h = kPgbFnvBasis;
  void raw(const void* p, std::size_t n) { h = fnv1a_extend(h, p, n); }
  template <typename T>
  void pod(const T& v) {
    raw(&v, sizeof v);
  }
  void str(const std::string& s) {
    pod(s.size());
    raw(s.data(), s.size());
  }
  template <typename T>
  void vec(const std::vector<T>& v) {
    pod(v.size());
    raw(v.data(), v.size() * sizeof(T));
  }
};

void hash_counters(Hasher& hs, LocaleGrid& grid,
                   const std::vector<std::string>& prefixes) {
  for (const auto& [key, v] : grid.metrics().snapshot().values) {
    for (const std::string& p : prefixes) {
      if (key.rfind(p, 0) == 0) {
        hs.str(key);
        hs.pod(v.counter);
        break;
      }
    }
  }
}

void hash_args(Hasher& hs, const obs::TraceArgs& args) {
  hs.pod(args.size());
  for (const auto& a : args) {
    hs.str(a.key);
    hs.str(a.value);
  }
}

void hash_trace(Hasher& hs, const obs::TraceSession& s) {
  for (const auto& e : s.spans()) {
    hs.str(e.name);
    hs.pod(e.track);
    hs.pod(e.depth);
    hs.pod(e.sim_begin);
    hs.pod(e.sim_end);
    hash_args(hs, e.args);
  }
  for (const auto& e : s.instants()) {
    hs.str(e.name);
    hs.pod(e.track);
    hs.pod(e.sim_ts);
    hash_args(hs, e.args);
  }
  for (const auto& c : s.counter_samples()) {
    hs.str(c.name);
    hs.pod(c.sim_ts);
    hs.pod(c.value);
  }
}

void hash_report(Hasher& hs, const RecoveryReport& r) {
  hs.str(r.mode);
  hs.pod(r.restarts);
  hs.pod(r.rebuilds);
  hs.pod(r.checkpoints);
  hs.pod(r.checkpoint_bytes);
  hs.pod(r.replica_bytes);
  hs.pod(r.bytes_restored);
  hs.pod(r.rounds_replayed);
  hs.pod(r.degraded_locales);
  hs.pod(r.sim_time_lost);
}

void hash_membership(Hasher& hs, const LocaleGrid& grid) {
  for (int l = 0; l < grid.num_locales(); ++l) hs.pod(grid.host_of(l));
  hs.pod(grid.membership().remapped());
  hs.pod(grid.membership_epoch());
}

void hash_bfs(Hasher& hs, const BfsResult& r) {
  hs.vec(r.parent);
  hs.vec(r.level_sizes);
}

void hash_sssp(Hasher& hs, const SsspResult& r) {
  hs.vec(r.dist);
  hs.pod(r.rounds);
}

// ---- algorithms × policies ---------------------------------------------

using golden::Policy;

enum class Alg { kBfs, kSssp, kPagerank, kBfsBatch, kSsspBatch };
enum class Kill { kNone, kAtZero, kBeforeSnapshot, kMidRun };

const char* name(Alg a) {
  switch (a) {
    case Alg::kBfs: return "Alg::kBfs";
    case Alg::kSssp: return "Alg::kSssp";
    case Alg::kPagerank: return "Alg::kPagerank";
    case Alg::kBfsBatch: return "Alg::kBfsBatch";
    case Alg::kSsspBatch: return "Alg::kSsspBatch";
  }
  return "?";
}
const char* name(Policy p) {
  switch (p) {
    case Policy::kRollback: return "Policy::kRollback";
    case Policy::kSpare: return "Policy::kSpare";
    case Policy::kDegradedBuddy: return "Policy::kDegradedBuddy";
    case Policy::kDegradedParity: return "Policy::kDegradedParity";
  }
  return "?";
}
const char* name(Kill k) {
  switch (k) {
    case Kill::kNone: return "Kill::kNone";
    case Kill::kAtZero: return "Kill::kAtZero";
    case Kill::kBeforeSnapshot: return "Kill::kBeforeSnapshot";
    case Kill::kMidRun: return "Kill::kMidRun";
  }
  return "?";
}

struct AlgCase {
  Alg alg;
  Policy policy;
  Kill kill;
  bool keep_membership;
  std::uint64_t want;
};

constexpr int kVictim = 1;  ///< buddy 5 on 8 locales; parity group 0
const std::vector<Index> kSources = {0, 99, 500};
constexpr double kDamping = 0.85, kTol = 1e-8;
constexpr int kIters = 30;

DistCsr<double> golden_graph(LocaleGrid& grid) {
  return erdos_renyi_dist<double>(grid, 600, 6.0, 17);
}

/// Fault-free modeled time of the plain algorithm (no driver): the
/// mid-run kill lands at half of it.
double plain_time(Alg alg) {
  auto grid = LocaleGrid::square(8, 2);
  const auto a = golden_graph(grid);
  grid.reset();
  switch (alg) {
    case Alg::kBfs: bfs(a, 0, {}); break;
    case Alg::kSssp: sssp(a, 0, {}); break;
    case Alg::kPagerank: pagerank(a, kDamping, kTol, kIters); break;
    case Alg::kBfsBatch: bfs_batch(a, kSources, {}); break;
    case Alg::kSsspBatch: sssp_batch(a, kSources, {}); break;
  }
  return grid.time();
}

void run_driver(const AlgCase& c, const DistCsr<double>& a, FaultPlan* plan,
                RecoveryReport* r, Hasher& hs) {
  const golden::Driver d{c.policy, c.keep_membership};
  switch (c.alg) {
    case Alg::kBfs:
      hash_bfs(hs, golden::run_bfs(d, a, 0, plan, r));
      break;
    case Alg::kSssp:
      hash_sssp(hs, golden::run_sssp(d, a, 0, plan, r));
      break;
    case Alg::kPagerank: {
      const PagerankResult res =
          golden::run_pagerank(d, a, kDamping, kTol, kIters, plan, r);
      hs.vec(res.rank);
      hs.pod(res.iterations);
      hs.pod(res.residual);
      break;
    }
    case Alg::kBfsBatch:
      for (const BfsResult& res :
           golden::run_bfs_batch(d, a, kSources, plan, r)) {
        hash_bfs(hs, res);
      }
      break;
    case Alg::kSsspBatch:
      for (const SsspResult& res :
           golden::run_sssp_batch(d, a, kSources, plan, r)) {
        hash_sssp(hs, res);
      }
      break;
  }
}

/// Runs `c` with its victim killed at `at`, traced into `session`, and
/// returns the case hash.
std::uint64_t run_alg(const AlgCase& c, double at,
                      obs::TraceSession& session) {
  auto grid = LocaleGrid::square(8, 2);
  const auto a = golden_graph(grid);
  FaultSpec spec;
  FaultRule kill;
  kill.kind = FaultKind::kLocaleFail;
  kill.locale = kVictim;
  kill.at_time = at;
  spec.rules.push_back(kill);
  FaultPlan plan(spec, 7);
  grid.reset();
  grid.set_trace_session(&session);
  RecoveryReport report;
  Hasher hs;
  run_driver(c, a, c.kill == Kill::kNone ? nullptr : &plan, &report, hs);
  grid.set_trace_session(nullptr);
  hs.pod(grid.time());
  hash_report(hs, report);
  hash_counters(hs, grid,
                {"recovery.", "replica.", "ckpt.", "membership.remaps",
                 "comm.messages", "comm.bytes"});
  hash_membership(hs, grid);
  hash_trace(hs, session);
  return hs.h;
}

/// Where the kill lands. kBeforeSnapshot reads the fault-free run of the
/// same driver: the replica policies die as their priming flush starts
/// (after the store's static setup, so the store exists but holds no
/// round yet); rollback dies halfway to its first checkpoint.
double kill_time(const AlgCase& c) {
  switch (c.kill) {
    case Kill::kNone:
    case Kill::kAtZero:
      return 0.0;
    case Kill::kMidRun:
      return 0.5 * plain_time(c.alg);
    case Kill::kBeforeSnapshot:
      break;
  }
  AlgCase ref = c;
  ref.kill = Kill::kNone;
  obs::TraceSession session;
  run_alg(ref, 0.0, session);
  const bool rollback = c.policy == Policy::kRollback;
  for (const auto& sp : session.spans()) {
    if (sp.track != kVictim) continue;
    if (rollback && sp.name == "checkpoint") return 0.5 * sp.sim_begin;
    if (!rollback && sp.name == "replica.flush") return sp.sim_begin;
  }
  ADD_FAILURE() << "no snapshot in the fault-free run";
  return 0.0;
}

std::uint64_t run_alg_case(const AlgCase& c) {
  obs::TraceSession session;
  return run_alg(c, kill_time(c), session);
}

const std::vector<AlgCase>& alg_cases() {
  static const std::vector<AlgCase> cases = {
      {Alg::kBfs, Policy::kRollback, Kill::kNone, false, 0x185ffceec4d93e63ull},
      {Alg::kBfs, Policy::kRollback, Kill::kAtZero, false,
       0xa088ac32018fafc4ull},
      {Alg::kBfs, Policy::kRollback, Kill::kBeforeSnapshot, false,
       0x6c611a01a0084dd4ull},
      {Alg::kBfs, Policy::kRollback, Kill::kMidRun, false,
       0x8df3684aab1102abull},
      {Alg::kBfs, Policy::kSpare, Kill::kNone, false, 0x73efd1313f400ce1ull},
      {Alg::kBfs, Policy::kSpare, Kill::kAtZero, false, 0x5e6b39409f0c11e6ull},
      {Alg::kBfs, Policy::kSpare, Kill::kBeforeSnapshot, false,
       0x15198f7558a7d53aull},
      {Alg::kBfs, Policy::kSpare, Kill::kMidRun, false, 0x648a1a0c61cf9522ull},
      {Alg::kBfs, Policy::kDegradedBuddy, Kill::kNone, false,
       0x5476933cb4e4c0e3ull},
      {Alg::kBfs, Policy::kDegradedBuddy, Kill::kAtZero, false,
       0x22355a7bbe49c9d7ull},
      {Alg::kBfs, Policy::kDegradedBuddy, Kill::kBeforeSnapshot, false,
       0xd73fa04e457a88f5ull},
      {Alg::kBfs, Policy::kDegradedBuddy, Kill::kMidRun, false,
       0xcc67f204aab62e4aull},
      {Alg::kBfs, Policy::kDegradedParity, Kill::kNone, false,
       0x5476933cb4e4c0e3ull},
      {Alg::kBfs, Policy::kDegradedParity, Kill::kAtZero, false,
       0xb099865afbc5ef13ull},
      {Alg::kBfs, Policy::kDegradedParity, Kill::kBeforeSnapshot, false,
       0xbfa0108adf19ef3cull},
      {Alg::kBfs, Policy::kDegradedParity, Kill::kMidRun, false,
       0xa8caa957b20b96dull},
      {Alg::kBfs, Policy::kDegradedBuddy, Kill::kMidRun, true,
       0xfef4b70ccd21b4f4ull},
      {Alg::kBfs, Policy::kDegradedParity, Kill::kMidRun, true,
       0xc210e1ea3ea76bdbull},
      {Alg::kSssp, Policy::kRollback, Kill::kNone, false,
       0xdfc2184c505e7e45ull},
      {Alg::kSssp, Policy::kRollback, Kill::kAtZero, false,
       0x42ae060621a6c9abull},
      {Alg::kSssp, Policy::kRollback, Kill::kBeforeSnapshot, false,
       0x5044219ef7afbefbull},
      {Alg::kSssp, Policy::kRollback, Kill::kMidRun, false,
       0xb525f6b260601556ull},
      {Alg::kSssp, Policy::kSpare, Kill::kNone, false, 0x6ed3785ac7ff931eull},
      {Alg::kSssp, Policy::kSpare, Kill::kAtZero, false, 0x69851b8a402f1f3eull},
      {Alg::kSssp, Policy::kSpare, Kill::kBeforeSnapshot, false,
       0xfdf71327fcad9764ull},
      {Alg::kSssp, Policy::kSpare, Kill::kMidRun, false, 0xaacde8edd66cdf9full},
      {Alg::kSssp, Policy::kDegradedBuddy, Kill::kNone, false,
       0x3698313e9aa742eaull},
      {Alg::kSssp, Policy::kDegradedBuddy, Kill::kAtZero, false,
       0x6a86d4f3bef9bf38ull},
      {Alg::kSssp, Policy::kDegradedBuddy, Kill::kBeforeSnapshot, false,
       0x71579f6f6d0ef564ull},
      {Alg::kSssp, Policy::kDegradedBuddy, Kill::kMidRun, false,
       0xa7651ac8935ea18cull},
      {Alg::kSssp, Policy::kDegradedParity, Kill::kNone, false,
       0x3698313e9aa742eaull},
      {Alg::kSssp, Policy::kDegradedParity, Kill::kAtZero, false,
       0x2b1d45314338be24ull},
      {Alg::kSssp, Policy::kDegradedParity, Kill::kBeforeSnapshot, false,
       0x7c554a0e15a899dcull},
      {Alg::kSssp, Policy::kDegradedParity, Kill::kMidRun, false,
       0x5754a829f1afa052ull},
      {Alg::kSssp, Policy::kDegradedBuddy, Kill::kMidRun, true,
       0x144a659cab4746a2ull},
      {Alg::kSssp, Policy::kDegradedParity, Kill::kMidRun, true,
       0x15d37fc952b81670ull},
      {Alg::kPagerank, Policy::kRollback, Kill::kNone, false,
       0xca81e5291e82943ull},
      {Alg::kPagerank, Policy::kRollback, Kill::kAtZero, false,
       0x87ad0a7e58b35c2dull},
      {Alg::kPagerank, Policy::kRollback, Kill::kBeforeSnapshot, false,
       0x8409ebbef5d4648aull},
      {Alg::kPagerank, Policy::kRollback, Kill::kMidRun, false,
       0x554665028b71498ull},
      {Alg::kPagerank, Policy::kSpare, Kill::kNone, false,
       0xeff70bacdf2b1643ull},
      {Alg::kPagerank, Policy::kSpare, Kill::kAtZero, false,
       0xc86c9d62e72e2f90ull},
      {Alg::kPagerank, Policy::kSpare, Kill::kBeforeSnapshot, false,
       0x825afe0907a79931ull},
      {Alg::kPagerank, Policy::kSpare, Kill::kMidRun, false,
       0x103d1b79d4f25c5cull},
      {Alg::kPagerank, Policy::kDegradedBuddy, Kill::kNone, false,
       0xa809e1a87266e1f3ull},
      {Alg::kPagerank, Policy::kDegradedBuddy, Kill::kAtZero, false,
       0x6ba35d00db461febull},
      {Alg::kPagerank, Policy::kDegradedBuddy, Kill::kBeforeSnapshot, false,
       0xdfb9cf9758f7fbd7ull},
      {Alg::kPagerank, Policy::kDegradedBuddy, Kill::kMidRun, false,
       0xbe1dc7f670fa9db5ull},
      {Alg::kPagerank, Policy::kDegradedParity, Kill::kNone, false,
       0xa809e1a87266e1f3ull},
      {Alg::kPagerank, Policy::kDegradedParity, Kill::kAtZero, false,
       0x715daa96552dd34bull},
      {Alg::kPagerank, Policy::kDegradedParity, Kill::kBeforeSnapshot, false,
       0x12c01522f52795daull},
      {Alg::kPagerank, Policy::kDegradedParity, Kill::kMidRun, false,
       0x8386bf888a4b3eeaull},
      {Alg::kPagerank, Policy::kDegradedBuddy, Kill::kMidRun, true,
       0x786493cfd424c77ull},
      {Alg::kPagerank, Policy::kDegradedParity, Kill::kMidRun, true,
       0x46bfeb6b61f15ea0ull},
      {Alg::kBfsBatch, Policy::kRollback, Kill::kNone, false,
       0xa49b8f31da1b59b8ull},
      {Alg::kBfsBatch, Policy::kRollback, Kill::kAtZero, false,
       0xc9131b0d51e043b1ull},
      {Alg::kBfsBatch, Policy::kRollback, Kill::kBeforeSnapshot, false,
       0x51e21e0d62153868ull},
      {Alg::kBfsBatch, Policy::kRollback, Kill::kMidRun, false,
       0x33e573fd61d5adbeull},
      {Alg::kBfsBatch, Policy::kSpare, Kill::kNone, false,
       0xb01395aff605740eull},
      {Alg::kBfsBatch, Policy::kSpare, Kill::kAtZero, false,
       0x6b20f19a406c3df1ull},
      {Alg::kBfsBatch, Policy::kSpare, Kill::kBeforeSnapshot, false,
       0xdb5a86adce503c39ull},
      {Alg::kBfsBatch, Policy::kSpare, Kill::kMidRun, false,
       0x30f9d9ee64cc05a1ull},
      {Alg::kBfsBatch, Policy::kDegradedBuddy, Kill::kNone, false,
       0x3884221d71899094ull},
      {Alg::kBfsBatch, Policy::kDegradedBuddy, Kill::kAtZero, false,
       0x83b350b3dbae7940ull},
      {Alg::kBfsBatch, Policy::kDegradedBuddy, Kill::kBeforeSnapshot, false,
       0x1ad98f16e53cb798ull},
      {Alg::kBfsBatch, Policy::kDegradedBuddy, Kill::kMidRun, false,
       0x8a3070330de8727cull},
      {Alg::kBfsBatch, Policy::kDegradedParity, Kill::kNone, false,
       0x3884221d71899094ull},
      {Alg::kBfsBatch, Policy::kDegradedParity, Kill::kAtZero, false,
       0x9e98cd0a94c076eeull},
      {Alg::kBfsBatch, Policy::kDegradedParity, Kill::kBeforeSnapshot, false,
       0xdb00fa1fd2d2db81ull},
      {Alg::kBfsBatch, Policy::kDegradedParity, Kill::kMidRun, false,
       0x204ece3f980bac7full},
      {Alg::kBfsBatch, Policy::kDegradedBuddy, Kill::kMidRun, true,
       0x9cfad98b14bcf082ull},
      {Alg::kBfsBatch, Policy::kDegradedParity, Kill::kMidRun, true,
       0xcccad1ef4228a321ull},
      {Alg::kSsspBatch, Policy::kRollback, Kill::kNone, false,
       0x468704f7ee662947ull},
      {Alg::kSsspBatch, Policy::kRollback, Kill::kAtZero, false,
       0x878cedb521ae5385ull},
      {Alg::kSsspBatch, Policy::kRollback, Kill::kBeforeSnapshot, false,
       0x2cd90432ba93500aull},
      {Alg::kSsspBatch, Policy::kRollback, Kill::kMidRun, false,
       0xb3f0d452def2ea3bull},
      {Alg::kSsspBatch, Policy::kSpare, Kill::kNone, false,
       0x26540abafdf200c2ull},
      {Alg::kSsspBatch, Policy::kSpare, Kill::kAtZero, false,
       0x783109b3ab2e0affull},
      {Alg::kSsspBatch, Policy::kSpare, Kill::kBeforeSnapshot, false,
       0x15b1f54d5165cadbull},
      {Alg::kSsspBatch, Policy::kSpare, Kill::kMidRun, false,
       0xb8baf955d57ce87bull},
      {Alg::kSsspBatch, Policy::kDegradedBuddy, Kill::kNone, false,
       0x4476006683ee01b6ull},
      {Alg::kSsspBatch, Policy::kDegradedBuddy, Kill::kAtZero, false,
       0xec9854cd1cf29699ull},
      {Alg::kSsspBatch, Policy::kDegradedBuddy, Kill::kBeforeSnapshot, false,
       0xc764277dcf8e1e56ull},
      {Alg::kSsspBatch, Policy::kDegradedBuddy, Kill::kMidRun, false,
       0xfe9e6eecb1cf3357ull},
      {Alg::kSsspBatch, Policy::kDegradedParity, Kill::kNone, false,
       0x4476006683ee01b6ull},
      {Alg::kSsspBatch, Policy::kDegradedParity, Kill::kAtZero, false,
       0x27cddddf7eb48192ull},
      {Alg::kSsspBatch, Policy::kDegradedParity, Kill::kBeforeSnapshot, false,
       0xef53c0bd1d296b92ull},
      {Alg::kSsspBatch, Policy::kDegradedParity, Kill::kMidRun, false,
       0x10d25e10b5a532ull},
      {Alg::kSsspBatch, Policy::kDegradedBuddy, Kill::kMidRun, true,
       0x1f75e794dbb3686dull},
      {Alg::kSsspBatch, Policy::kDegradedParity, Kill::kMidRun, true,
       0x6fa6ed440fc674a4ull},
  };
  return cases;
}

TEST(RecoveryGolden, EveryAlgorithmUnderEveryPolicy) {
  // 5 algorithms × (4 policies × 4 kill points + keep_membership under
  // both degraded schemes).
  ASSERT_EQ(alg_cases().size(), 5u * (4u * 4u + 2u));
  for (const AlgCase& c : alg_cases()) {
    const std::uint64_t got = run_alg_case(c);
    EXPECT_EQ(got, c.want) << "    {" << name(c.alg) << ", "
                           << name(c.policy) << ", " << name(c.kill) << ", "
                           << (c.keep_membership ? "true" : "false") << ", 0x"
                           << std::hex << got << "ull},";
  }
}

// ---- the ingest stream -------------------------------------------------

enum class Stage {
  kNone,          ///< fault-free
  kApplyRoute,    ///< apply's routing stage
  kApplyLog,      ///< apply's log + mirror stage
  kPublishFold,   ///< publish's fold stage
  kPublishBuild,  ///< publish's materialize stage
  kCompact,       ///< the compaction stage of a publish
  kQueryBatch,    ///< a query batch, restored through the rebuild hook
};

const char* name(Stage s) {
  switch (s) {
    case Stage::kNone: return "Stage::kNone";
    case Stage::kApplyRoute: return "Stage::kApplyRoute";
    case Stage::kApplyLog: return "Stage::kApplyLog";
    case Stage::kPublishFold: return "Stage::kPublishFold";
    case Stage::kPublishBuild: return "Stage::kPublishBuild";
    case Stage::kCompact: return "Stage::kCompact";
    case Stage::kQueryBatch: return "Stage::kQueryBatch";
  }
  return "?";
}

struct IngestCase {
  Stage stage;
  std::uint64_t want;
};

constexpr int kIngestVictim = 2;  ///< buddy 6 on 8 locales
constexpr int kIngestBatches = 5;
constexpr int kKilledBatch = 3;  ///< the apply/publish the kill lands in
constexpr Index kIngestN = 400;

/// Victim clock readings of the fault-free script: where the apply and
/// the publish of batch kKilledBatch start, where the first compaction
/// from then on starts, and the query drain before that batch.
struct StageClocks {
  double apply = 0.0;
  double publish = 0.0;
  double compact = 0.0;
  double drain_begin = 0.0;
  double drain_end = 0.0;
};

/// One scripted session, traced into `session`: a service over an ER
/// graph with an ingest stream wired into its rebuild hook. Batches
/// 1..kIngestBatches are applied and published; three BFS queries are
/// served just before batch kKilledBatch. `clocks` (when non-null)
/// records the victim's clock at the stage boundaries.
std::uint64_t run_ingest_script(FaultPlan* plan, StageClocks* clocks,
                                obs::TraceSession& session) {
  auto grid = LocaleGrid::square(8, 2);
  const auto a = erdos_renyi_dist<double>(grid, kIngestN, 4.0, 23);
  grid.reset();
  grid.set_trace_session(&session);
  RecoveryReport report;
  ServiceConfig cfg;
  cfg.batch_max = 4;
  golden::attach_plan(cfg, plan);
  cfg.report = &report;
  GraphService svc(grid, cfg);
  const auto h = svc.store().load(std::make_shared<DistCsr<double>>(a));
  IngestOptions iopt;
  iopt.compact_every = 300;
  IngestStream stream(grid, svc.store(), h, a, iopt);
  svc.set_rebuild_hook(
      [&](int logical) { stream.recover_after_rebuild(logical); });
  if (plan != nullptr) grid.set_fault_plan(plan);
  MutationRng rng{61};
  IngestMix mix;
  mix.erase = 1;
  Hasher hs;
  StageClocks seen;
  const auto victim_now = [&] { return grid.clock(kIngestVictim).now(); };
  for (std::int64_t s = 1; s <= kIngestBatches; ++s) {
    if (s == kKilledBatch) {
      seen.drain_begin = victim_now();
      for (const Index src : {Index{0}, Index{77}, Index{301}}) {
        QuerySpec q;
        q.source = src;
        svc.submit(h, q, grid.time());
      }
      svc.drain();
      seen.drain_end = victim_now();
      seen.apply = victim_now();
    }
    stream.apply(make_mutation_batch(rng, kIngestN, 64, mix, s));
    if (s == kKilledBatch) seen.publish = victim_now();
    stream.publish();
    hs.pod(ingest_graph_hash(*svc.store().snapshot(h).graph));
  }
  // The first compaction from the killed batch on, on the victim's
  // track: its span opens at the victim's clock as the stage starts.
  for (const auto& sp : session.spans()) {
    if (sp.name == "ingest.compact" && sp.track == kIngestVictim &&
        sp.sim_begin >= seen.publish) {
      seen.compact = sp.sim_begin;
      break;
    }
  }
  if (clocks != nullptr) *clocks = seen;
  grid.set_trace_session(nullptr);
  grid.set_fault_plan(nullptr);
  hs.pod(grid.time());
  const IngestStats& st = stream.stats();
  for (const std::int64_t v :
       {st.batches, st.deltas, st.inserts, st.deletes, st.publishes,
        st.compactions, st.replays, st.pages_replayed, st.pages_discarded,
        st.log_bytes, st.base_bytes}) {
    hs.pod(v);
  }
  hash_counters(hs, grid, {"ingest."});
  return hs.h;
}

std::uint64_t run_ingest_killed(double at, obs::TraceSession& session) {
  FaultSpec spec;
  FaultRule kill;
  kill.kind = FaultKind::kLocaleFail;
  kill.locale = kIngestVictim;
  kill.at_time = at;
  spec.rules.push_back(kill);
  FaultPlan plan(spec, 9);
  return run_ingest_script(&plan, nullptr, session);
}

/// A kill is detected where a coforall dispatches the victim at a clock
/// at or past the kill time. Killing at a stage's start clock lands in
/// its first coforall; killing one ulp past the clock that detection
/// reported lands in the next coforall instead.
double next_dispatch_kill(double at) {
  obs::TraceSession session;
  run_ingest_killed(at, session);
  for (const auto& in : session.instants()) {
    if (in.name == "fault.locale_failed") {
      return std::nextafter(in.sim_ts,
                            std::numeric_limits<double>::infinity());
    }
  }
  ADD_FAILURE() << "the kill at " << at << " never fired";
  return at;
}

std::uint64_t run_ingest_case(Stage stage) {
  obs::TraceSession session;
  if (stage == Stage::kNone) {
    return run_ingest_script(nullptr, nullptr, session);
  }
  // The reference runs under a plan that never fires, so the queries take
  // the same driver (and the same modeled time) as in the killed run.
  StageClocks c;
  {
    FaultPlan idle(FaultSpec{}, 9);
    obs::TraceSession ref;
    run_ingest_script(&idle, &c, ref);
  }
  EXPECT_GT(c.compact, c.publish)
      << "the script must compact from batch " << kKilledBatch << " on";
  double at = 0.0;
  switch (stage) {
    case Stage::kNone: break;
    case Stage::kApplyRoute: at = c.apply; break;
    case Stage::kApplyLog: at = next_dispatch_kill(c.apply); break;
    case Stage::kPublishFold: at = c.publish; break;
    case Stage::kPublishBuild: at = next_dispatch_kill(c.publish); break;
    case Stage::kCompact: at = c.compact; break;
    case Stage::kQueryBatch:
      at = 0.5 * (c.drain_begin + c.drain_end);
      break;
  }
  return run_ingest_killed(at, session);
}

const std::vector<IngestCase>& ingest_cases() {
  static const std::vector<IngestCase> cases = {
      {Stage::kNone, 0x53dd116083b4acebull},
      {Stage::kApplyRoute, 0x1e3759cfd1e1eb5cull},
      {Stage::kApplyLog, 0x46fc0e7de47d7d50ull},
      {Stage::kPublishFold, 0xd22604ce66a54ad8ull},
      {Stage::kPublishBuild, 0xee037854ffd3d22bull},
      {Stage::kCompact, 0xd4e9e5f86dd5a93dull},
      {Stage::kQueryBatch, 0x1a7ad440e67fb17ull},
  };
  return cases;
}

TEST(RecoveryGolden, IngestKillInEveryStage) {
  ASSERT_EQ(ingest_cases().size(), 7u);
  for (const IngestCase& c : ingest_cases()) {
    const std::uint64_t got = run_ingest_case(c.stage);
    EXPECT_EQ(got, c.want) << "    {" << name(c.stage) << ", 0x" << std::hex
                           << got << "ull},";
  }
}

}  // namespace
}  // namespace pgb
