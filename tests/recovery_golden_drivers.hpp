// The golden recovery test's only calls into the recovery-driver API.
//
// tests/test_recovery_golden.cpp pins what the drivers do, bit for bit,
// and must stay unchanged when their API changes; every call it makes
// into that API lives here instead.
#pragma once

#include <vector>

#include "algo/algo_recovery.hpp"
#include "service/service.hpp"

namespace pgb::golden {

enum class Policy { kRollback, kSpare, kDegradedBuddy, kDegradedParity };

/// How a golden case runs the driver: rollback snapshots every 2
/// rounds, parity groups hold 4 locales, and `keep_membership` leaves a
/// degraded remap installed after the call.
struct Driver {
  Policy policy;
  bool keep_membership;
};

inline ResilienceOptions options(const Driver& d) {
  ResilienceOptions o;
  o.policy = d.policy == Policy::kRollback ? RecoveryPolicy::kRollback
             : d.policy == Policy::kSpare  ? RecoveryPolicy::kSpare
                                           : RecoveryPolicy::kDegraded;
  o.checkpoint_every = 2;
  if (d.policy == Policy::kDegradedParity) {
    o.replica.scheme = ReplicaScheme::kParity;
    o.replica.parity_group = 4;
  }
  o.keep_membership = d.keep_membership;
  return o;
}

inline BfsResult run_bfs(const Driver& d, const DistCsr<double>& a,
                         Index source, FaultPlan* plan, RecoveryReport* r) {
  return run_resilient(a.grid(), plan, bfs_recovery_loop(a, source, {}),
                       options(d), r);
}

inline SsspResult run_sssp(const Driver& d, const DistCsr<double>& a,
                           Index source, FaultPlan* plan, RecoveryReport* r) {
  return run_resilient(a.grid(), plan, sssp_recovery_loop(a, source, {}),
                       options(d), r);
}

inline PagerankResult run_pagerank(const Driver& d, const DistCsr<double>& a,
                                   double damping, double tol, int iters,
                                   FaultPlan* plan, RecoveryReport* r) {
  return run_resilient(a.grid(), plan,
                       pagerank_recovery_loop(a, damping, tol, iters),
                       options(d), r);
}

inline std::vector<BfsResult> run_bfs_batch(const Driver& d,
                                            const DistCsr<double>& a,
                                            const std::vector<Index>& sources,
                                            FaultPlan* plan,
                                            RecoveryReport* r) {
  return run_resilient(a.grid(), plan, bfs_batch_recovery_loop(a, sources, {}),
                       options(d), r);
}

inline std::vector<SsspResult> run_sssp_batch(
    const Driver& d, const DistCsr<double>& a,
    const std::vector<Index>& sources, FaultPlan* plan, RecoveryReport* r) {
  return run_resilient(a.grid(), plan,
                       sssp_batch_recovery_loop(a, sources, {}), options(d),
                       r);
}

/// Serves under `plan`, keeping a degraded remap between batches.
inline void attach_plan(ServiceConfig& cfg, FaultPlan* plan) {
  cfg.plan = plan;
  cfg.resilience.keep_membership = true;
}

}  // namespace pgb::golden
