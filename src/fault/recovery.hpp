// The resilient driver: one loop that survives locale kills for every
// recovery policy.
//
// Iterative algorithms in this codebase are round-structured (BFS levels,
// Bellman-Ford relaxations, pagerank iterations). run_resilient runs
// such a loop to completion under a fault plan. When the grid's coforall
// dispatch reports a permanently failed locale (LocaleFailed), it fails
// over, restores the last snapshot and resumes. Re-executed rounds
// recompute over bit-identical inputs, so the recovered result is
// bit-for-bit the fault-free result; only modeled time and re-paid
// communication differ.
//
// RecoveryPolicy picks the snapshot store once and the failover:
//
//   kRollback  a stable-store Checkpoint (checkpoint.hpp) every
//              checkpoint_every rounds. A spare adopts the dead locale's
//              physical id, every locale restores, and up to
//              checkpoint_every rounds replay.
//   kSpare     a ReplicaStore (replica.hpp) in locale memory, flushed
//              incrementally every round. A spare adopts the dead
//              locale's physical id and only its blocks are rebuilt,
//              from its buddy mirror or its parity group.
//   kDegraded  the same store, but the dead *logical* locale is remapped
//              onto its buddy's host (a membership-epoch bump that every
//              comm helper, distribution view and clock charge consults)
//              and the run keeps going co-hosted on the survivors.
//
// With a flush per round, a rebuild replays at most the interrupted
// round. A loop that declares no state (no save/load) gets no store: a
// failure re-runs it from init. The ingest stream runs each of its
// idempotent stages that way, as a one-round loop under kDegraded.
//
// RecoverableLoop is the contract an algorithm exposes;
// algo/algo_recovery.hpp adapts BFS, SSSP and pagerank to it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "fault/checkpoint.hpp"
#include "fault/fault.hpp"
#include "fault/replica.hpp"
#include "runtime/locale_grid.hpp"

namespace pgb {

enum class RecoveryPolicy {
  kRollback,  ///< restore every locale from a stable-store checkpoint
  kSpare,     ///< a spare adopts the dead physical locale's identity
  kDegraded,  ///< remap the dead logical locale onto its buddy's host
};

inline const char* to_string(RecoveryPolicy p) {
  switch (p) {
    case RecoveryPolicy::kRollback:
      return "rollback";
    case RecoveryPolicy::kSpare:
      return "spare-rebuild";
    case RecoveryPolicy::kDegraded:
      return "degraded";
  }
  return "?";
}

/// The `--recovery` flag of pgb and pgb_serve: rollback | rebuild (onto
/// a spare) | degraded.
inline RecoveryPolicy parse_recovery_policy(const std::string& flag) {
  if (flag == "rollback") return RecoveryPolicy::kRollback;
  if (flag == "rebuild") return RecoveryPolicy::kSpare;
  if (flag == "degraded") return RecoveryPolicy::kDegraded;
  throw InvalidArgument("--recovery must be rollback, rebuild, or degraded");
}

/// Locale failures one run_resilient call survives; the next rethrows
/// LocaleFailed.
inline constexpr int kMaxFailures = 4;

struct ResilienceOptions {
  RecoveryPolicy policy = RecoveryPolicy::kDegraded;
  /// kRollback: snapshot every this many completed rounds (0 disables
  /// checkpointing: a failure restarts the loop from scratch).
  int checkpoint_every = 4;
  /// kSpare / kDegraded: replication scheme and cadence knobs.
  ReplicaOptions replica;
  /// Delivery guarantees installed on the grid for the run.
  RetryPolicy retry;
  /// Leave a degraded-mode remap installed on exit instead of restoring
  /// identity membership. A long-lived caller that drives *many* loops
  /// under one plan (the serving front end, the ingest stream) sets this
  /// so that after a kill every later loop starts on the surviving hosts
  /// directly: no logical locale maps to the dead host anymore, so no
  /// re-failure and no per-loop re-rebuild.
  bool keep_membership = false;
  /// Called after each failover, before the loop resumes, with the dead
  /// logical locale. Lets state that lives *outside* the driver's store
  /// (the ingest delta log and its base mirror) restore itself from its
  /// own replicas as part of the same recovery.
  std::function<void(int logical)> on_rebuild;
};

/// Structured outcome of a recovered run. `pgb` prints summary() in its
/// fault summary; the abl_recovery ablation compares sim_time_lost
/// across policies.
struct RecoveryReport {
  const char* mode = "none";  ///< rollback | spare-rebuild | degraded
  int restarts = 0;           ///< global checkpoint rollbacks taken
  int rebuilds = 0;           ///< localized rebuilds (spare or degraded)
  int checkpoints = 0;        ///< snapshots saved (or replica flushes)
  std::int64_t checkpoint_bytes = 0;  ///< sum over saved snapshots
  std::int64_t replica_bytes = 0;     ///< incremental replica bytes shipped
  std::int64_t bytes_restored = 0;    ///< bytes reloaded/shipped to rebuild
  std::int64_t rounds_replayed = 0;   ///< rounds re-executed after restores
  int degraded_locales = 0;  ///< logical locales co-hosted after remaps
  /// Simulated time a failure cost: discarded work since the last safe
  /// snapshot plus the restore/rebuild itself, summed over failures.
  double sim_time_lost = 0.0;

  std::string summary() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "mode=%s restarts=%d rebuilds=%d replayed=%lld "
                  "lost=%.3fms restored=%lld B",
                  mode, restarts, rebuilds,
                  static_cast<long long>(rounds_replayed),
                  sim_time_lost * 1e3,
                  static_cast<long long>(bytes_restored));
    return buf;
  }
};

/// The algorithm-side contract of run_resilient. `save`/`load` are the
/// snapshot contract; a loop that leaves them empty declares no state.
template <typename State, typename Result = State>
struct RecoverableLoop {
  std::function<State()> init;
  std::function<void(State&)> step;  ///< one round
  std::function<bool(const State&)> done;
  std::function<void(const State&, Checkpoint&)> save;
  std::function<State(const Checkpoint&)> load;
  /// Unchanging bytes a restored locale re-ships (the algorithm's matrix
  /// blocks): from the stable store on rollback, from its buddy
  /// otherwise.
  std::int64_t static_bytes = 0;
  /// Moves the caller-facing result out of the finished state.
  std::function<Result(State&)> result;
};

/// Runs `loop` to completion under `plan`, surviving up to kMaxFailures
/// locale kills per opt.policy. Installs `plan` and `opt.retry` on the
/// grid for the duration and restores the previous plan, retry policy
/// and (unless opt.keep_membership) membership mapping on every exit
/// path. `plan` may be null: the loop then runs fault-free, still paying
/// its snapshot cadence (that steady-state cost is what the
/// abl_fault_overhead and abl_recovery ablations price).
template <typename State, typename Result>
Result run_resilient(LocaleGrid& grid, FaultPlan* plan,
                     const RecoverableLoop<State, Result>& loop,
                     const ResilienceOptions& opt,
                     RecoveryReport* report = nullptr) {
  PGB_REQUIRE(opt.checkpoint_every >= 0,
              "recovery: checkpoint_every must be >= 0");
  struct Guard {
    LocaleGrid& g;
    FaultPlan* prev_plan;
    RetryPolicy prev_retry;
    bool restore_identity;
    ~Guard() {
      g.set_fault_plan(prev_plan);
      g.set_retry_policy(prev_retry);
      if (restore_identity && g.membership().remapped()) {
        g.restore_membership();
      }
    }
  } guard{grid, grid.fault_plan(), grid.retry_policy(),
          !opt.keep_membership && !grid.membership().remapped()};
  grid.set_fault_plan(plan);
  grid.set_retry_policy(opt.retry);
  if (report != nullptr) report->mode = to_string(opt.policy);

  // The snapshot store, picked once: a stable-store checkpoint for
  // rollback, in-memory replicas otherwise, none for a stateless loop.
  const bool rollback = opt.policy == RecoveryPolicy::kRollback;
  const bool stateful = static_cast<bool>(loop.save);
  const bool checkpointing = rollback && stateful && opt.checkpoint_every > 0;
  const bool replicating = !rollback && stateful;
  Checkpoint ckpt;
  std::optional<ReplicaStore> store;
  const auto safe_round = [&]() -> std::int64_t {
    if (rollback) return ckpt.round;
    return store.has_value() ? store->protected_round() : -1;
  };

  std::optional<State> state;
  std::int64_t rounds = 0;
  int failures = 0;
  int last_failed = -1;
  // Failovers whose on_rebuild hook has not completed. The hook runs
  // inside the guarded region, so a kill landing in it is one more
  // failure, and an interrupted hook re-runs after that failover.
  struct Failover {
    int logical;
    int dead_host;
    int count;                  ///< failures so far, this one included
    std::int64_t from;          ///< snapshot round resumed from (-1: none)
    std::int64_t lost_rounds;   ///< rounds to replay (report only)
  };
  std::vector<Failover> pending;
  // The last moment the run was "safe": work since then is what a
  // failure discards. Starts at run begin (failing before the first
  // snapshot restarts from scratch).
  double t_safe = grid.time();
  bool restoring = false;
  // Takes the snapshot due after `round` completed rounds, if any.
  const auto snapshot = [&](std::int64_t round) {
    if (store.has_value()) {
      loop.save(*state, store->staging());
      store->flush(round);
    } else if (checkpointing && round % opt.checkpoint_every == 0) {
      ckpt.clear();
      loop.save(*state, ckpt);
      ckpt.round = round;
      charge_checkpoint_save(grid, ckpt);
      if (report != nullptr) report->checkpoint_bytes += ckpt.total_bytes();
    } else {
      return false;
    }
    t_safe = grid.time();
    return true;
  };
  for (;;) {
    try {
      while (!pending.empty()) {
        const Failover f = pending.front();
        if (opt.on_rebuild) opt.on_rebuild(f.logical);
        pending.erase(pending.begin());
        grid.metrics().counter("recovery.restarts").inc();
        auto* session = grid.trace_session();
        if (session != nullptr && rollback) {
          session->instant(f.dead_host, "recovery.restart", grid.time(),
                           {{"restart", std::to_string(f.count)},
                            {"from_round", std::to_string(std::max(
                                               f.from, std::int64_t{0}))}});
        } else if (session != nullptr) {
          session->instant(f.dead_host, "recovery.rebuild_started",
                           grid.time(),
                           {{"logical", std::to_string(f.logical)},
                            {"mode", to_string(opt.policy)},
                            {"from_round", std::to_string(f.from)}});
        }
        if (report != nullptr) {
          ++(rollback ? report->restarts : report->rebuilds);
          report->rounds_replayed += f.lost_rounds;
        }
      }
      // The replica store is built inside the guarded loop: its one-time
      // static replication is a comm phase, and a kill landing there (or
      // a dead host still in the mapping on a later call under the same
      // plan) must fail over like any mid-loop failure.
      if (replicating && !store.has_value()) {
        store.emplace(grid, opt.replica, loop.static_bytes);
      }
      if (!state.has_value()) {
        if (safe_round() >= 0) {
          std::int64_t restored = 0;
          if (rollback) {
            charge_checkpoint_restore(grid, ckpt, loop.static_bytes);
            restored = ckpt.total_bytes() + loop.static_bytes;
            state.emplace(loop.load(ckpt));
          } else {
            restored = store->rebuild(last_failed);
            state.emplace(loop.load(store->restored()));
          }
          rounds = safe_round();
          if (report != nullptr) report->bytes_restored += restored;
        } else {
          // First run, or a failure before the first snapshot: start
          // from scratch (in degraded mode with the membership already
          // remapped, so the rerun avoids the dead host). Replicas prime
          // a round-0 snapshot; rollback takes none.
          state.emplace(loop.init());
          rounds = 0;
          if (store.has_value()) snapshot(0);
        }
        if (restoring) {
          // Everything between the last safe point and the end of the
          // restore is the failure's bill.
          if (report != nullptr) report->sim_time_lost += grid.time() - t_safe;
          restoring = false;
          t_safe = grid.time();
        }
      }
      while (!loop.done(*state)) {
        loop.step(*state);
        ++rounds;
        if (snapshot(rounds) && report != nullptr) ++report->checkpoints;
      }
      if (store.has_value() && report != nullptr) {
        report->replica_bytes = store->shipped_bytes();
      }
      return loop.result(*state);
    } catch (const LocaleFailed& lf) {
      if (++failures > kMaxFailures || plan == nullptr) throw;
      const int logical = lf.locale();
      const int dead_host = grid.host_of(logical);
      if (opt.policy == RecoveryPolicy::kDegraded) {
        const int new_host =
            grid.host_of(replica_buddy_of(logical, grid.num_locales()));
        if (new_host == dead_host || plan->is_down(new_host, grid.time())) {
          // The buddy died too (or an earlier remap already routed the
          // logical there): a second overlapping failure exceeds the
          // single-fault tolerance of the replica scheme.
          throw;
        }
        grid.remap_locale(logical, new_host);
        if (report != nullptr) ++report->degraded_locales;
      } else {
        // A spare adopts the dead physical locale's identity, so the
        // plan stops reporting it down.
        plan->mark_recovered(dead_host);
      }
      last_failed = logical;
      // A kill before the store's first flush (or during its static
      // replication) leaves no replicas to restore: drop the partial
      // store and rebuild it from scratch on the surviving mapping.
      const std::int64_t from = safe_round();
      if (from < 0) store.reset();
      // The hook, `recovery.restarts`, the trace instant and the report
      // follow at the top of the next attempt.
      pending.push_back({logical, dead_host, failures, from,
                         rounds - std::max(from, std::int64_t{0})});
      restoring = true;
      state.reset();  // restored from the snapshot (or scratch) above
    }
  }
}

}  // namespace pgb
