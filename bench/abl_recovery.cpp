// Ablation: rollback vs localized rebuild when a locale dies.
//
// Two workloads over the Fig 8 Erdős–Rényi matrix:
//
// BFS (iterated SpMSpV) prices steady-state replication — its rounds
// are wildly uneven (one peak-frontier round dominates), so it is the
// honest workload for the overhead gate but a degenerate one for
// recovery granularity (the interrupted round is replayed by rollback
// and rebuild alike):
//   baseline     plain BFS — no fault plan, no protection;
//   replication  fault-free BFS under the rebuild driver — isolates the
//                cost of buddy replication (incremental update-log
//                flushes at every phase boundary).
//
// Pagerank has uniform rounds, which is where recovery granularity
// shows: rollback discards up to checkpoint_every rounds of work plus a
// global restore, a localized rebuild discards at most the interrupted
// round plus a 1/N-sized restore:
//   pr-baseline  plain pagerank;
//   rollback     a locale killed mid-run, recovered by global restart
//                from the last stable checkpoint (ckpt every 8 rounds);
//   spare        the same kill, recovered by rebuilding only the dead
//                locale's blocks from its buddy mirror onto a spare;
//   degraded     the same kill, the dead locale's blocks remapped onto
//                its surviving buddy host (N-1 hosts carry N locales);
//   degraded-par the same, but parity-group replicas (XOR of 4) instead
//                of full buddy mirrors — less memory, pricier rebuild.
//
// Every regime must produce a bit-identical result.  Two gates are
// enforced at 64 locales: localized rebuild loses < 0.5x the simulated
// time rollback loses, and steady-state replication costs < 10% of the
// unprotected run.  --json=PATH emits a machine-readable baseline.
#include "bench_common.hpp"

#include <cstdio>
#include <string>
#include <vector>

#include "algo/algo_recovery.hpp"
#include "algo/bfs.hpp"
#include "algo/pagerank.hpp"
#include "gen/erdos_renyi.hpp"

using namespace pgb;

namespace {

struct Sample {
  int nodes = 0;
  std::string regime;
  double time = 0.0;
  double vs_base = 1.0;
  std::int64_t messages = 0;
  std::int64_t replica_bytes = 0;
  std::int64_t bytes_restored = 0;
  std::int64_t replayed = 0;
  int rebuilds = 0;
  int restarts = 0;
  double time_lost = 0.0;
  bool identical = true;  ///< result matches the baseline bit-for-bit
};

bool same_result(const BfsResult& a, const BfsResult& b) {
  return a.parent == b.parent && a.level_sizes == b.level_sizes;
}

bool same_result(const PagerankResult& a, const PagerankResult& b) {
  return a.rank == b.rank && a.iterations == b.iterations;
}

void emit_json(const std::string& path, Index n, double d,
               std::uint64_t seed, const std::vector<Sample>& samples) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  PGB_REQUIRE(out != nullptr, "cannot open --json path: " + path);
  std::fprintf(out,
               "{\n  \"bench\": \"abl_recovery\",\n"
               "  \"workload\": {\"kind\": \"erdos-renyi bfs\", "
               "\"n\": %lld, \"d\": %g, \"seed\": %llu},\n"
               "  \"machine\": \"edison\",\n  \"samples\": [\n",
               static_cast<long long>(n), d,
               static_cast<unsigned long long>(seed));
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::fprintf(out,
                 "    {\"nodes\": %d, \"regime\": \"%s\", "
                 "\"modeled_time_s\": %.6e, \"vs_base\": %.4f, "
                 "\"messages\": %lld, \"replica_bytes\": %lld, "
                 "\"bytes_restored\": %lld, \"rounds_replayed\": %lld, "
                 "\"rebuilds\": %d, \"restarts\": %d, "
                 "\"sim_time_lost_s\": %.6e, \"identical\": %s}%s\n",
                 s.nodes, s.regime.c_str(), s.time, s.vs_base,
                 static_cast<long long>(s.messages),
                 static_cast<long long>(s.replica_bytes),
                 static_cast<long long>(s.bytes_restored),
                 static_cast<long long>(s.replayed), s.rebuilds, s.restarts,
                 s.time_lost, s.identical ? "true" : "false",
                 i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s (%zu samples)\n", path.c_str(), samples.size());
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 1.0, "fraction of paper size");
  const std::string json =
      cli.get("json", "", "write a machine-readable baseline to this path");
  const std::uint64_t seed = bench::seed_flag(cli);
  const std::uint64_t fault_seed = static_cast<std::uint64_t>(
      cli.get_int("fault-seed", 7, "seed of the fault plan RNG"));
  cli.finish();

  const Index n = bench::scaled(1000000, scale);
  const double d = 16.0;
  bench::print_preamble(
      "Ablation", "locale-kill recovery: checkpoint rollback vs localized "
      "rebuild from in-memory replicas (spare and degraded)", scale);

  std::vector<Sample> samples;
  bool all_identical = true;
  bool gates_hold = true;
  Table t({"nodes", "regime", "time", "vs base", "rebuilds", "restarts",
           "replayed", "lost ms", "repl MB", "identical"});
  for (int nodes : {16, 64}) {
    auto grid = LocaleGrid::square(nodes, 24);
    auto a = erdos_renyi_dist<double>(grid, n, d, seed);

    auto record = [&](const std::string& regime, bool identical,
                      double base_time, const RecoveryReport* rs) {
      Sample s;
      s.nodes = nodes;
      s.regime = regime;
      s.time = grid.time();
      s.vs_base = base_time > 0.0 ? s.time / base_time : 1.0;
      s.messages = grid.hot().messages->value;
      if (rs != nullptr) {
        s.replica_bytes = rs->replica_bytes;
        s.bytes_restored = rs->bytes_restored;
        s.replayed = rs->rounds_replayed;
        s.rebuilds = rs->rebuilds;
        s.restarts = rs->restarts;
        s.time_lost = rs->sim_time_lost;
      }
      s.identical = identical;
      all_identical = all_identical && s.identical;
      samples.push_back(s);
      t.row({Table::count(nodes), regime, Table::time(s.time),
             Table::num(s.vs_base), Table::count(s.rebuilds),
             Table::count(s.restarts), Table::count(s.replayed),
             Table::num(s.time_lost * 1e3),
             Table::num(static_cast<double>(s.replica_bytes) / 1e6),
             s.identical ? "yes" : "NO"});
      return s;
    };

    // BFS leg: the replication-overhead gate on the Fig 8 workload.
    grid.reset();
    const BfsResult bfs_base = bfs(a, 0, {});
    const double bfs_time = grid.time();
    record("baseline", true, bfs_time, nullptr);

    Sample repl;
    {
      grid.reset();
      RecoveryReport rs;
      const BfsResult res = run_resilient(
          grid, nullptr, bfs_recovery_loop(a, 0, {}), ResilienceOptions{}, &rs);
      repl = record("replication", same_result(res, bfs_base), bfs_time, &rs);
    }

    // Pagerank leg: uniform rounds expose recovery granularity.
    const double damping = 0.85, tol = 1e-8;
    const int max_iters = 40;
    grid.reset();
    const PagerankResult pr_base = pagerank(a, damping, tol, max_iters);
    const double pr_time = grid.time();
    record("pr-baseline", true, pr_time, nullptr);
    const double kill_at = pr_time * 0.6;
    const auto pr_loop = pagerank_recovery_loop(a, damping, tol, max_iters);
    auto kill_spec = [&] {
      return FaultSpec::parse("kill:locale=1,at=" + std::to_string(kill_at));
    };

    // Kill one locale 60% in; global rollback to the last checkpoint
    // (up to 8 rounds of work discarded, full-state restore).
    Sample rollback;
    {
      grid.reset();
      FaultPlan plan(kill_spec(), fault_seed);
      ResilienceOptions ropt;
      ropt.policy = RecoveryPolicy::kRollback;
      ropt.checkpoint_every = 8;
      RecoveryReport rs;
      const PagerankResult res = run_resilient(grid, &plan, pr_loop, ropt, &rs);
      rollback = record("rollback", same_result(res, pr_base), pr_time, &rs);
    }

    // The same kill, recovered by localized rebuild from buddy mirrors:
    // onto a spare host, then degraded onto the surviving N-1.
    Sample spare, degraded;
    {
      grid.reset();
      FaultPlan plan(kill_spec(), fault_seed);
      ResilienceOptions bopt;
      bopt.policy = RecoveryPolicy::kSpare;
      RecoveryReport rs;
      const PagerankResult res = run_resilient(grid, &plan, pr_loop, bopt, &rs);
      spare = record("spare", same_result(res, pr_base), pr_time, &rs);
    }
    {
      grid.reset();
      FaultPlan plan(kill_spec(), fault_seed);
      RecoveryReport rs;
      const PagerankResult res =
          run_resilient(grid, &plan, pr_loop, ResilienceOptions{}, &rs);
      degraded = record("degraded", same_result(res, pr_base), pr_time, &rs);
    }
    {
      grid.reset();
      FaultPlan plan(kill_spec(), fault_seed);
      ResilienceOptions bopt;
      bopt.replica.scheme = ReplicaScheme::kParity;
      bopt.replica.parity_group = 4;
      RecoveryReport rs;
      const PagerankResult res = run_resilient(grid, &plan, pr_loop, bopt, &rs);
      record("degraded-par", same_result(res, pr_base), pr_time, &rs);
    }

    // Acceptance gates, checked at the paper's 64-locale point.
    if (nodes == 64) {
      const double repl_overhead = repl.vs_base;
      std::printf(
          "\n64 locales: replication overhead %.1f%%, time lost "
          "rollback %.3f ms, spare %.3f ms, degraded %.3f ms\n",
          (repl_overhead - 1.0) * 100.0, rollback.time_lost * 1e3,
          spare.time_lost * 1e3, degraded.time_lost * 1e3);
      if (repl_overhead >= 1.10) {
        gates_hold = false;
        std::printf("GATE FAILED: replication overhead >= 10%%\n");
      }
      if (spare.time_lost >= 0.5 * rollback.time_lost ||
          degraded.time_lost >= 0.5 * rollback.time_lost) {
        gates_hold = false;
        std::printf("GATE FAILED: localized rebuild lost >= 0.5x the "
                    "simulated time rollback lost\n");
      }
    }
  }
  t.print();

  std::printf("\nall regimes bit-identical to baseline: %s\n",
              all_identical ? "yes" : "NO");
  PGB_REQUIRE(all_identical,
              "recovery regimes diverged from the baseline result");
  PGB_REQUIRE(gates_hold, "recovery acceptance gates failed at 64 locales");
  if (!json.empty()) emit_json(json, n, d, seed, samples);
  return 0;
}
