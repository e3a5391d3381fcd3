// pgb — command-line driver for the pgas-graphblas library.
//
// Loads a graph (Matrix Market file, or a generated Erdős–Rényi / R-MAT
// instance), lays it out on a simulated locale grid, runs one of the
// library's algorithms/operations, and reports the result summary plus
// the modeled execution time and its communication breakdown.
//
// Examples:
//   pgb --gen=rmat --rmat-scale=16 --op=bfs --nodes=16
//   pgb --matrix=web.mtx --op=pagerank --machine=modern
//   pgb --gen=er --n=1000000 --d=16 --op=spmspv --f=0.02 --comm=bulk
#include <cstdint>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>

#include "algo/algo_recovery.hpp"
#include "algo/bfs.hpp"
#include "algo/bfs_hybrid.hpp"
#include "algo/connected_components.hpp"
#include "algo/mis.hpp"
#include "algo/pagerank.hpp"
#include "algo/sssp.hpp"
#include "common.hpp"
#include "core/graphblas.hpp"
#include "gen/random_vec.hpp"
#include "io/matrix_market.hpp"
#include "util/cli.hpp"
#include "util/fnv.hpp"
#include "util/table.hpp"

using namespace pgb;

namespace {

void print_timing(LocaleGrid& grid) {
  std::printf("\nmodeled time: %s\n", Table::time(grid.time()).c_str());
  for (const auto& phase : grid.trace().phases()) {
    std::printf("  %-8s %s\n", phase.c_str(),
                Table::time(grid.trace().get(phase)).c_str());
  }
  const auto& cs = grid.comm_stats();
  std::printf("comm: %lld messages, %lld bulk transfers, "
              "%lld aggregator flushes, %.3g MB\n",
              static_cast<long long>(cs.messages),
              static_cast<long long>(cs.bulks),
              static_cast<long long>(cs.agg_flushes),
              static_cast<double>(cs.bytes) / 1e6);
}

/// Per-site inspector decision dump (--comm=auto). The same numbers are
/// published as `inspector.*` counters, so a --profile capture carries
/// them into pgb_diff, where a silent strategy flip between two runs
/// shows up as a structural diff.
void print_inspector(LocaleGrid& grid) {
  const auto sites = grid.inspector().report();
  if (sites.empty()) return;
  std::printf("\ninspector: %zu sites\n", sites.size());
  for (const auto& s : sites) {
    std::printf(
        "  %-18s calls=%lld last=%-9s fine/bulk/agg/repl=%lld/%lld/%lld/%lld "
        "elems=%lld pairs=%lld fanout=%.0f\n",
        s.site.c_str(), static_cast<long long>(s.calls),
        to_string(s.last_strategy), static_cast<long long>(s.decisions[0]),
        static_cast<long long>(s.decisions[1]),
        static_cast<long long>(s.decisions[2]),
        static_cast<long long>(s.decisions[3]),
        static_cast<long long>(s.last_footprint.elements),
        static_cast<long long>(s.last_footprint.pairs),
        s.last_footprint.fanout);
    if (s.observed_waves > 0 && s.predicted_total > 0.0) {
      // Observed charged time vs the inspector's pre-wave prediction;
      // waves whose own ratio drifts outside the 2x band around this
      // running ratio also bump `inspector.mispriced`.
      std::printf("  %-18s mispricing: observed/predicted=%.2fx over "
                  "%lld waves (%lld drifted outside 2x band)\n",
                  "", s.observed_total / s.predicted_total,
                  static_cast<long long>(s.observed_waves),
                  static_cast<long long>(s.mispriced_waves));
    }
  }
  const auto& mx = grid.metrics();
  auto cnt = [&mx](const char* name) {
    const obs::Counter* c = mx.find_counter(name);
    return static_cast<long long>(c ? c->value : 0);
  };
  std::printf(
      "  replica cache: %lld hits, %lld installs, %lld invalidations, "
      "%.3g MB shipped\n",
      cnt("inspector.cache.hits"), cnt("inspector.cache.installs"),
      cnt("inspector.cache.invalidations"),
      static_cast<double>(cnt("inspector.replicated_bytes")) / 1e6);
}

}  // namespace

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::string matrix = cli.get("matrix", "", "Matrix Market file");
  const std::string gen =
      cli.get("gen", "rmat", "generator when no --matrix: er | rmat");
  const Index n = cli.get_int("n", 100000, "ER vertices");
  const double d = cli.get_double("d", 8.0, "ER nonzeros per row");
  const std::int64_t rmat_scale =
      cli.get_int("rmat-scale", 14, "R-MAT scale, in [0, 62]");
  const std::string op = cli.get(
      "op", "bfs", "bfs | bfs-hybrid | cc | pagerank | sssp | mis | spmspv");
  const int nodes = static_cast<int>(cli.get_int("nodes", 4, "locales"));
  const int threads =
      static_cast<int>(cli.get_int("threads", 24, "threads per locale"));
  const Index source = cli.get_int("source", 0, "source vertex");
  const double f =
      cli.get_double("f", 0.02, "input-vector density for --op=spmspv");
  const std::string comm_flag = cli.get(
      "comm", "fine", "communication schedule: fine | bulk | agg | auto "
                      "(inspector-chosen per site)");
  const std::int64_t agg_capacity = cli.get_int(
      "agg-capacity", 2048, "aggregator buffer capacity (--comm=agg)");
  const std::string machine =
      cli.get("machine", "edison", "machine model: edison | modern");
  tools::Exports exports(cli);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 1, "generator seed"));
  const std::string faults = cli.get(
      "faults", "",
      "fault-injection spec, e.g. 'drop:p=0.01;stall:p=0.001,ms=0.5;"
      "kill:locale=3,at=0.002'");
  const std::uint64_t fault_seed = static_cast<std::uint64_t>(
      cli.get_int("fault-seed", 42, "fault plan RNG seed"));
  const int checkpoint_every = static_cast<int>(cli.get_int(
      "checkpoint-every", 0,
      "checkpoint every K rounds under --faults (0 = restart from scratch; "
      "bfs/sssp/pagerank)"));
  const int retry_max = static_cast<int>(cli.get_int(
      "retry-max", 4, "max send attempts per transfer under --faults"));
  const std::string recovery_flag = cli.get(
      "recovery", "rollback",
      "recovery driver under --faults (bfs/sssp/pagerank): rollback "
      "(checkpoint/restart) | rebuild (localized rebuild onto a spare) | "
      "degraded (rebuild onto the surviving locales)");
  const std::string replica_flag = cli.get(
      "replica", "buddy",
      "replication scheme for --recovery=rebuild|degraded: buddy | parity");
  const int parity_group = static_cast<int>(cli.get_int(
      "parity-group", 4, "locales per parity group (--replica=parity)"));
  const std::int64_t replica_chunk = cli.get_int(
      "replica-chunk", 4096, "replica dirty-diff chunk size in bytes");
  const double straggler_ms = cli.get_double(
      "straggler-threshold-ms", 0.0,
      "flag the slowest locale when barrier clock skew exceeds this "
      "(0 disables detection)");
  const double shed = cli.get_double(
      "shed", 0.0,
      "fraction of a flagged straggler's SpMSpV local multiply shed to a "
      "row peer, in [0, 1)");
  cli.finish();

  PGB_REQUIRE(machine == "edison" || machine == "modern",
              "--machine must be edison or modern");
  PGB_REQUIRE(agg_capacity >= 1,
              "--agg-capacity must be a positive element count");
  const RecoveryPolicy policy = parse_recovery_policy(recovery_flag);
  PGB_REQUIRE(replica_flag == "buddy" || replica_flag == "parity",
              "--replica must be buddy or parity");
  PGB_REQUIRE(straggler_ms >= 0.0, "--straggler-threshold-ms must be >= 0");
  PGB_REQUIRE(shed >= 0.0 && shed < 1.0, "--shed must be in [0, 1)");
  const MachineModel model =
      machine == "edison" ? MachineModel::edison() : MachineModel::modern();
  auto grid = LocaleGrid::square(nodes, threads, 1, model);
  exports.attach(grid);

  // --- load or generate the matrix (double values throughout) ---
  DistCsr<double> a(grid, 0, 0);
  if (!matrix.empty()) {
    MatrixMarketInfo info;
    a = read_matrix_market_dist(grid, matrix, &info);
    std::printf("loaded %s: %lld x %lld, %lld nonzeros%s\n", matrix.c_str(),
                static_cast<long long>(a.nrows()),
                static_cast<long long>(a.ncols()),
                static_cast<long long>(a.nnz()),
                info.symmetric ? " (symmetric)" : "");
  } else {
    a = tools::generate_graph(grid, gen, n, d, rmat_scale, seed);
  }
  std::printf("grid: %dx%d locales, %d threads, machine=%s\n\n", grid.rows(),
              grid.cols(), threads, machine.c_str());

  SpmspvOptions comm;
  comm.comm = parse_comm_mode(comm_flag);
  comm.agg_capacity = agg_capacity;
  comm.straggler_shed = shed;
  if (straggler_ms > 0.0) {
    grid.set_straggler_threshold(straggler_ms * 1e-3);
  }

  // --- fault plan + delivery guarantees ---
  RetryPolicy retry;
  retry.max_attempts = retry_max;
  retry.validate();
  PGB_REQUIRE(checkpoint_every >= 0, "--checkpoint-every must be >= 0");
  std::optional<FaultPlan> plan;
  if (!faults.empty()) {
    plan.emplace(FaultSpec::parse(faults), fault_seed);
    std::printf("faults: %s (seed %llu, retry-max %d)\n",
                plan->spec().to_string().c_str(),
                static_cast<unsigned long long>(fault_seed), retry_max);
  }
  ResilienceOptions ropt;
  ropt.policy = policy;
  ropt.checkpoint_every = checkpoint_every;
  ropt.replica.scheme = replica_flag == "parity" ? ReplicaScheme::kParity
                                                 : ReplicaScheme::kBuddy;
  ropt.replica.parity_group = parity_group;
  ropt.replica.chunk_bytes = replica_chunk;
  ropt.retry = retry;
  RecoveryReport report;

  grid.reset();
  if (plan.has_value()) {
    grid.set_fault_plan(&*plan);
    grid.set_retry_policy(retry);
  }
  if (op == "bfs") {
    // Under a fault plan BFS runs through the resilient driver —
    // checkpoint rollback or localized rebuild per --recovery — which
    // survives locale kills with a bit-identical result.
    const BfsResult res =
        !plan.has_value()
            ? bfs(a, source, comm)
            : run_resilient(grid, &*plan, bfs_recovery_loop(a, source, comm),
                            ropt, &report);
    Index reached = 0;
    for (Index s : res.level_sizes) reached += s;
    std::printf("bfs: reached %lld vertices in %zu levels\n",
                static_cast<long long>(reached), res.level_sizes.size());
  } else if (op == "bfs-hybrid") {
    HybridBfsOptions h;
    h.spmspv = comm;
    auto res = bfs_hybrid(a, source, h);
    int bu = 0;
    for (bool b : res.level_was_bottom_up) bu += b ? 1 : 0;
    std::printf("bfs-hybrid: %zu levels (%d bottom-up)\n",
                res.level_sizes.size(), bu);
  } else if (op == "cc") {
    auto res = connected_components(a);
    std::printf("cc: %lld components in %d rounds\n",
                static_cast<long long>(res.num_components), res.rounds);
  } else if (op == "pagerank") {
    const PagerankResult res =
        !plan.has_value()
            ? pagerank(a)
            : run_resilient(grid, &*plan,
                            pagerank_recovery_loop(a, 0.85, 1e-8, 100), ropt,
                            &report);
    Index best = 0;
    for (Index v = 1; v < a.nrows(); ++v) {
      if (res.rank[static_cast<std::size_t>(v)] >
          res.rank[static_cast<std::size_t>(best)]) {
        best = v;
      }
    }
    std::printf("pagerank: %d iterations; top vertex %lld (%.3g)\n",
                res.iterations, static_cast<long long>(best),
                res.rank[static_cast<std::size_t>(best)]);
  } else if (op == "sssp") {
    const SsspResult res =
        !plan.has_value()
            ? sssp(a, source, comm)
            : run_resilient(grid, &*plan, sssp_recovery_loop(a, source, comm),
                            ropt, &report);
    Index reached = 0;
    for (double dv : res.dist) {
      if (dv != SsspResult::kUnreachable) ++reached;
    }
    std::printf("sssp: %lld reachable vertices, %d rounds\n",
                static_cast<long long>(reached), res.rounds);
  } else if (op == "mis") {
    auto res = mis(a, seed);
    std::printf("mis: independent set of %lld vertices in %d rounds\n",
                static_cast<long long>(res.set_size), res.rounds);
  } else if (op == "spmspv") {
    auto x = random_dist_sparse_vec<double>(
        grid, a.nrows(), static_cast<Index>(f * static_cast<double>(a.nrows())),
        seed + 1);
    grid.reset();
    auto y = spmspv_dist(a, x, arithmetic_semiring<double>(), comm);
    // FNV over the output's (index, value-bits) stream: a printed
    // content hash, so CI can diff the result across comm schedules —
    // every schedule must produce byte-identical output.
    std::uint64_t h = kPgbFnvBasis;
    const auto yl = y.to_local();
    for (Index p = 0; p < yl.nnz(); ++p) {
      const Index i = yl.index_at(p);
      const double v = yl.value_at(p);
      h = fnv1a_extend(h, &i, sizeof(i));
      h = fnv1a_extend(h, &v, sizeof(v));
    }
    std::printf("spmspv: nnz(x)=%lld -> nnz(y)=%lld hash=%016llx\n",
                static_cast<long long>(x.nnz()),
                static_cast<long long>(y.nnz()),
                static_cast<unsigned long long>(h));
  } else {
    throw InvalidArgument("unknown --op: " + op);
  }
  print_timing(grid);
  if (comm.comm == CommMode::kAuto) {
    print_inspector(grid);
  }
  if (plan.has_value()) {
    const auto& hot = grid.hot();
    const auto kills =
        grid.metrics().counter("fault.injected", {{"kind", "kill"}}).value;
    std::printf(
        "faults: injected drop=%lld dup=%lld corrupt=%lld stall=%lld "
        "kill=%lld; retries=%lld timeouts=%lld (%lld logical msgs)\n",
        static_cast<long long>(hot.injected_drop->value),
        static_cast<long long>(hot.injected_dup->value),
        static_cast<long long>(hot.injected_corrupt->value),
        static_cast<long long>(hot.injected_stall->value),
        static_cast<long long>(kills),
        static_cast<long long>(hot.retries->value),
        static_cast<long long>(hot.timeouts->value),
        static_cast<long long>(hot.logical_messages->value));
    if (report.restarts > 0 || report.rebuilds > 0 ||
        report.checkpoints > 0) {
      std::printf("recovery: %s\n", report.summary().c_str());
    }
  }
  if (grid.straggler_threshold() > 0.0) {
    std::printf("stragglers: %lld detections (threshold %.3g ms)\n",
                static_cast<long long>(
                    grid.metrics().counter("straggler.detected").value),
                grid.straggler_threshold() * 1e3);
  }
  // Workload identity for --profile. The default (rollback) recovery
  // keeps the legacy string, so existing committed profiles still diff
  // cleanly.
  std::string workload = op;
  if (!matrix.empty()) {
    workload += " " + matrix;
  } else if (gen == "er") {
    char g[64];
    std::snprintf(g, sizeof g, " er n=%lld d=%g", static_cast<long long>(n),
                  d);
    workload += g;
  } else {
    workload += " rmat scale=" + std::to_string(rmat_scale);
  }
  if (op == "spmspv") {
    char fs[32];
    std::snprintf(fs, sizeof fs, " f=%g", f);
    workload += fs;
  }
  if (op == "bfs" || op == "bfs-hybrid" || op == "sssp") {
    workload += " source=" + std::to_string(static_cast<long long>(source));
  }
  if (!faults.empty()) {
    workload += " faults=" + faults;
    if (policy != RecoveryPolicy::kRollback) {
      workload += " recovery=" + recovery_flag;
    }
  }
  exports.write(grid, {workload, to_string(comm.comm), seed, machine});
  return 0;
}

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pgb: error: %s\n", e.what());
    return 2;
  }
}
