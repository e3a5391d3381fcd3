// End-to-end BFS bench: the "hello world" the paper's operations were
// chosen to compose into. Runs BFS on an R-MAT graph across node counts,
// with the paper's fine-grained communication and with bulk transfers.
#include "bench_common.hpp"

#include "algo/bfs.hpp"
#include "algo/bfs_hybrid.hpp"
#include "gen/rmat.hpp"

using namespace pgb;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int sc =
      static_cast<int>(cli.get_int("rmat-scale", 18, "R-MAT scale (2^s vertices)"));
  const bool csv = cli.get_bool("csv", false, "emit CSV instead of tables");
  const std::string profile = bench::profile_flag(cli);
  const bool profile_only = cli.get_bool(
      "profile-only", false, "write profile reports only, skip the sweep");
  cli.finish();

  RmatParams p;
  p.scale = sc;
  p.edge_factor = 8;
  bench::print_preamble("BFS", "R-MAT graph, GraphBLAS-composed BFS", 1.0);
  std::printf("graph: 2^%d vertices, edge factor %lld (symmetrized)\n",
              p.scale, static_cast<long long>(p.edge_factor));

  // Traced 64-node runs folded into profile reports, one per comm
  // schedule (the BFS baselines under BENCH_profiles/).
  if (!profile.empty()) {
    auto grid = LocaleGrid::square(64, 24);
    auto a = rmat_dist(grid, p);
    char workload[96];
    std::snprintf(workload, sizeof workload,
                  "bfs rmat scale=%d ef=%lld source=0", p.scale,
                  static_cast<long long>(p.edge_factor));
    obs::TraceSession session;
    grid.set_trace_session(&session);
    for (CommMode mode :
         {CommMode::kFine, CommMode::kBulk, CommMode::kAggregated}) {
      grid.reset();  // also clears the attached session
      SpmspvOptions opt;
      opt.comm = mode;
      bfs(a, /*source=*/0, opt);
      bench::write_bench_profile(profile, to_string(mode), grid, session,
                                 workload, to_string(mode), 1);
    }
    grid.set_trace_session(nullptr);
    if (profile_only) return 0;
  }

  Table t({"nodes", "fine-grained (paper)", "bulk comm",
           "hybrid dir-opt", "levels", "reached"});
  for (int nodes : {1, 4, 16, 64}) {
    auto grid = LocaleGrid::square(nodes, 24);
    auto a = rmat_dist(grid, p);

    grid.reset();
    auto fine = bfs(a, /*source=*/0);
    const double t_fine = grid.time();

    SpmspvOptions bulk;
    bulk.comm = CommMode::kBulk;
    grid.reset();
    auto fast = bfs(a, /*source=*/0, bulk);
    const double t_bulk = grid.time();

    HybridBfsOptions hopt;
    hopt.spmspv = bulk;
    grid.reset();
    auto hybrid = bfs_hybrid(a, /*source=*/0, hopt);
    const double t_hybrid = grid.time();
    (void)hybrid;

    Index reached = 0;
    for (Index s : fine.level_sizes) reached += s;
    t.row({Table::count(nodes), Table::time(t_fine), Table::time(t_bulk),
           Table::time(t_hybrid),
           Table::count(static_cast<std::int64_t>(fine.level_sizes.size())),
           Table::count(reached)});
  }
  csv ? t.print_csv() : t.print("BFS, 24 threads/node");
  return 0;
}
