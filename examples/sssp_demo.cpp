// Single-source shortest paths demo: Bellman-Ford iterations on the
// (min, +) semiring — GraphBLAS beyond Boolean algebra. Builds a
// weighted Erdős–Rényi digraph, runs SSSP, and prints the distance
// distribution plus the modeled cost per communication mode.
//
//   ./build/examples/sssp_demo [--n=100000] [--d=8] [--nodes=16]
#include <cstdio>
#include <vector>

#include "algo/sssp.hpp"
#include "gen/erdos_renyi.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace pgb;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const Index n = cli.get_int("n", 100000, "vertices");
  const double d = cli.get_double("d", 8.0, "average out-degree");
  const int nodes = static_cast<int>(cli.get_int("nodes", 16, "locales"));
  const Index source = cli.get_int("source", 0, "source vertex");
  cli.finish();

  auto grid = LocaleGrid::square(nodes, 24);
  // ER structure with uniform random weights in [1, 10).
  auto a = erdos_renyi_dist<double>(grid, n, d, /*seed=*/3);
  for (int l = 0; l < grid.num_locales(); ++l) {
    Xoshiro256 rng(99, static_cast<std::uint64_t>(l));
    for (auto& v : a.block(l).csr.values()) {
      v = 1.0 + 9.0 * rng.next_double();
    }
  }
  std::printf("graph: %lld vertices, %lld weighted edges; grid %dx%d\n\n",
              static_cast<long long>(n), static_cast<long long>(a.nnz()),
              grid.rows(), grid.cols());

  grid.reset();
  auto res = sssp(a, source);
  const double t_fine = grid.time();

  SpmspvOptions bulk;
  bulk.comm = CommMode::kBulk;
  grid.reset();
  auto res2 = sssp(a, source, bulk);
  const double t_bulk = grid.time();
  (void)res2;

  // Distance histogram in weight-units buckets.
  Index reached = 0;
  double dmax = 0;
  for (double dist : res.dist) {
    if (dist != SsspResult::kUnreachable) {
      ++reached;
      dmax = std::max(dmax, dist);
    }
  }
  std::vector<Index> hist(10, 0);
  for (double dist : res.dist) {
    if (dist != SsspResult::kUnreachable) {
      const int b = std::min<int>(9, static_cast<int>(10.0 * dist /
                                                      (dmax + 1e-12)));
      ++hist[static_cast<std::size_t>(b)];
    }
  }
  Table t({"distance bucket", "vertices"});
  for (int b = 0; b < 10; ++b) {
    char label[48];
    std::snprintf(label, sizeof label, "[%.1f, %.1f)", dmax * b / 10.0,
                  dmax * (b + 1) / 10.0);
    t.row({label, Table::count(hist[static_cast<std::size_t>(b)])});
  }
  t.print("shortest-distance distribution");

  std::printf("\nreached %lld of %lld vertices in %d rounds\n",
              static_cast<long long>(reached), static_cast<long long>(n),
              res.rounds);
  std::printf("modeled time: %s fine-grained, %s bulk (%0.1fx)\n",
              Table::time(t_fine).c_str(), Table::time(t_bulk).c_str(),
              t_fine / t_bulk);
  return 0;
}
