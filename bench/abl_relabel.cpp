// Ablation: random vertex relabeling on skewed graphs. 2-D block
// distributions of R-MAT matrices overload the blocks holding the hubs;
// relabeling (as CombBLAS and the paper's reference [11] do before
// distribution) evens the load. Reports the imbalance metric and the
// modeled SpMSpV/BFS impact.
#include "bench_common.hpp"

#include "algo/bfs.hpp"
#include "core/permute.hpp"
#include "gen/random_vec.hpp"
#include "gen/rmat.hpp"

using namespace pgb;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int sc = static_cast<int>(
      cli.get_int("rmat-scale", 16, "R-MAT scale (2^s vertices)"));
  const bool csv = cli.get_bool("csv", false, "emit CSV instead of tables");
  cli.finish();

  bench::print_preamble("Ablation",
                        "random vertex relabeling on R-MAT graphs", 1.0);
  RmatParams p;
  p.scale = sc;
  p.edge_factor = 8;

  SpmspvOptions bulk;
  bulk.comm = CommMode::kBulk;

  Table t({"nodes", "imbalance before", "imbalance after", "BFS before",
           "BFS after"});
  for (int nodes : {4, 16, 64}) {
    auto grid = LocaleGrid::square(nodes, 24);
    auto a = rmat_dist(grid, p);
    const double imb_before = load_imbalance(a);
    auto b = permute_matrix(a, random_relabeling(a.nrows(), 5));
    const double imb_after = load_imbalance(b);

    grid.reset();
    bfs(a, 0, bulk);
    const double t_before = grid.time();
    grid.reset();
    bfs(b, 0, bulk);
    const double t_after = grid.time();

    t.row({Table::count(nodes), Table::num(imb_before),
           Table::num(imb_after), Table::time(t_before),
           Table::time(t_after)});
  }
  csv ? t.print_csv() : t.print("2^" + std::to_string(sc) +
                                " vertices, ef=8, bulk communication");
  return 0;
}
