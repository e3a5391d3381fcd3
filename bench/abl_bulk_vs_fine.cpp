// Ablation: fine-grained vs bulk-synchronous communication in the
// distributed SpMSpV. The paper's Listing 8 moves vector elements one at
// a time; its discussion (Section IV) argues that "bulk-synchronous
// execution and batched communication" would mitigate the cost. This
// bench prints all four gather/scatter combinations from one fine and
// one bulk run. Each phase ends at a barrier, so its charge depends only
// on its own schedule: a mixed column is the gather of one run plus the
// local and scatter phases of the other, read from grid.trace().
#include "bench_common.hpp"

#include "core/ops.hpp"
#include "core/spmspv.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/random_vec.hpp"

using namespace pgb;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 1.0, "fraction of paper size");
  const bool csv = cli.get_bool("csv", false, "emit CSV instead of tables");
  cli.finish();

  const Index n = bench::scaled(1000000, scale);
  bench::print_preamble(
      "Ablation", "SpMSpV: fine-grained vs bulk gather/scatter", scale);

  const auto sr = arithmetic_semiring<std::int64_t>();
  Table t({"nodes", "fine/fine (paper)", "bulk gather", "bulk scatter",
           "bulk/bulk", "paper vs bulk"});
  for (int nodes : bench::node_sweep()) {
    auto grid = LocaleGrid::square(nodes, 24);
    auto a = erdos_renyi_dist<std::int64_t>(grid, n, 16.0, 5);
    auto x = random_dist_sparse_vec<std::int64_t>(grid, n, n / 50, 6);
    // Per schedule (0 fine, 1 bulk): the run's time, its gather, and
    // its local plus scatter phases.
    double total[2], gather[2], rest[2];
    for (int bulk : {0, 1}) {
      SpmspvOptions opt;
      opt.comm = bulk ? CommMode::kBulk : CommMode::kFine;
      grid.reset();
      spmspv_dist(a, x, sr, opt);
      total[bulk] = grid.time();
      gather[bulk] = grid.trace().get("gather");
      rest[bulk] = grid.trace().get("local") + grid.trace().get("scatter");
    }
    t.row({Table::count(nodes), Table::time(total[0]),
           Table::time(gather[1] + rest[0]), Table::time(gather[0] + rest[1]),
           Table::time(total[1]), Table::num(total[0] / total[1])});
  }
  csv ? t.print_csv() : t.print("ER matrix (n=1M, d=16, f=2%)");
  return 0;
}
