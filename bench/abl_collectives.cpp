// Ablation: team collectives, the facility the paper's Section IV asks
// Chapel to provide ("Support for collective communication might improve
// the productivity and performance"). Compares distributed SpMSpV under
// its three communication modes — the paper's element-wise transfers,
// hand-rolled bulk point-to-point, and MPI-style tree collectives — and
// shows the raw collective schedules underneath.
#include "bench_common.hpp"

#include "core/ops.hpp"
#include "core/spmspv.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/random_vec.hpp"
#include "runtime/collectives.hpp"

using namespace pgb;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 1.0, "fraction of paper size");
  const bool csv = cli.get_bool("csv", false, "emit CSV instead of tables");
  cli.finish();

  bench::print_preamble("Ablation", "collectives vs point-to-point", scale);

  // ---- raw schedules: serial sends vs binomial/recursive-doubling ----
  {
    Table t({"members", "bcast serial", "bcast tree", "allgather serial",
             "allgather tree"});
    for (int nloc : {4, 16, 64}) {
      std::vector<int> all(static_cast<std::size_t>(nloc));
      for (int i = 0; i < nloc; ++i) all[static_cast<std::size_t>(i)] = i;
      double times[4];
      int k = 0;
      for (auto algo :
           {CollectiveAlgo::kSerialSends, CollectiveAlgo::kTree}) {
        auto g = LocaleGrid::square(nloc, 24);
        broadcast(g, all, 0, 1 << 20, algo);
        times[k] = g.time();
        g.reset();
        allgather(g, all, 1 << 14, algo);
        times[k + 2] = g.time();
        ++k;
      }
      t.row({Table::count(nloc), Table::time(times[0]),
             Table::time(times[1]), Table::time(times[2]),
             Table::time(times[3])});
    }
    csv ? t.print_csv() : t.print("1 MB broadcast / 16 KB-per-rank allgather");
  }

  // ---- SpMSpV end-to-end under the three communication modes ----
  const Index n = bench::scaled(1000000, scale);
  auto run = [&](LocaleGrid& grid, const DistCsr<std::int64_t>& a,
                 const DistSparseVec<std::int64_t>& x,
                 const SpmspvOptions& opt, double* gather, double* scatter) {
    grid.reset();
    spmspv_dist(a, x, arithmetic_semiring<std::int64_t>(), opt);
    *gather = grid.trace().get("gather");
    *scatter = grid.trace().get("scatter");
    return grid.time();
  };

  Table t({"nodes", "fine-grained (paper)", "bulk p2p", "collectives",
           "coll gather", "coll scatter"});
  for (int nodes : bench::node_sweep()) {
    auto grid = LocaleGrid::square(nodes, 24);
    auto a = erdos_renyi_dist<std::int64_t>(grid, n, 16.0, 5);
    auto x = random_dist_sparse_vec<std::int64_t>(grid, n, n / 50, 6);
    double g0, s0, g1, s1, g2, s2;
    SpmspvOptions fine;
    const double t_fine = run(grid, a, x, fine, &g0, &s0);
    SpmspvOptions bulk;
    bulk.comm = CommMode::kBulk;
    const double t_bulk = run(grid, a, x, bulk, &g1, &s1);
    SpmspvOptions coll;
    coll.use_collectives = true;
    const double t_coll = run(grid, a, x, coll, &g2, &s2);
    t.row({Table::count(nodes), Table::time(t_fine), Table::time(t_bulk),
           Table::time(t_coll), Table::time(g2), Table::time(s2)});
  }
  csv ? t.print_csv() : t.print("SpMSpV, ER (n=1M, d=16, f=2%)");
  return 0;
}
