// Ablation: matrix distribution shape for SpMSpV. The paper uses 2-D
// block distributions "since they have been shown to be more scalable
// than 1-D block distributions" (Section II-B). This bench runs the same
// SpMSpV on a near-square grid, a 1-D row distribution (L x 1) and a 1-D
// column distribution (1 x L), with the paper's fine-grained
// communication and with bulk transfers.
//
// The interesting structure: 1-D rows need NO input gather (each locale
// already owns its row-block's x) but funnel the entire output scatter
// into every destination (pr = L senders per owner); 1-D columns are the
// mirror image (full gather, trivial scatter). Only the 2-D grid bounds
// *both* phases by sqrt(p).
#include "bench_common.hpp"

#include "core/ops.hpp"
#include "core/spmspv.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/random_vec.hpp"

using namespace pgb;

namespace {

double run(GridConfig cfg, Index n, double f, bool bulk) {
  LocaleGrid grid(cfg);
  auto a = erdos_renyi_dist<std::int64_t>(grid, n, 16.0, 5);
  auto x = random_dist_sparse_vec<std::int64_t>(
      grid, n, static_cast<Index>(f * static_cast<double>(n)), 6);
  SpmspvOptions opt;
  opt.comm = bulk ? CommMode::kBulk : CommMode::kFine;
  grid.reset();
  spmspv_dist(a, x, arithmetic_semiring<std::int64_t>(), opt);
  return grid.time();
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 1.0, "fraction of paper size");
  const bool csv = cli.get_bool("csv", false, "emit CSV instead of tables");
  cli.finish();

  const Index n = bench::scaled(1000000, scale);
  bench::print_preamble("Ablation",
                        "SpMSpV: 2-D vs 1-D block distributions", scale);

  for (double f : {0.02, 0.2}) {
    for (bool bulk : {false, true}) {
      Table t({"nodes", "2-D (sqrt x sqrt)", "1-D rows (L x 1)",
               "1-D cols (1 x L)"});
      for (int nodes : {4, 16, 64}) {
        auto sq = LocaleGrid::square(nodes, 24);
        const double t2d = run(GridConfig{.rows = sq.rows(),
                                          .cols = sq.cols(),
                                          .threads_per_locale = 24},
                               n, f, bulk);
        const double t1dr =
            run(GridConfig{.rows = nodes, .cols = 1, .threads_per_locale = 24},
                n, f, bulk);
        const double t1dc =
            run(GridConfig{.rows = 1, .cols = nodes, .threads_per_locale = 24},
                n, f, bulk);
        t.row({Table::count(nodes), Table::time(t2d), Table::time(t1dr),
               Table::time(t1dc)});
      }
      char title[96];
      std::snprintf(title, sizeof title,
                    "ER (n=1M, d=16, f=%g%%), %s communication", f * 100,
                    bulk ? "bulk" : "fine-grained");
      csv ? t.print_csv() : t.print(title);
    }
  }
  return 0;
}
