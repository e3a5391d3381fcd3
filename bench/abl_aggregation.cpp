// Ablation: conveyor-style aggregation vs fine-grained vs hand-rolled
// bulk communication in the distributed SpMSpV (the Fig 8 workload).
//
// Sweeps the aggregator buffer capacity, reports modeled time and the
// grid-wide message count for every schedule, verifies that all
// schedules produce byte-identical outputs, and checks the layer's
// acceptance shape at 64 locales: >= 10x fewer messages than fine and
// modeled time within 10% of the hand-rolled bulk path.
//
// --json=PATH additionally emits the numbers as a machine-readable
// baseline (see BENCH_aggregation.json at the repo root).
#include "bench_common.hpp"

#include <cstdio>
#include <tuple>

#include "core/ops.hpp"
#include "core/spmspv.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/random_vec.hpp"

using namespace pgb;

namespace {

struct Sample {
  int nodes = 0;
  std::string schedule;
  std::int64_t capacity = 0;  ///< 0 for the non-aggregated schedules
  double time = 0.0;
  std::int64_t messages = 0;
  std::int64_t bytes = 0;
  std::int64_t flushes = 0;
};

template <typename T>
bool identical(const SparseVec<T>& a, const SparseVec<T>& b) {
  if (a.nnz() != b.nnz()) return false;
  for (Index p = 0; p < a.nnz(); ++p) {
    if (a.index_at(p) != b.index_at(p)) return false;
    if (a.value_at(p) != b.value_at(p)) return false;
  }
  return true;
}

void emit_json(const std::string& path, Index n, double d, double f,
               std::uint64_t seed, const std::vector<Sample>& samples) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  PGB_REQUIRE(out != nullptr, "cannot open --json path: " + path);
  std::fprintf(out, "{\n");
  std::fprintf(out,
               "  \"bench\": \"abl_aggregation\",\n"
               "  \"workload\": {\"kind\": \"erdos-renyi spmspv\", "
               "\"n\": %lld, \"d\": %g, \"f\": %g, \"seed\": %llu},\n"
               "  \"machine\": \"edison\",\n  \"samples\": [\n",
               static_cast<long long>(n), d, f,
               static_cast<unsigned long long>(seed));
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::fprintf(out,
                 "    {\"nodes\": %d, \"schedule\": \"%s\", "
                 "\"capacity\": %lld, \"modeled_time_s\": %.6e, "
                 "\"messages\": %lld, \"bytes\": %lld, \"flushes\": %lld}%s\n",
                 s.nodes, s.schedule.c_str(),
                 static_cast<long long>(s.capacity), s.time,
                 static_cast<long long>(s.messages),
                 static_cast<long long>(s.bytes),
                 static_cast<long long>(s.flushes),
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
  const bool csv = cli.get_bool("csv", false, "emit CSV instead of tables");
  const std::string json =
      cli.get("json", "", "write a machine-readable baseline to this path");
  const std::uint64_t seed = bench::seed_flag(cli);
  cli.finish();

  const Index n = bench::scaled(1000000, scale);
  const double d = 16.0;
  const double f = 0.02;
  bench::print_preamble(
      "Ablation", "SpMSpV: conveyor aggregation vs fine / bulk schedules",
      scale);

  const auto sr = arithmetic_semiring<std::int64_t>();
  const std::vector<std::int64_t> capacities{256, 1024, 4096, 16384};
  std::vector<Sample> samples;
  bool all_identical = true;
  double accept_fine_over_agg = 0.0;   // message ratio at the largest grid
  double accept_agg_over_bulk = 0.0;   // time ratio at the largest grid

  Table t({"nodes", "schedule", "capacity", "time", "messages", "flushes",
           "vs fine"});
  for (int nodes : {4, 16, 64}) {
    auto grid = LocaleGrid::square(nodes, 24);
    auto a = erdos_renyi_dist<std::int64_t>(grid, n, d, seed);
    auto x = random_dist_sparse_vec<std::int64_t>(
        grid, n, static_cast<Index>(f * static_cast<double>(n)), seed + 1);

    auto run = [&](const SpmspvOptions& opt) {
      grid.reset();
      auto y = spmspv_dist(a, x, sr, opt);
      return std::make_tuple(grid.time(), grid.comm_stats(), y.to_local());
    };

    SpmspvOptions base;
    auto [t_fine, cs_fine, y_fine] = run(base.with_comm(CommMode::kFine));
    samples.push_back({nodes, "fine", 0, t_fine, cs_fine.messages,
                       cs_fine.bytes, cs_fine.agg_flushes});
    t.row({Table::count(nodes), "fine", "-", Table::time(t_fine),
           Table::count(cs_fine.messages), "-", Table::num(1.0)});

    auto [t_bulk, cs_bulk, y_bulk] = run(base.with_comm(CommMode::kBulk));
    samples.push_back({nodes, "bulk", 0, t_bulk, cs_bulk.messages,
                       cs_bulk.bytes, cs_bulk.agg_flushes});
    all_identical = all_identical && identical(y_fine, y_bulk);
    t.row({Table::count(nodes), "bulk", "-", Table::time(t_bulk),
           Table::count(cs_bulk.messages), "-",
           Table::num(t_fine / t_bulk)});

    double best_agg_time = 0.0;
    std::int64_t best_agg_msgs = 0;
    for (std::int64_t cap : capacities) {
      SpmspvOptions opt = base.with_comm(CommMode::kAggregated);
      opt.agg_capacity = cap;
      auto [t_agg, cs_agg, y_agg] = run(opt);
      samples.push_back({nodes, "agg", cap, t_agg, cs_agg.messages,
                         cs_agg.bytes, cs_agg.agg_flushes});
      all_identical = all_identical && identical(y_fine, y_agg);
      t.row({Table::count(nodes), "agg", Table::count(cap),
             Table::time(t_agg), Table::count(cs_agg.messages),
             Table::count(cs_agg.agg_flushes), Table::num(t_fine / t_agg)});
      if (best_agg_time == 0.0 || t_agg < best_agg_time) {
        best_agg_time = t_agg;
        best_agg_msgs = cs_agg.messages;
      }
    }
    if (nodes == 64) {
      accept_fine_over_agg = static_cast<double>(cs_fine.messages) /
                             static_cast<double>(best_agg_msgs);
      accept_agg_over_bulk = best_agg_time / t_bulk;
    }
  }
  csv ? t.print_csv()
      : t.print("ER matrix (n=1M, d=16, f=2%), capacity sweep");

  std::printf("\noutputs byte-identical across schedules: %s\n",
              all_identical ? "yes" : "NO — BUG");
  std::printf("acceptance @64 locales: fine/agg messages = %.1fx (need "
              ">= 10x): %s\n",
              accept_fine_over_agg,
              accept_fine_over_agg >= 10.0 ? "PASS" : "FAIL");
  std::printf("acceptance @64 locales: agg/bulk time = %.3f (need <= "
              "1.10): %s\n",
              accept_agg_over_bulk,
              accept_agg_over_bulk <= 1.10 ? "PASS" : "FAIL");

  if (!json.empty()) emit_json(json, n, d, f, seed, samples);
  return (all_identical && accept_fine_over_agg >= 10.0 &&
          accept_agg_over_bulk <= 1.10)
             ? 0
             : 1;
}
