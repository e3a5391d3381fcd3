// Ablation: what fault tolerance costs in modeled time and traffic.
//
// One BFS workload (the Fig 8 Erdős–Rényi matrix), four regimes:
//   baseline   plain BFS, no fault plan, no checkpoints;
//   ckpt-K     fault-free BFS under the recovery driver, checkpointing
//              every K rounds — isolates the pure snapshot overhead;
//   chaos      message faults (drop/dup/corrupt/stall) with retries —
//              isolates the retry/timeout overhead; results must stay
//              bit-identical to baseline;
//   kill       a locale killed mid-run, recovered from the last
//              checkpoint — the full restart + replay cost.
//
// Reports modeled time, wire vs logical messages, retries, checkpoint
// bytes, and restart counts; --json=PATH emits a machine-readable
// baseline.
#include "bench_common.hpp"

#include <cstdio>
#include <string>
#include <vector>

#include "algo/algo_recovery.hpp"
#include "algo/bfs.hpp"
#include "gen/erdos_renyi.hpp"

using namespace pgb;

namespace {

struct Sample {
  int nodes = 0;
  std::string regime;
  double time = 0.0;
  std::int64_t messages = 0;
  std::int64_t logical = 0;
  std::int64_t retries = 0;
  std::int64_t ckpt_bytes = 0;
  std::int64_t restarts = 0;
  bool identical = true;  ///< result matches the baseline bit-for-bit
};

bool same_result(const BfsResult& a, const BfsResult& b) {
  return a.parent == b.parent && a.level_sizes == b.level_sizes;
}

void emit_json(const std::string& path, Index n, double d,
               std::uint64_t seed, const std::vector<Sample>& samples) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  PGB_REQUIRE(out != nullptr, "cannot open --json path: " + path);
  std::fprintf(out,
               "{\n  \"bench\": \"abl_fault_overhead\",\n"
               "  \"workload\": {\"kind\": \"erdos-renyi bfs\", "
               "\"n\": %lld, \"d\": %g, \"seed\": %llu},\n"
               "  \"machine\": \"edison\",\n  \"samples\": [\n",
               static_cast<long long>(n), d,
               static_cast<unsigned long long>(seed));
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::fprintf(out,
                 "    {\"nodes\": %d, \"regime\": \"%s\", "
                 "\"modeled_time_s\": %.6e, \"messages\": %lld, "
                 "\"logical_messages\": %lld, \"retries\": %lld, "
                 "\"ckpt_bytes\": %lld, \"restarts\": %lld, "
                 "\"identical\": %s}%s\n",
                 s.nodes, s.regime.c_str(), s.time,
                 static_cast<long long>(s.messages),
                 static_cast<long long>(s.logical),
                 static_cast<long long>(s.retries),
                 static_cast<long long>(s.ckpt_bytes),
                 static_cast<long long>(s.restarts),
                 s.identical ? "true" : "false",
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
      "Ablation", "fault-tolerance overhead on BFS (checkpoints, retries, "
      "kill + recovery)", scale);

  std::vector<Sample> samples;
  bool all_identical = true;
  Table t({"nodes", "regime", "time", "vs base", "messages", "retries",
           "ckpt MB", "restarts", "identical"});
  for (int nodes : {16, 64}) {
    auto grid = LocaleGrid::square(nodes, 24);
    auto a = erdos_renyi_dist<double>(grid, n, d, seed);

    auto record = [&](const std::string& regime, const BfsResult& res,
                      const BfsResult& base_res, double base_time,
                      const RecoveryReport* rs) {
      Sample s;
      s.nodes = nodes;
      s.regime = regime;
      s.time = grid.time();
      s.messages = grid.hot().messages->value;
      s.logical = grid.hot().logical_messages->value;
      s.retries = grid.hot().retries->value;
      if (rs != nullptr) {
        s.ckpt_bytes = rs->checkpoint_bytes;
        s.restarts = rs->restarts;
      }
      s.identical = same_result(res, base_res);
      all_identical = all_identical && s.identical;
      samples.push_back(s);
      t.row({Table::count(nodes), regime, Table::time(s.time),
             Table::num(base_time > 0.0 ? s.time / base_time : 1.0),
             Table::count(s.messages), Table::count(s.retries),
             Table::num(static_cast<double>(s.ckpt_bytes) / 1e6),
             Table::count(s.restarts), s.identical ? "yes" : "NO"});
    };

    // Baseline: no plan, no driver.
    grid.reset();
    const BfsResult base = bfs(a, 0, {});
    const double base_time = grid.time();
    record("baseline", base, base, base_time, nullptr);

    // Checkpoint cadence sweep, fault-free: pure snapshot overhead.
    for (int k : {8, 4, 2, 1}) {
      grid.reset();
      ResilienceOptions ropt;
      ropt.policy = RecoveryPolicy::kRollback;
      ropt.checkpoint_every = k;
      RecoveryReport rs;
      const BfsResult res =
          run_resilient(grid, nullptr, bfs_recovery_loop(a, 0, {}), ropt, &rs);
      record("ckpt-" + std::to_string(k), res, base, base_time, &rs);
    }

    // Message chaos with retries; no kill, so no driver needed.
    {
      grid.reset();
      FaultPlan plan(
          FaultSpec::parse(
              "drop:p=0.01;dup:p=0.005;corrupt:p=0.002;stall:p=0.001,ms=0.1"),
          fault_seed);
      grid.set_fault_plan(&plan);
      const BfsResult res = bfs(a, 0, {});
      grid.set_fault_plan(nullptr);
      record("chaos", res, base, base_time, nullptr);
    }

    // Kill one locale halfway through; recover from the last checkpoint.
    {
      grid.reset();
      FaultPlan plan(FaultSpec::parse("kill:locale=1,at=" +
                                      std::to_string(base_time * 0.5)),
                     fault_seed);
      ResilienceOptions ropt;
      ropt.policy = RecoveryPolicy::kRollback;
      ropt.checkpoint_every = 4;
      RecoveryReport rs;
      const BfsResult res =
          run_resilient(grid, &plan, bfs_recovery_loop(a, 0, {}), ropt, &rs);
      record("kill+recover", res, base, base_time, &rs);
    }
  }
  t.print();

  std::printf("\nall regimes bit-identical to baseline: %s\n",
              all_identical ? "yes" : "NO");
  PGB_REQUIRE(all_identical,
              "fault-tolerance regimes diverged from the baseline result");
  if (!json.empty()) emit_json(json, n, d, seed, samples);
  return 0;
}
