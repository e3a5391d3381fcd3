// Ablation: serving under overload — goodput, latency, and the deadline
// contract as offered load sweeps past capacity.
//
// The resilience layer's bet is that a saturated service degrades
// *sideways*, not down: past capacity the admission queue sheds the
// excess with typed retry-after rejections while goodput plateaus at
// the service rate, admitted-query latency stays bounded by the queue
// depth, and no client ever sees a result past its deadline. A chaos
// leg re-runs the at-capacity point with a mid-traffic locale kill and
// must keep serving degraded on N-1 hosts.
//
// Method: calibrate the fused-batch service rate with a warm-up drain,
// then replay an open-loop arrival trace at {0.5x, 1x, 2x, 4x} of that
// capacity. Gates:
//   - goodput at 4x >= 90% of goodput at 1x (the plateau);
//   - served p95 end-to-end latency at 4x bounded by the worst-case
//     queue drain (3 * queue_depth / capacity);
//   - zero late results at every point (kDone implies completion <=
//     deadline) and every offered query terminal;
//   - the 4x leg re-run same-seed is bit-identical (served count, sim
//     time, completion-time checksum);
//   - chaos leg: >=1 rebuild, degraded health, goodput >= 50% of 1x.
//
// --json=PATH emits the baseline committed as BENCH_overload.json.
#include "bench_common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "gen/erdos_renyi.hpp"
#include "service/service.hpp"

using namespace pgb;

namespace {

constexpr int kNodes = 64;
constexpr int kQueueDepth = 64;
constexpr int kBatchMax = 8;
constexpr int kQueries = 240;
constexpr int kTenants = 4;

struct RunStats {
  double mult = 0.0;       ///< offered load as a multiple of capacity
  std::string leg;         ///< "sweep" | "chaos"
  double offered_qps = 0.0;
  double goodput_qps = 0.0;  ///< served / simulated makespan
  int served = 0;
  int shed = 0;      ///< queue-full rejections (excess load)
  int expired = 0;   ///< deadline expiries (any stage)
  int late = 0;      ///< kDone past deadline — must stay 0
  double p95_us = 0.0;  ///< served end-to-end latency, simulated us
  double sim_time = 0.0;
  double checksum = 0.0;  ///< sum of completion times (determinism probe)
  int rebuilds = 0;
  std::string mode = "normal";
};

/// Replays `kQueries` arrivals at `offered_qps` against a fresh service
/// on a fresh grid; every query carries the same generous deadline and
/// queue-full sheds are final (the bench is open-loop — retry behavior
/// is pgb_serve's business).
RunStats run_leg(int nodes, Index n, std::uint64_t seed, double offered_qps,
                 double deadline_s, FaultPlan* plan) {
  auto grid = LocaleGrid::square(nodes, 24);
  auto g = std::make_shared<DistCsr<double>>(
      erdos_renyi_dist<double>(grid, n, 8.0, seed));
  if (plan != nullptr) grid.set_fault_plan(plan);
  RecoveryReport report;
  ServiceConfig cfg;
  cfg.queue_depth = kQueueDepth;
  cfg.batch_max = kBatchMax;
  cfg.spmspv.comm = CommMode::kAggregated;
  if (plan != nullptr) {
    cfg.plan = plan;
    cfg.resilience.keep_membership = true;
    cfg.report = &report;
  }
  GraphService svc(grid, cfg);
  const auto h = svc.store().load(g);

  const double dt = 1.0 / offered_qps;
  RunStats st;
  st.offered_qps = offered_qps;
  int next = 0;
  while (next < kQueries || svc.queue_size() > 0) {
    // Admit everything due; if the queue is idle, jump to the next
    // arrival instead of spinning.
    if (next < kQueries) {
      const double due = next * dt;
      if (svc.queue_size() == 0 && grid.time() < due) {
        for (int l = 0; l < grid.num_locales(); ++l) {
          grid.clock(l).advance_to(due);
        }
      }
      while (next < kQueries &&
             static_cast<double>(next) * dt <= grid.time()) {
        QuerySpec spec;
        spec.kind = QueryKind::kBfs;
        spec.source = static_cast<Index>(
            (static_cast<Index>(next) * 7919) % n);
        spec.tenant = next % kTenants;
        spec.deadline_s = deadline_s;
        const auto s =
            svc.submit(h, spec, static_cast<double>(next) * dt);
        if (s.code == AdmitCode::kQueueFull) ++st.shed;
        ++next;
      }
    }
    svc.step();
  }
  st.sim_time = grid.time();

  std::vector<double> lat_us;
  for (const auto& rec : svc.records()) {
    st.checksum += rec.completion;
    if (rec.state == QueryState::kDone) {
      ++st.served;
      lat_us.push_back((rec.completion - rec.arrival) * 1e6);
      if (rec.completion > rec.deadline) ++st.late;
    } else if (rec.state == QueryState::kDeadlineExpired) {
      ++st.expired;
    }
  }
  if (!lat_us.empty()) {
    std::sort(lat_us.begin(), lat_us.end());
    st.p95_us = lat_us[(lat_us.size() * 95) / 100 == lat_us.size()
                           ? lat_us.size() - 1
                           : (lat_us.size() * 95) / 100];
  }
  st.goodput_qps = st.sim_time > 0.0 ? st.served / st.sim_time : 0.0;
  st.rebuilds = plan != nullptr ? report.rebuilds : 0;
  st.mode = svc.health().mode;
  return st;
}

void emit_json(const std::string& path, std::uint64_t seed, Index n,
               double capacity, const std::vector<RunStats>& samples) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  PGB_REQUIRE(out != nullptr, "cannot open --json path: " + path);
  std::fprintf(out,
               "{\n  \"bench\": \"abl_overload\",\n"
               "  \"workload\": \"er n=%lld d=8, %d bfs queries open-loop "
               "at 0.5x-4x of calibrated capacity, %d locales\",\n"
               "  \"machine\": \"edison\",\n  \"seed\": %llu,\n"
               "  \"capacity_qps\": %.6e,\n  \"samples\": [\n",
               static_cast<long long>(n), kQueries, kNodes,
               static_cast<unsigned long long>(seed), capacity);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const RunStats& s = samples[i];
    std::fprintf(out,
                 "    {\"leg\": \"%s\", \"load_mult\": %.2f, "
                 "\"offered_qps\": %.6e, \"goodput_qps\": %.6e, "
                 "\"served\": %d, \"shed\": %d, \"expired\": %d, "
                 "\"late\": %d, \"p95_us\": %.3f, "
                 "\"modeled_time_s\": %.6e, \"rebuilds\": %d, "
                 "\"mode\": \"%s\"}%s\n",
                 s.leg.c_str(), s.mult, s.offered_qps, s.goodput_qps,
                 s.served, s.shed, s.expired, s.late, s.p95_us, s.sim_time,
                 s.rebuilds, s.mode.c_str(),
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
  cli.finish();

  bench::print_preamble(
      "Ablation", "serving under overload: goodput plateau, bounded p95, "
      "zero late results, chaos leg on N-1 hosts", scale);

  const Index n = bench::scaled(20000, scale);

  // Calibrate: serve a few full-width batches and read the service rate
  // off the same EWMA the retry-after hint uses.
  double capacity = 0.0;
  {
    auto grid = LocaleGrid::square(kNodes, 24);
    auto g = std::make_shared<DistCsr<double>>(
        erdos_renyi_dist<double>(grid, n, 8.0, seed));
    ServiceConfig cfg;
    cfg.queue_depth = kQueueDepth;
    cfg.batch_max = kBatchMax;
    cfg.spmspv.comm = CommMode::kAggregated;
    GraphService svc(grid, cfg);
    const auto h = svc.store().load(g);
    for (int i = 0; i < 4 * kBatchMax; ++i) {
      QuerySpec spec;
      spec.kind = QueryKind::kBfs;
      spec.source = static_cast<Index>((static_cast<Index>(i) * 7919) % n);
      spec.tenant = i % kTenants;
      svc.submit(h, spec, grid.time());
    }
    svc.drain();
    capacity = svc.cost_model().service_rate();
  }
  PGB_REQUIRE(capacity > 0.0, "calibration produced no service rate");
  // Generous per-query budget: a full queue drain plus slack.
  const double deadline_s = 3.0 * kQueueDepth / capacity;
  std::printf("calibrated capacity: %.1f q/s (deadline budget %.3f ms)\n\n",
              capacity, deadline_s * 1e3);

  std::vector<RunStats> samples;
  Table t({"leg", "load", "offered q/s", "goodput q/s", "served", "shed",
           "expired", "late", "p95", "mode"});
  for (const double mult : {0.5, 1.0, 2.0, 4.0}) {
    RunStats st = run_leg(kNodes, n, seed, mult * capacity, deadline_s, nullptr);
    st.mult = mult;
    st.leg = "sweep";
    samples.push_back(st);
    t.row({"sweep", Table::num(mult), Table::num(st.offered_qps),
           Table::num(st.goodput_qps), Table::count(st.served),
           Table::count(st.shed), Table::count(st.expired),
           Table::count(st.late), Table::time(st.p95_us * 1e-6), st.mode});
  }

  // Chaos leg: the at-capacity point with a mid-traffic locale kill.
  const double kill_at = samples[1].sim_time * 0.4;
  FaultPlan plan(FaultSpec::parse("kill:locale=3,at=" +
                                  std::to_string(kill_at)),
                 seed + 37);
  RunStats chaos = run_leg(kNodes, n, seed, capacity, deadline_s, &plan);
  chaos.mult = 1.0;
  chaos.leg = "chaos";
  samples.push_back(chaos);
  t.row({"chaos", Table::num(1.0), Table::num(chaos.offered_qps),
         Table::num(chaos.goodput_qps), Table::count(chaos.served),
         Table::count(chaos.shed), Table::count(chaos.expired),
         Table::count(chaos.late), Table::time(chaos.p95_us * 1e-6),
         chaos.mode});
  t.print();

  // Same-seed determinism probe on the heaviest leg.
  const RunStats& x4 = samples[3];
  RunStats rerun = run_leg(kNodes, n, seed, 4.0 * capacity, deadline_s, nullptr);
  const bool deterministic = rerun.served == x4.served &&
                             rerun.sim_time == x4.sim_time &&
                             rerun.checksum == x4.checksum;
  std::printf("\nsame-seed 4x rerun bit-identical: %s\n",
              deterministic ? "yes" : "NO");

  bool gates_hold = true;
  const RunStats& x1 = samples[1];
  if (x4.goodput_qps < 0.9 * x1.goodput_qps) {
    gates_hold = false;
    std::printf("GATE FAILED: 4x goodput %.1f q/s < 90%% of 1x %.1f q/s\n",
                x4.goodput_qps, x1.goodput_qps);
  }
  const double p95_bound_us = 3.0 * kQueueDepth / capacity * 1e6;
  if (x4.p95_us > p95_bound_us) {
    gates_hold = false;
    std::printf("GATE FAILED: 4x p95 %.0f us exceeds queue-drain bound "
                "%.0f us\n", x4.p95_us, p95_bound_us);
  }
  for (const RunStats& s : samples) {
    if (s.late != 0) {
      gates_hold = false;
      std::printf("GATE FAILED: %d late results at %s %.1fx\n", s.late,
                  s.leg.c_str(), s.mult);
    }
    if (s.served + s.expired + s.shed != kQueries) {
      gates_hold = false;
      std::printf("GATE FAILED: %s %.1fx lost queries (%d + %d + %d != "
                  "%d)\n", s.leg.c_str(), s.mult, s.served, s.expired,
                  s.shed, kQueries);
    }
  }
  if (chaos.rebuilds < 1 || chaos.mode != "degraded") {
    gates_hold = false;
    std::printf("GATE FAILED: chaos leg did not rebuild+degrade "
                "(rebuilds=%d mode=%s)\n", chaos.rebuilds,
                chaos.mode.c_str());
  }
  if (chaos.goodput_qps < 0.5 * x1.goodput_qps) {
    gates_hold = false;
    std::printf("GATE FAILED: chaos goodput %.1f q/s < 50%% of 1x\n",
                chaos.goodput_qps);
  }
  PGB_REQUIRE(deterministic, "same-seed 4x rerun diverged");
  PGB_REQUIRE(gates_hold, "overload acceptance gates failed");
  if (!json.empty()) emit_json(json, seed, n, capacity, samples);
  return 0;
}
