// pgb_serve — drives the graph-as-a-service front end (src/service/)
// under a seeded multi-tenant workload.
//
// Loads one generated graph as resident state behind an epoch-versioned
// handle, then replays a deterministic open-loop arrival process:
// `--queries` queries drawn from `--mix` across `--tenants` tenants,
// with exponential inter-arrivals of mean `--arrival-ms` simulated
// milliseconds. Admitted same-kind single-source queries are coalesced
// into fused multi-source waves (up to `--batch-max` wide) so one comm
// schedule is paid per level instead of one per user.
//
// Resilience surface (all simulated time):
//   --deadline-ms        per-query latency budget; a query that cannot
//                        meet it ends deadline_expired, never late
//   queue-full           rejections carry a retry-after hint; the client
//                        here honors it with seeded exponential backoff
//                        + jitter (own RNG stream — the base arrival
//                        trace is untouched), up to --retry-max times
//   --quota/--breaker-k  per-tenant token-bucket quotas and circuit
//                        breakers (kTenantThrottled rejections)
//   --faults             chaos serving: the pgb fault grammar, including
//                        kill:locale=L,at=T mid-traffic; BFS/SSSP
//                        batches recover through the localized-rebuild
//                        path and keep serving on the surviving hosts
//                        (use a bfs/sssp-only --mix with kill faults)
//   --watermark          record-book compaction: terminal records are
//                        harvested and released as the run goes, so
//                        memory stays steady under sustained traffic
//
// Everything is simulated time on the modeled machine, so two runs with
// the same --seed print byte-identical summaries and exports, on one
// host thread as on many: tools/determinism_check.py runs a command
// twice, the second time on one host thread, and compares every output.
//
// Examples:
//   pgb_serve --nodes=64 --tenants=3 --queries=48 --batch-max=16
//   pgb_serve --deadline-ms=5 --quota=200 --breaker-k=4 --retry-max=3
//   pgb_serve --mix=bfs:4,sssp:2 --recovery=degraded --replica=buddy
//             --faults=kill:locale=3,at=0.002   (one command)
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <numeric>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "common.hpp"
#include "ingest/ingest.hpp"
#include "service/service.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace pgb;

namespace {

/// Uniform in (0, 1]. The workload draws from its own SplitMix64
/// streams, so the arrival trace depends on nothing but --seed (std::
/// distributions are not portable bit-for-bit).
double unit(SplitMix64& rng) {
  return (static_cast<double>(rng.next() >> 11) + 1.0) / 9007199254740992.0;
}

/// Parses a --FLAG=KIND:WEIGHT[,KIND:WEIGHT...] spec into one weight per
/// entry of `kinds` (absent kinds weigh 0; weights >= 0, total > 0).
std::vector<std::int64_t> parse_weights(const std::string& flag,
                                        const std::string& spec,
                                        const std::vector<std::string>& kinds) {
  std::vector<std::int64_t> w(kinds.size(), 0);
  std::string names;
  for (const std::string& k : kinds) names += (names.empty() ? "" : ", ") + k;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string part = spec.substr(pos, comma - pos);
    const std::size_t colon = part.find(':');
    PGB_REQUIRE(colon != std::string::npos,
                "--" + flag + " entries are KIND:WEIGHT, got '" + part + "'");
    const std::string kind = part.substr(0, colon);
    std::int64_t weight = 0;
    try {
      weight = std::stoll(part.substr(colon + 1));
    } catch (const std::exception&) {
      throw InvalidArgument("--" + flag + " weight must be an integer: '" +
                            part + "'");
    }
    PGB_REQUIRE(weight >= 0, "--" + flag + " weights must be >= 0");
    const auto it = std::find(kinds.begin(), kinds.end(), kind);
    PGB_REQUIRE(it != kinds.end(), "--" + flag + " kind must be one of " +
                                       names + "; got '" + kind + "'");
    w[static_cast<std::size_t>(it - kinds.begin())] = weight;
    pos = comma + 1;
  }
  PGB_REQUIRE(std::accumulate(w.begin(), w.end(), std::int64_t{0}) > 0,
              "--" + flag + " must give positive total weight");
  return w;
}

/// --mix kinds, in the order draw_kind walks them.
const std::vector<std::string> kMixKinds = {"bfs", "sssp", "pr", "ego"};
constexpr QueryKind kMixQueryKinds[] = {QueryKind::kBfs, QueryKind::kSssp,
                                        QueryKind::kPagerankSubgraph,
                                        QueryKind::kEgoNet};

QueryKind draw_kind(const std::vector<std::int64_t>& w, SplitMix64& rng) {
  const auto total = std::accumulate(w.begin(), w.end(), std::int64_t{0});
  std::int64_t r = static_cast<std::int64_t>(
      rng.next() % static_cast<std::uint64_t>(total));
  std::size_t k = 0;
  while (k + 1 < w.size() && (r -= w[k]) >= 0) ++k;
  return kMixQueryKinds[k];
}

/// One client-side submission event: the original arrival or a backoff
/// resubmission after a queue-full rejection. The heap orders by
/// (at, seq) — seq breaks simulated-time ties deterministically.
struct Event {
  double at = 0.0;
  std::uint64_t seq = 0;
  int attempts = 0;  ///< queue-full retries already spent
  QuerySpec spec;
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }
};

}  // namespace

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  const int nodes = static_cast<int>(cli.get_int("nodes", 4, "locales"));
  const int threads =
      static_cast<int>(cli.get_int("threads", 24, "threads per locale"));
  const std::string machine =
      cli.get("machine", "edison", "machine model: edison | modern");
  const std::string gen = cli.get("gen", "er", "graph generator: er | rmat");
  const Index n = cli.get_int("n", 20000, "ER vertices");
  const double d = cli.get_double("d", 8.0, "ER nonzeros per row");
  const std::int64_t rmat_scale =
      cli.get_int("rmat-scale", 14, "R-MAT scale, in [0, 62]");
  const int tenants =
      static_cast<int>(cli.get_int("tenants", 3, "number of tenants"));
  const int queries = static_cast<int>(
      cli.get_int("queries", 48, "total queries in the workload"));
  const int batch_max = static_cast<int>(cli.get_int(
      "batch-max", 16, "max queries fused into one multi-source wave"));
  const int queue_depth = static_cast<int>(
      cli.get_int("queue-depth", 64, "admission queue capacity"));
  const double arrival_ms = cli.get_double(
      "arrival-ms", 0.05, "mean inter-arrival gap, simulated milliseconds");
  const std::string mix_flag =
      cli.get("mix", "bfs:6,sssp:3,pr:1,ego:2",
              "query mix weights: bfs:W,sssp:W,pr:W,ego:W");
  const Index depth =
      cli.get_int("depth", 2, "ego radius for the subgraph kinds");
  const std::string comm_flag =
      cli.get("comm", "auto", "communication schedule: fine | bulk | agg | "
                              "auto (inspector-chosen per site)");
  const double deadline_ms = cli.get_double(
      "deadline-ms", 0.0,
      "per-query latency budget, simulated ms (0 = no deadline)");
  const double quota = cli.get_double(
      "quota", 0.0,
      "per-tenant sustained admission rate, queries per simulated second "
      "(0 = no quota)");
  const double quota_burst = cli.get_double(
      "quota-burst", 8.0, "per-tenant token-bucket burst capacity");
  const int breaker_k = static_cast<int>(cli.get_int(
      "breaker-k", 0,
      "consecutive failures that trip a tenant's circuit breaker (0 = off)"));
  const double breaker_cooldown_ms = cli.get_double(
      "breaker-cooldown-ms", 50.0,
      "open-breaker hold before a half-open probe, simulated ms");
  const int retry_max = static_cast<int>(cli.get_int(
      "retry-max", 3,
      "client resubmits after a queue-full rejection (0 = shed at once)"));
  const double retry_floor_ms = cli.get_double(
      "retry-floor-ms", 1.0,
      "floor of the server's suggested retry-after, simulated ms");
  const int watermark = static_cast<int>(cli.get_int(
      "watermark", 256,
      "record-book compaction watermark (released records kept before the "
      "prefix drops)"));
  const std::string faults = cli.get(
      "faults", "",
      "fault spec (pgb grammar), e.g. drop:p=0.01;kill:locale=3,at=0.002 — "
      "kill faults need a bfs/sssp-only --mix");
  const std::uint64_t fault_seed = static_cast<std::uint64_t>(
      cli.get_int("fault-seed", 42, "fault plan RNG seed"));
  const std::string recovery_flag =
      cli.get("recovery", "degraded",
              "recovery driver under --faults: rebuild | degraded");
  const std::string replica_flag = cli.get(
      "replica", "buddy", "replication scheme under --faults: buddy | parity");
  const int parity_group = static_cast<int>(cli.get_int(
      "parity-group", 4, "locales per parity group (--replica=parity)"));
  const std::int64_t replica_chunk = cli.get_int(
      "replica-chunk", 4096, "replica dirty-diff chunk size in bytes");
  const std::uint64_t seed = static_cast<std::uint64_t>(
      cli.get_int("seed", 1, "graph + workload seed"));
  tools::Exports exports(cli);
  const std::string event_log_file = cli.get(
      "event-log", "",
      "write the structured service event log (JSONL, simulated-time "
      "stamped: admits, rejections, expiries, breaker transitions, "
      "publishes, degrade/rebuild, periodic health)");
  const int health_every = static_cast<int>(cli.get_int(
      "health-log-every", 8,
      "health snapshot cadence in scheduling rounds for --event-log "
      "(0 = off)"));
  const int ingest = static_cast<int>(cli.get_int(
      "ingest", 0,
      "mutation batches streamed during the run through the replicated "
      "delta log (0 = static graph)"));
  const double ingest_rate = cli.get_double(
      "ingest-rate", 100.0, "ingest batches per simulated second");
  const int ingest_batch = static_cast<int>(cli.get_int(
      "ingest-batch", 64, "edge mutations per ingest batch"));
  const std::string ingest_mix_flag =
      cli.get("ingest-mix", "insert:9,delete:1",
              "mutation mix weights: insert:W,delete:W");
  const std::int64_t compact_every = cli.get_int(
      "compact-every", 8192,
      "pending overlay deltas that trigger compaction into a fresh base");
  cli.finish();

  // Flag validation per pgb convention: a bad value names the accepted
  // ones and exits 2 (via InvalidArgument -> main's catch).
  PGB_REQUIRE(machine == "edison" || machine == "modern",
              "--machine must be edison or modern");
  PGB_REQUIRE(tenants >= 1 && tenants <= 64,
              "--tenants must be an integer in [1, 64]");
  PGB_REQUIRE(batch_max >= 1 && batch_max <= 64,
              "--batch-max must be an integer in [1, 64]");
  PGB_REQUIRE(queue_depth >= 1 && queue_depth <= 4096,
              "--queue-depth must be an integer in [1, 4096]");
  PGB_REQUIRE(queries >= 1, "--queries must be >= 1");
  PGB_REQUIRE(arrival_ms > 0.0, "--arrival-ms must be > 0");
  PGB_REQUIRE(depth >= 1, "--depth must be >= 1");
  PGB_REQUIRE(deadline_ms >= 0.0, "--deadline-ms must be >= 0");
  PGB_REQUIRE(quota >= 0.0, "--quota must be >= 0");
  PGB_REQUIRE(quota_burst >= 1.0 && quota_burst <= 1e6,
              "--quota-burst must be in [1, 1e6]");
  PGB_REQUIRE(breaker_k >= 0 && breaker_k <= 1000,
              "--breaker-k must be an integer in [0, 1000]");
  PGB_REQUIRE(breaker_cooldown_ms > 0.0, "--breaker-cooldown-ms must be > 0");
  PGB_REQUIRE(retry_max >= 0 && retry_max <= 16,
              "--retry-max must be an integer in [0, 16]");
  PGB_REQUIRE(retry_floor_ms > 0.0, "--retry-floor-ms must be > 0");
  PGB_REQUIRE(watermark >= 1 && watermark <= 1048576,
              "--watermark must be an integer in [1, 1048576]");
  const RecoveryPolicy policy = parse_recovery_policy(recovery_flag);
  PGB_REQUIRE(policy != RecoveryPolicy::kRollback,
              "--recovery must be rebuild or degraded");
  PGB_REQUIRE(replica_flag == "buddy" || replica_flag == "parity",
              "--replica must be buddy or parity");
  PGB_REQUIRE(parity_group >= 2 && parity_group <= 64,
              "--parity-group must be an integer in [2, 64]");
  PGB_REQUIRE(replica_chunk >= 1, "--replica-chunk must be >= 1");
  PGB_REQUIRE(health_every >= 0, "--health-log-every must be >= 0");
  PGB_REQUIRE(ingest >= 0 && ingest <= 100000,
              "--ingest must be an integer in [0, 100000]");
  PGB_REQUIRE(ingest_rate > 0.0 && ingest_rate <= 1e9,
              "--ingest-rate must be in (0, 1e9]");
  PGB_REQUIRE(ingest_batch >= 1 && ingest_batch <= 65536,
              "--ingest-batch must be an integer in [1, 65536]");
  PGB_REQUIRE(compact_every >= 1 && compact_every <= 1073741824,
              "--compact-every must be an integer in [1, 1073741824]");
  PGB_REQUIRE(ingest == 0 || nodes >= 2,
              "--ingest needs at least 2 locales for buddy mirroring");
  const std::vector<std::int64_t> mix =
      parse_weights("mix", mix_flag, kMixKinds);
  const std::vector<std::int64_t> iw =
      parse_weights("ingest-mix", ingest_mix_flag, {"insert", "delete"});
  const IngestMix imix{iw[0], iw[1]};

  std::optional<FaultPlan> plan;
  if (!faults.empty()) {
    FaultSpec spec = FaultSpec::parse(faults);
    bool kills = false;
    for (const auto& r : spec.rules) kills |= r.kind == FaultKind::kLocaleFail;
    // Only the frontier kinds run under the resilient driver; a kill would
    // strand an in-flight subgraph query (pr, ego: kMixKinds[2] and [3]).
    PGB_REQUIRE(!kills || (mix[2] == 0 && mix[3] == 0),
                "--faults with kill needs a bfs/sssp-only --mix");
    plan.emplace(std::move(spec), fault_seed);
  }

  const MachineModel model =
      machine == "edison" ? MachineModel::edison() : MachineModel::modern();
  auto grid = LocaleGrid::square(nodes, threads, 1, model);
  exports.attach(grid);
  const DistCsr<double> a =
      tools::generate_graph(grid, gen, n, d, rmat_scale, seed);
  std::printf("grid: %dx%d locales, %d threads, machine=%s\n", grid.rows(),
              grid.cols(), threads, machine.c_str());
  std::printf("service: queue-depth=%d batch-max=%d tenants=%d comm=%s\n",
              queue_depth, batch_max, tenants, comm_flag.c_str());
  std::printf("resilience: deadline=%gms quota=%gq/s burst=%g breaker-k=%d "
              "retry-max=%d watermark=%d\n",
              deadline_ms, quota, quota_burst, breaker_k, retry_max, watermark);
  if (ingest > 0) {
    std::printf("ingest: batches=%d rate=%g/s batch=%d mix=%s "
                "compact-every=%lld\n",
                ingest, ingest_rate, ingest_batch, ingest_mix_flag.c_str(),
                static_cast<long long>(compact_every));
  }
  if (plan.has_value()) {
    std::printf("faults: %s (seed %llu, recovery=%s, replica=%s)\n",
                plan->spec().to_string().c_str(),
                static_cast<unsigned long long>(fault_seed),
                recovery_flag.c_str(), replica_flag.c_str());
  }
  std::printf("\n");

  // --- seeded workload: the arrival trace is a pure function of --seed,
  // and the retry stream is separate so backoff never perturbs it ---
  SplitMix64 rng(seed * 0x9e3779b97f4a7c15ull + 0x5851f42d4c957f2dull);
  SplitMix64 retry_rng(seed * 0xd1342543de82ef95ull + 0x2545f4914f6cdd1dull);
  std::priority_queue<Event, std::vector<Event>, EventLater> events;
  std::uint64_t seq = 0;
  double t = 0.0;
  for (int i = 0; i < queries; ++i) {
    t += -(arrival_ms * 1e-3) * std::log(unit(rng));
    Event w;
    w.at = t;
    w.seq = seq++;
    w.spec.kind = draw_kind(mix, rng);
    w.spec.source = static_cast<Index>(rng.next() %
                                       static_cast<std::uint64_t>(a.nrows()));
    w.spec.depth = depth;
    w.spec.tenant = static_cast<int>(rng.next() %
                                     static_cast<std::uint64_t>(tenants));
    w.spec.deadline_s = deadline_ms * 1e-3;
    events.push(w);
  }

  RecoveryReport report;
  ServiceConfig cfg;
  cfg.queue_depth = queue_depth;
  cfg.batch_max = batch_max;
  cfg.spmspv.comm = parse_comm_mode(comm_flag);
  cfg.governor = {quota, quota_burst, breaker_k, breaker_cooldown_ms * 1e-3};
  cfg.retry_floor_s = retry_floor_ms * 1e-3;
  cfg.compact_watermark = watermark;
  if (plan.has_value()) {
    cfg.plan = &*plan;
    cfg.resilience.policy = policy;
    cfg.resilience.replica.scheme = replica_flag == "parity"
                                        ? ReplicaScheme::kParity
                                        : ReplicaScheme::kBuddy;
    cfg.resilience.replica.parity_group = parity_group;
    cfg.resilience.replica.chunk_bytes = replica_chunk;
    // Serving owns the grid for its whole lifetime: after a kill, keep
    // the degraded remap installed between batches so every later batch
    // starts on the surviving hosts instead of re-failing into a
    // per-batch rebuild.
    cfg.resilience.keep_membership = true;
    cfg.report = &report;
  }
  if (!event_log_file.empty()) cfg.health_log_every = health_every;
  grid.reset();
  if (plan.has_value()) grid.set_fault_plan(&*plan);
  GraphService svc(grid, cfg);
  ServiceEventLog elog;
  if (!event_log_file.empty()) svc.set_event_log(&elog);
  const GraphStore::HandleId h = svc.store().load(
      std::make_shared<DistCsr<double>>(a));

  // --- ingest stream: seeded mutation batches interleaved with the
  // query traffic. Content and cadence come from their own RNG stream,
  // so --ingest=0 runs are byte-identical to pre-ingest builds. ---
  std::optional<IngestStream> stream;
  MutationRng ingest_rng(seed * 0xa0761d6478bd642full + 0xe7037ed1a0b428dbull);
  std::vector<double> ingest_at(static_cast<std::size_t>(ingest), 0.0);
  for (int k = 0; k < ingest; ++k) {
    ingest_at[static_cast<std::size_t>(k)] =
        static_cast<double>(k + 1) / ingest_rate;
  }
  if (ingest > 0) {
    IngestOptions iopt;
    iopt.compact_every = compact_every;
    stream.emplace(grid, svc.store(), h, a, iopt,
                   event_log_file.empty() ? nullptr : &elog);
    // A kill landing inside a *query* batch restores the delta log and
    // base mirror as part of the same localized rebuild.
    svc.set_rebuild_hook(
        [&](int logical) { stream->recover_after_rebuild(logical); });
  }
  std::int64_t next_ingest = 0;
  const auto ingest_one = [&] {
    const MutationBatch b = make_mutation_batch(
        ingest_rng, a.nrows(), ingest_batch, imix, next_ingest + 1);
    stream->apply(b);
    stream->publish();
    ++next_ingest;
  };

  // --- serve loop: admit every due event, run one scheduling round,
  // harvest + release finished records (memory-steady). A queue-full
  // rejection is resubmitted at now + retry_after * 2^attempt * jitter;
  // a throttled or out-of-retries query is shed. ---
  std::int64_t served = 0, expired = 0, late = 0;
  std::int64_t shed_full = 0, shed_throttled = 0, requeued = 0;
  std::vector<std::int64_t> served_t(static_cast<std::size_t>(tenants), 0);
  std::vector<std::int64_t> expired_t(static_cast<std::size_t>(tenants), 0);
  std::int64_t next_harvest = 0;
  const auto harvest = [&] {
    while (next_harvest < svc.records_retired() + svc.records_live()) {
      const QueryRecord& rec = svc.record(next_harvest);
      if (rec.state == QueryState::kQueued) break;
      if (rec.state == QueryState::kDone) {
        ++served;
        ++served_t[static_cast<std::size_t>(rec.tenant)];
        late += rec.completion > rec.deadline ? 1 : 0;
      } else {
        ++expired;
        ++expired_t[static_cast<std::size_t>(rec.tenant)];
      }
      svc.release(next_harvest);
      ++next_harvest;
    }
  };
  while (!events.empty() || svc.queue_size() > 0 || next_ingest < ingest) {
    const double now = grid.time();
    // Due ingest batches run between scheduling rounds; with the service
    // idle, whichever of (next arrival, next batch) is earlier goes
    // first, so the interleave is a pure function of simulated time.
    if (next_ingest < ingest) {
      const double at = ingest_at[static_cast<std::size_t>(next_ingest)];
      const double next_event_at = events.empty() ? -1.0 : events.top().at;
      if (at <= now ||
          (svc.queue_size() == 0 &&
           (events.empty() || at <= next_event_at))) {
        ingest_one();
        continue;  // recompute `now` — apply/publish advanced the clock
      }
    }
    while (!events.empty() &&
           (events.top().at <= now || svc.queue_size() == 0)) {
      Event ev = events.top();
      events.pop();
      const auto s = svc.submit(h, ev.spec, ev.at);
      if (s.code == AdmitCode::kQueueFull) {
        if (ev.attempts < retry_max) {
          // Exponential backoff on the server's hint, jittered from the
          // dedicated retry stream: factor in (0.75, 1.25].
          const double backoff = s.retry_after_s *
                                 std::pow(2.0, ev.attempts) *
                                 (0.75 + 0.5 * unit(retry_rng));
          ev.at = std::max(ev.at, now) + backoff;
          ev.seq = seq++;
          ++ev.attempts;
          ++requeued;
          events.push(ev);
        } else {
          ++shed_full;
        }
      } else if (s.code == AdmitCode::kTenantThrottled) {
        ++shed_throttled;
      }
    }
    svc.step();
    harvest();
  }
  harvest();

  // --- deterministic summary ---
  auto& mx = grid.metrics();
  const std::int64_t batches = mx.counter("service.batches").value;
  const auto& width = mx.histogram("service.batch.width");
  std::printf("served %lld of %d queries in %lld batches (mean width %.2f, "
              "%lld shed)\n",
              static_cast<long long>(served), queries,
              static_cast<long long>(batches), width.mean(),
              static_cast<long long>(shed_full + shed_throttled));
  std::int64_t exp_queue = 0, exp_admission = 0, exp_post = 0, trips = 0;
  for (int tn = 0; tn < tenants; ++tn) {
    const std::string ts = std::to_string(tn);
    exp_queue +=
        mx.counter("service.expired", {{"tenant", ts}, {"stage", "queue"}})
            .value;
    exp_admission +=
        mx.counter("service.expired", {{"tenant", ts}, {"stage", "admission"}})
            .value;
    exp_post +=
        mx.counter("service.expired", {{"tenant", ts}, {"stage", "post"}})
            .value;
    trips += mx.counter("service.breaker.trips", {{"tenant", ts}}).value;
  }
  std::printf("resilience: expired=%lld (queue=%lld admission=%lld "
              "post=%lld) late=%lld retries=%lld shed_full=%lld "
              "throttled=%lld breaker_trips=%lld\n",
              static_cast<long long>(expired),
              static_cast<long long>(exp_queue),
              static_cast<long long>(exp_admission),
              static_cast<long long>(exp_post), static_cast<long long>(late),
              static_cast<long long>(requeued),
              static_cast<long long>(shed_full),
              static_cast<long long>(shed_throttled),
              static_cast<long long>(trips));
  std::printf("records: live=%lld retired=%lld (watermark %d)\n",
              static_cast<long long>(svc.records_live()),
              static_cast<long long>(svc.records_retired()), watermark);
  for (int tn = 0; tn < tenants; ++tn) {
    const obs::Labels labels = {{"tenant", std::to_string(tn)}};
    const std::int64_t offered = mx.counter("service.submitted", labels).value;
    const auto& lat = mx.histogram("service.latency.us", labels);
    std::printf("  tenant %d: offered=%lld served=%lld expired=%lld "
                "latency p50<=%lldus p95<=%lldus\n",
                tn, static_cast<long long>(offered),
                static_cast<long long>(
                    served_t[static_cast<std::size_t>(tn)]),
                static_cast<long long>(
                    expired_t[static_cast<std::size_t>(tn)]),
                static_cast<long long>(lat.quantile_bound(0.5)),
                static_cast<long long>(lat.quantile_bound(0.95)));
  }
  const ServiceHealth health = svc.health();
  std::printf("health: %s\n", health.summary().c_str());
  if (plan.has_value()) {
    const auto kills =
        mx.counter("fault.injected", {{"kind", "kill"}}).value;
    std::printf("faults: injected kill=%lld; recovery: %s\n",
                static_cast<long long>(kills), report.summary().c_str());
  }
  if (ingest > 0) {
    const IngestStats& is = stream->stats();
    std::printf("ingest: batches=%lld deltas=%lld (insert=%lld delete=%lld) "
                "publishes=%lld compactions=%lld\n",
                static_cast<long long>(is.batches),
                static_cast<long long>(is.deltas),
                static_cast<long long>(is.inserts),
                static_cast<long long>(is.deletes),
                static_cast<long long>(is.publishes),
                static_cast<long long>(is.compactions));
    std::printf("ingest: replays=%lld pages_replayed=%lld "
                "pages_discarded=%lld log_bytes=%lld pinned_versions=%lld\n",
                static_cast<long long>(is.replays),
                static_cast<long long>(is.pages_replayed),
                static_cast<long long>(is.pages_discarded),
                static_cast<long long>(is.log_bytes),
                static_cast<long long>(svc.store().retired_live()));
    const GraphSnapshot snap = svc.store().snapshot(h);
    std::printf("ingest: final epoch=%llu graph hash=%016llx\n",
                static_cast<unsigned long long>(snap.epoch),
                static_cast<unsigned long long>(ingest_graph_hash(*snap.graph)));
  }
  std::printf("\nmodeled time: %s\n", Table::time(grid.time()).c_str());
  const auto& cs = grid.comm_stats();
  std::printf("comm: %lld messages, %lld bulk transfers, "
              "%lld aggregator flushes, %.3g MB\n",
              static_cast<long long>(cs.messages),
              static_cast<long long>(cs.bulks),
              static_cast<long long>(cs.agg_flushes),
              static_cast<double>(cs.bytes) / 1e6);

  if (!event_log_file.empty()) {
    elog.write(event_log_file);
    std::printf("event log: %zu events -> %s\n", elog.size(),
                event_log_file.c_str());
  }
  char wl[200];
  std::snprintf(wl, sizeof wl,
                "serve %s tenants=%d queries=%d batch-max=%d "
                "queue-depth=%d arrival-ms=%g mix=%s deadline-ms=%g",
                gen.c_str(), tenants, queries, batch_max, queue_depth,
                arrival_ms, mix_flag.c_str(), deadline_ms);
  exports.write(grid, {wl, comm_flag, seed, machine});
  return 0;
}

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pgb_serve: error: %s\n", e.what());
    return 2;
  }
}
