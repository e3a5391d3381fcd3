// Tests for the query-scoped observability layer: per src->dst comm
// matrix conservation across the comm schedules, per-query trace tracks
// (span count, gapless lifecycle coverage, reset epoch guard), the
// structured service event log, and same-seed bit determinism of every
// export.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "algo/bfs.hpp"
#include "gen/erdos_renyi.hpp"
#include "service/service.hpp"

namespace pgb {
namespace {

std::shared_ptr<const DistCsr<double>> make_graph(LocaleGrid& grid, Index n,
                                                  double d,
                                                  std::uint64_t seed) {
  return std::make_shared<DistCsr<double>>(
      erdos_renyi_dist<double>(grid, n, d, seed));
}

/// Matrix totals must equal the comm.messages / comm.bytes counters —
/// the matrix is accumulated at exactly the funnel's two counting sites.
void expect_conserved(LocaleGrid& grid) {
  const CommStats cs = grid.comm_stats();
  EXPECT_EQ(grid.comm_matrix_total_messages(), cs.messages);
  EXPECT_EQ(grid.comm_matrix_total_bytes(), cs.bytes);
}

// ---------------------------------------------------------------------
// Comm matrix
// ---------------------------------------------------------------------

TEST(CommMatrixTest, ConservesAcrossCommSchedules) {
  for (const CommMode mode : {CommMode::kFine, CommMode::kBulk,
                              CommMode::kAggregated, CommMode::kAuto}) {
    auto grid = LocaleGrid::square(16, 4);
    grid.enable_comm_matrix();
    auto g = erdos_renyi_dist<double>(grid, 4000, 8.0, 7);
    SpmspvOptions opt;
    opt.comm = mode;
    (void)bfs(g, 0, opt);
    expect_conserved(grid);
    EXPECT_GT(grid.comm_matrix_total_messages(), 0);
  }
}

TEST(CommMatrixTest, DiagonalIsStructurallyZero) {
  auto grid = LocaleGrid::square(16, 4);
  grid.enable_comm_matrix();
  auto g = erdos_renyi_dist<double>(grid, 4000, 8.0, 7);
  (void)bfs(g, 0);
  for (int l = 0; l < grid.num_locales(); ++l) {
    EXPECT_EQ(grid.comm_matrix_messages(l, l), 0) << "locale " << l;
    EXPECT_EQ(grid.comm_matrix_bytes(l, l), 0) << "locale " << l;
  }
}

TEST(CommMatrixTest, SameSeedExportIsByteIdentical) {
  std::string first;
  for (int run = 0; run < 2; ++run) {
    auto grid = LocaleGrid::square(16, 4);
    grid.enable_comm_matrix();
    auto g = erdos_renyi_dist<double>(grid, 4000, 8.0, 7);
    SpmspvOptions opt;
    opt.comm = CommMode::kAggregated;
    (void)bfs(g, 0, opt);
    const std::string json = grid.comm_matrix_json();
    if (run == 0) {
      first = json;
    } else {
      EXPECT_EQ(json, first);
    }
  }
  EXPECT_NE(first.find("\"schema\":\"pgb.comm_matrix.v1\""),
            std::string::npos);
}

TEST(CommMatrixTest, ResetZeroesButKeepsEnabled) {
  auto grid = LocaleGrid::square(16, 4);
  grid.enable_comm_matrix();
  auto g = erdos_renyi_dist<double>(grid, 4000, 8.0, 7);
  (void)bfs(g, 0);
  ASSERT_GT(grid.comm_matrix_total_messages(), 0);
  grid.reset();
  EXPECT_TRUE(grid.comm_matrix_enabled());
  EXPECT_EQ(grid.comm_matrix_total_messages(), 0);
  EXPECT_EQ(grid.comm_matrix_total_bytes(), 0);
  // Accumulation resumes in the new epoch, still conserved.
  auto g2 = erdos_renyi_dist<double>(grid, 4000, 8.0, 7);
  (void)bfs(g2, 0);
  expect_conserved(grid);
}

TEST(CommMatrixTest, DegradedRemapChargesTheBuddyHostOnly) {
  auto grid = LocaleGrid::square(16, 4);
  auto g = erdos_renyi_dist<double>(grid, 4000, 8.0, 7);
  const int dead = 5;
  grid.remap_locale(dead, dead ^ 1);  // buddy host takes over
  grid.enable_comm_matrix();          // count only post-remap traffic
  auto& mx = grid.metrics();
  const std::int64_t m0 = mx.counter("comm.messages").value;
  const std::int64_t b0 = mx.counter("comm.bytes").value;
  (void)bfs(g, 0);
  // Post-remap delta conservation: the matrix saw exactly the counters'
  // growth, and the dead *host* neither sent nor received a message.
  EXPECT_EQ(grid.comm_matrix_total_messages(),
            mx.counter("comm.messages").value - m0);
  EXPECT_EQ(grid.comm_matrix_total_bytes(),
            mx.counter("comm.bytes").value - b0);
  for (int l = 0; l < grid.num_locales(); ++l) {
    EXPECT_EQ(grid.comm_matrix_messages(dead, l), 0) << "row " << l;
    EXPECT_EQ(grid.comm_matrix_messages(l, dead), 0) << "col " << l;
  }
  grid.restore_membership();
}

// ---------------------------------------------------------------------
// Per-query traces
// ---------------------------------------------------------------------

/// Runs a small served workload with a trace session attached; returns
/// the number of queries submitted.
int serve_traced(LocaleGrid& grid, obs::TraceSession& session,
                 GraphService& svc, GraphStore::HandleId h, int queries,
                 double deadline_s = 0.0) {
  (void)session;
  for (int i = 0; i < queries; ++i) {
    QuerySpec spec;
    spec.kind = QueryKind::kBfs;
    spec.source = static_cast<Index>((i * 37) % 4000);
    spec.tenant = i % 2;
    spec.deadline_s = deadline_s;
    svc.submit(h, spec, grid.time() + 1e-6 * i);
  }
  svc.drain();
  return queries;
}

TEST(QueryTraceTest, OneTrackPerAdmittedQueryAboveTheLocaleTracks) {
  auto grid = LocaleGrid::square(16, 4);
  obs::TraceSession session;
  grid.set_trace_session(&session);
  grid.reset();
  GraphService svc(grid, ServiceConfig{});
  const auto h = svc.store().load(make_graph(grid, 4000, 8.0, 7));
  const int queries = 6;
  serve_traced(grid, session, svc, h, queries);
  // Locale tracks stay reserved below; query tracks sit above them.
  EXPECT_EQ(session.num_tracks(), grid.num_locales() + queries);
  for (int q = 0; q < queries; ++q) {
    const int track = grid.num_locales() + q;
    const std::string* name = session.track_name(track);
    ASSERT_NE(name, nullptr) << "track " << track;
    EXPECT_NE(name->find("query "), std::string::npos);
    EXPECT_GT(session.track_coverage(track), 0.0);
  }
}

TEST(QueryTraceTest, TrackCountIsSubmittedMinusRejected) {
  auto grid = LocaleGrid::square(4, 4);
  obs::TraceSession session;
  grid.set_trace_session(&session);
  grid.reset();
  ServiceConfig cfg;
  cfg.queue_depth = 2;  // force queue-full rejections
  GraphService svc(grid, cfg);
  const auto h = svc.store().load(make_graph(grid, 1000, 4.0, 7));
  int admitted = 0, rejected = 0;
  for (int i = 0; i < 8; ++i) {
    QuerySpec spec;
    spec.source = static_cast<Index>(i * 29 % 1000);
    const auto s = svc.submit(h, spec, 1e-6 * i);
    (s.code == AdmitCode::kAdmitted ? admitted : rejected)++;
  }
  ASSERT_GT(rejected, 0);
  EXPECT_EQ(session.num_tracks(), grid.num_locales() + admitted);
  // Rejections are instants on locale track 0, one per rejection.
  int reject_instants = 0;
  for (const auto& i : session.instants()) {
    reject_instants += i.name == "query.rejected" ? 1 : 0;
  }
  EXPECT_EQ(reject_instants, rejected);
  svc.drain();
}

TEST(QueryTraceTest, LifecycleSpansCoverArrivalToTerminalGapless) {
  auto grid = LocaleGrid::square(16, 4);
  obs::TraceSession session;
  grid.set_trace_session(&session);
  grid.reset();
  GraphService svc(grid, ServiceConfig{});
  const auto h = svc.store().load(make_graph(grid, 4000, 8.0, 7));
  serve_traced(grid, session, svc, h, 4);
  for (int q = 0; q < 4; ++q) {
    const int track = grid.num_locales() + q;
    // Collect the track's depth-0 lifecycle spans in time order.
    std::vector<const obs::SpanEvent*> spans;
    bool saw_level = false, terminal = false;
    for (const auto& s : session.spans()) {
      if (s.track != track) continue;
      if (s.depth == 0) spans.push_back(&s);
      saw_level |= s.name == "query.level";
    }
    for (const auto& i : session.instants()) {
      terminal |= i.track == track &&
                  (i.name == "query.done" || i.name == "query.expired");
    }
    ASSERT_GE(spans.size(), 3u) << "track " << track;
    std::sort(spans.begin(), spans.end(),
              [](const obs::SpanEvent* a, const obs::SpanEvent* b) {
                return a->sim_begin < b->sim_begin;
              });
    EXPECT_EQ(spans.front()->name, "query.queued");
    EXPECT_EQ(spans.back()->name, "query.fused");
    for (std::size_t i = 1; i < spans.size(); ++i) {
      EXPECT_DOUBLE_EQ(spans[i]->sim_begin, spans[i - 1]->sim_end)
          << "gap on track " << track << " before " << spans[i]->name;
    }
    EXPECT_TRUE(saw_level) << "track " << track;
    EXPECT_TRUE(terminal) << "track " << track;
    // Coverage is measured from t=0; only the pre-arrival sliver is
    // uncovered, so the depth-0 spans must explain nearly all of it.
    EXPECT_GT(session.track_coverage(track), 0.9);
  }
}

TEST(QueryTraceTest, GridResetSilencesStaleContexts) {
  auto grid = LocaleGrid::square(4, 4);
  obs::TraceSession session;
  grid.set_trace_session(&session);
  grid.reset();
  GraphService svc(grid, ServiceConfig{});
  const auto h = svc.store().load(make_graph(grid, 1000, 4.0, 7));
  QuerySpec spec;
  spec.source = 1;
  ASSERT_EQ(svc.submit(h, spec, 0.0).code, AdmitCode::kAdmitted);
  // Reset mid-flight: the session is cleared, the queued context's track
  // died with it. Draining must not write spans into the new epoch.
  grid.reset();
  ASSERT_EQ(session.spans().size(), 0u);
  svc.drain();
  for (const auto& s : session.spans()) {
    EXPECT_LT(s.track, grid.num_locales()) << s.name;
  }
  for (const auto& i : session.instants()) {
    EXPECT_LT(i.track, grid.num_locales()) << i.name;
  }
}

// ---------------------------------------------------------------------
// Event log
// ---------------------------------------------------------------------

TEST(ServiceEventLogTest, RecordsAdmitsExpiriesAndPublishes) {
  auto grid = LocaleGrid::square(16, 4);
  GraphService svc(grid, ServiceConfig{});
  ServiceEventLog elog;
  svc.set_event_log(&elog);
  const auto h = svc.store().load(make_graph(grid, 4000, 8.0, 7));
  EXPECT_EQ(elog.count("load"), 1);
  QuerySpec spec;
  spec.source = 3;
  ASSERT_EQ(svc.submit(h, spec, 0.0).code, AdmitCode::kAdmitted);
  QuerySpec tight = spec;
  tight.deadline_s = 1e-12;  // expires in the queue
  ASSERT_EQ(svc.submit(h, tight, 0.0).code, AdmitCode::kAdmitted);
  svc.store().publish(h, make_graph(grid, 4000, 8.0, 8));
  svc.drain();
  EXPECT_EQ(elog.count("admit"), 2);
  EXPECT_EQ(elog.count("publish"), 1);
  EXPECT_EQ(elog.count("done"), 1);
  EXPECT_EQ(elog.count("expire"), 1);
  // Every line is stamped and typed in the fixed prefix order.
  for (const auto& line : elog.lines()) {
    EXPECT_EQ(line.rfind("{\"t\":", 0), 0u) << line;
    EXPECT_NE(line.find("\"type\":\""), std::string::npos) << line;
  }
}

TEST(ServiceEventLogTest, TypedRejectionsAndBreakerTransitionsLogged) {
  auto grid = LocaleGrid::square(4, 4);
  ServiceConfig cfg;
  cfg.queue_depth = 1;
  cfg.governor.breaker_k = 2;
  cfg.governor.breaker_cooldown_s = 0.05;
  GraphService svc(grid, cfg);
  ServiceEventLog elog;
  svc.set_event_log(&elog);
  const auto h = svc.store().load(make_graph(grid, 1000, 4.0, 7));
  QuerySpec spec;
  spec.source = 1;
  int full = 0, throttled = 0;
  for (int i = 0; i < 6; ++i) {
    const AdmitCode code = svc.submit(h, spec, 1e-7 * i).code;
    full += code == AdmitCode::kQueueFull;
    throttled += code == AdmitCode::kTenantThrottled;
  }
  // K queue-full failures trip the breaker; the remaining submits are
  // throttled rejections — every typed rejection gets a log line.
  ASSERT_GE(full, cfg.governor.breaker_k);
  ASSERT_GT(throttled, 0);
  EXPECT_EQ(elog.count("reject"), full + throttled);
  EXPECT_GE(elog.count("breaker"), 1);
  const std::string text = elog.text();
  EXPECT_NE(text.find("\"reason\":\"queue_full\""), std::string::npos);
  EXPECT_NE(text.find("\"to\":\"open\""), std::string::npos);
  svc.drain();
}

TEST(ServiceEventLogTest, PeriodicHealthSnapshots) {
  auto grid = LocaleGrid::square(4, 4);
  ServiceConfig cfg;
  cfg.health_log_every = 2;
  GraphService svc(grid, cfg);
  ServiceEventLog elog;
  svc.set_event_log(&elog);
  const auto h = svc.store().load(make_graph(grid, 1000, 4.0, 7));
  QuerySpec spec;
  spec.source = 1;
  for (int i = 0; i < 4; ++i) svc.submit(h, spec, 1e-6 * i);
  svc.drain();
  EXPECT_GE(elog.count("health"), 1);
  EXPECT_NE(elog.text().find("\"mode\":\"normal\""), std::string::npos);
}

TEST(ServiceEventLogTest, SameSeedLogAndMatrixAreByteIdentical) {
  std::string log0, matrix0;
  for (int run = 0; run < 2; ++run) {
    auto grid = LocaleGrid::square(16, 4);
    grid.enable_comm_matrix();
    ServiceConfig cfg;
    cfg.health_log_every = 2;
    GraphService svc(grid, cfg);
    ServiceEventLog elog;
    svc.set_event_log(&elog);
    const auto h = svc.store().load(make_graph(grid, 4000, 8.0, 7));
    for (int i = 0; i < 8; ++i) {
      QuerySpec spec;
      spec.kind = i % 2 == 0 ? QueryKind::kBfs : QueryKind::kSssp;
      spec.source = static_cast<Index>(i * 41 % 4000);
      spec.tenant = i % 3;
      svc.submit(h, spec, 1e-6 * i);
    }
    svc.drain();
    if (run == 0) {
      log0 = elog.text();
      matrix0 = grid.comm_matrix_json();
    } else {
      EXPECT_EQ(elog.text(), log0);
      EXPECT_EQ(grid.comm_matrix_json(), matrix0);
    }
  }
  EXPECT_FALSE(log0.empty());
}

// ---------------------------------------------------------------------
// Registry publication
// ---------------------------------------------------------------------

TEST(CommMatrixTest, PublishesCounterFamilyOnlyWhenEnabled) {
  {
    auto grid = LocaleGrid::square(4, 4);
    auto g = erdos_renyi_dist<double>(grid, 1000, 4.0, 7);
    (void)bfs(g, 0);
    const std::string json = grid.metrics().json();
    EXPECT_EQ(json.find("comm.matrix."), std::string::npos);
  }
  auto grid = LocaleGrid::square(4, 4);
  grid.enable_comm_matrix();
  auto g = erdos_renyi_dist<double>(grid, 1000, 4.0, 7);
  (void)bfs(g, 0);
  grid.publish_comm_matrix();
  const std::string json = grid.metrics().json();
  EXPECT_NE(json.find("comm.matrix.messages"), std::string::npos);
  EXPECT_NE(json.find("comm.matrix.bytes"), std::string::npos);
  // Idempotent: publishing twice must not double-count.
  auto& c = grid.metrics().counter(
      "comm.matrix.messages",
      {{"dst", "1"}, {"src", "0"}});
  const std::int64_t v = c.value;
  grid.publish_comm_matrix();
  EXPECT_EQ(c.value, v);
}

}  // namespace
}  // namespace pgb
