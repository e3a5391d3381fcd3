// Tests for the observability subsystem (src/obs): the metrics registry
// units, snapshot algebra, the simulated-time trace session and its
// Chrome trace exporter, the RAII span scopes, and the contract that the
// registry is the runtime's single bookkeeping path — CommStats is a
// view over it, phase spans tile each locale's modeled timeline, and a
// grid reset leaves every layer (clocks, stats, trace, late aggregator
// flushes) coherently in the new epoch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/ops.hpp"
#include "core/spmspv.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/random_vec.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "runtime/aggregator.hpp"
#include "runtime/locale_grid.hpp"

namespace pgb {
namespace {

using obs::Histogram;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::TraceSession;

// ---------------------------------------------------------------------
// Metrics units
// ---------------------------------------------------------------------

TEST(Metrics, MetricKeySortsLabels) {
  EXPECT_EQ(obs::metric_key("comm.messages", {}), "comm.messages");
  EXPECT_EQ(obs::metric_key("comm.messages", {{"path", "bulk"}}),
            "comm.messages{path=bulk}");
  EXPECT_EQ(obs::metric_key("x", {{"b", "2"}, {"a", "1"}}), "x{a=1,b=2}");
}

TEST(Metrics, CounterHandlesAreStableAcrossRegistrations) {
  MetricsRegistry reg;
  obs::Counter& a = reg.counter("a");
  a.inc(3);
  // Registering more metrics must not invalidate the handle.
  for (int i = 0; i < 100; ++i) {
    reg.counter("filler", {{"i", std::to_string(i)}});
  }
  a.inc(4);
  EXPECT_EQ(reg.snapshot().counter("a"), 7);
  // Same name+labels resolves to the same counter.
  EXPECT_EQ(&reg.counter("a"), &a);
}

TEST(Metrics, HistogramBucketsByPowerOfTwo) {
  Histogram h;
  h.observe(0);   // bucket 0
  h.observe(1);   // bucket 1
  h.observe(3);   // bucket 2 (bound 3)
  h.observe(100); // bucket 7 (bound 127)
  EXPECT_EQ(h.count, 4);
  EXPECT_EQ(h.sum, 104);
  EXPECT_DOUBLE_EQ(h.mean(), 26.0);
  EXPECT_EQ(h.buckets[0], 1);
  EXPECT_EQ(h.buckets[1], 1);
  EXPECT_EQ(h.buckets[2], 1);
  EXPECT_EQ(h.buckets[7], 1);
  EXPECT_EQ(h.quantile_bound(0.25), 0);
  EXPECT_EQ(h.quantile_bound(0.5), 1);
  EXPECT_EQ(h.quantile_bound(1.0), 127);
}

TEST(Metrics, SnapshotDiffAndMerge) {
  MetricsRegistry reg;
  reg.counter("c").inc(10);
  reg.gauge("g").set(1.5);
  reg.histogram("h").observe(4);
  const MetricsSnapshot before = reg.snapshot();

  reg.counter("c").inc(5);
  reg.gauge("g").set(2.5);
  reg.histogram("h").observe(8);
  const MetricsSnapshot after = reg.snapshot();

  const MetricsSnapshot d = MetricsSnapshot::diff(after, before);
  EXPECT_EQ(d.counter("c"), 5);
  EXPECT_DOUBLE_EQ(d.values.at("g").gauge, 2.5);  // gauges keep `after`
  EXPECT_EQ(d.values.at("h").hist_count, 1);

  MetricsSnapshot m = before;
  m.merge(d);
  EXPECT_EQ(m.counter("c"), 15);
  EXPECT_EQ(m.values.at("h").hist_count, 2);
}

TEST(Metrics, ResetZeroesButKeepsHandles) {
  MetricsRegistry reg;
  obs::Counter& c = reg.counter("c");
  c.inc(42);
  reg.reset();
  EXPECT_EQ(c.value, 0);
  c.inc(1);
  EXPECT_EQ(reg.snapshot().counter("c"), 1);
}

TEST(Metrics, JsonEscapesAndRendersKinds) {
  MetricsRegistry reg;
  reg.counter("weird\"name\\").inc(1);
  reg.gauge("g").set(0.5);
  reg.histogram("h").observe(2);
  const std::string j = reg.json();
  EXPECT_NE(j.find("\"weird\\\"name\\\\\""), std::string::npos);
  EXPECT_NE(j.find("\"kind\": \"gauge\""), std::string::npos);
  EXPECT_NE(j.find("\"kind\": \"histogram\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Trace session + exporter
// ---------------------------------------------------------------------

TEST(TraceSession, SpansNestLifoPerTrack) {
  TraceSession s;
  s.begin_span(0, "outer", 0.0);
  EXPECT_EQ(s.open_depth(0), 1);
  s.begin_span(0, "inner", 1.0);
  EXPECT_EQ(s.open_depth(0), 2);
  s.end_span(0, 2.0);
  s.end_span(0, 3.0);
  EXPECT_EQ(s.open_depth(0), 0);
  ASSERT_EQ(s.spans().size(), 2u);
  // Inner closes first, at depth 1; outer closes second, at depth 0.
  EXPECT_EQ(s.spans()[0].name, "inner");
  EXPECT_EQ(s.spans()[0].depth, 1);
  EXPECT_EQ(s.spans()[1].name, "outer");
  EXPECT_EQ(s.spans()[1].depth, 0);
  EXPECT_DOUBLE_EQ(s.spans()[1].sim_begin, 0.0);
  EXPECT_DOUBLE_EQ(s.spans()[1].sim_end, 3.0);
}

TEST(TraceSession, EndSpanAfterClearIsIgnored) {
  TraceSession s;
  s.begin_span(0, "phase", 0.0);
  s.clear();
  s.end_span(0, 1.0);  // no open span: must not crash or record
  EXPECT_TRUE(s.spans().empty());
  EXPECT_EQ(s.open_depth(0), 0);
}

TEST(TraceSession, TrackCoverageMeasuresTopLevelSpans) {
  TraceSession s;
  s.begin_span(0, "a", 0.0);
  s.end_span(0, 4.0);
  s.begin_span(0, "b", 6.0);
  s.end_span(0, 10.0);
  EXPECT_DOUBLE_EQ(s.track_end(0), 10.0);
  EXPECT_DOUBLE_EQ(s.track_coverage(0), 0.8);  // [0,4) + [6,10) of [0,10]
}

TEST(TraceSession, ChromeTraceJsonShape) {
  TraceSession s;
  s.begin_span(1, "phase \"q\"", 0.5, {{"k", "v"}});
  s.end_span(1, 1.5);
  s.instant(0, "tick", 0.25);
  const std::string j = s.chrome_trace_json();
  // Metadata: process name and one thread_name entry per track.
  EXPECT_NE(j.find("\"process_name\""), std::string::npos);
  EXPECT_NE(j.find("\"locale 0\""), std::string::npos);
  EXPECT_NE(j.find("\"locale 1\""), std::string::npos);
  // The complete event: ts in simulated µs, escaped name, user arg.
  EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(j.find("\"phase \\\"q\\\"\""), std::string::npos);
  EXPECT_NE(j.find("\"ts\":500000.000000"), std::string::npos);
  EXPECT_NE(j.find("\"dur\":1000000.000000"), std::string::npos);
  EXPECT_NE(j.find("\"k\":\"v\""), std::string::npos);
  // The instant event.
  EXPECT_NE(j.find("\"ph\":\"i\""), std::string::npos);
  // Balanced braces/brackets — cheap structural validity check.
  std::int64_t braces = 0, brackets = 0;
  bool in_str = false;
  for (std::size_t i = 0; i < j.size(); ++i) {
    const char ch = j[i];
    if (in_str) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_str = false;
      continue;
    }
    if (ch == '"') in_str = true;
    else if (ch == '{') ++braces;
    else if (ch == '}') --braces;
    else if (ch == '[') ++brackets;
    else if (ch == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(TraceSession, WriteChromeTraceRoundTrips) {
  TraceSession s;
  s.begin_span(0, "a", 0.0);
  s.end_span(0, 1.0);
  const std::string path = "test_obs_trace_out.json";
  s.write_chrome_trace(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), s.chrome_trace_json());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// RAII scopes over the grid
// ---------------------------------------------------------------------

TEST(Spans, NoSessionMeansNoRecording) {
  auto g = LocaleGrid::square(4, 1);
  {
    PGB_TRACE_SPAN(g, "phase");
    LocaleCtx ctx(g, 0);
    PGB_TRACE_CTX_SPAN(ctx, "step");
    ctx.trace_instant("tick");
  }
  // Nothing to assert beyond "does not crash": with no session attached
  // every scope is a null check.
  SUCCEED();
}

TEST(Spans, GridSpanRecordsOneSpanPerLocaleWithCommDelta) {
  auto g = LocaleGrid::square(4, 1);
  TraceSession s;
  g.set_trace_session(&s);
  {
    obs::GridSpan span(g, "phase");
    LocaleCtx ctx(g, 0);
    ctx.remote_bulk(1, 1000);
  }
  ASSERT_EQ(s.spans().size(), 4u);
  for (const auto& sp : s.spans()) {
    EXPECT_EQ(sp.name, "phase");
    EXPECT_GE(sp.sim_end, sp.sim_begin);
    // The comm delta of the phase rides on the span args.
    std::string d_msgs, d_bytes;
    for (const auto& a : sp.args) {
      if (a.key == "d_messages") d_msgs = a.value;
      if (a.key == "d_bytes") d_bytes = a.value;
    }
    EXPECT_EQ(d_msgs, "1");
    EXPECT_EQ(d_bytes, "1000");
  }
}

TEST(Spans, ScopeSurvivingResetClosesSilently) {
  auto g = LocaleGrid::square(4, 1);
  TraceSession s;
  g.set_trace_session(&s);
  {
    obs::GridSpan span(g, "phase");
    g.reset();  // clears the session and bumps the epoch mid-span
  }
  EXPECT_TRUE(s.spans().empty());
  // The new epoch is untouched: no half-open spans, fresh recording works.
  for (int l = 0; l < g.num_locales(); ++l) EXPECT_EQ(s.open_depth(l), 0);
  {
    obs::GridSpan span(g, "fresh");
  }
  EXPECT_EQ(s.spans().size(), 4u);
}

// ---------------------------------------------------------------------
// Grid reset coherence (clocks, stats, metrics, trace, aggregators)
// ---------------------------------------------------------------------

TEST(GridReset, ClearsClocksStatsMetricsAndTraceTogether) {
  auto g = LocaleGrid::square(4, 1);
  TraceSession s;
  g.set_trace_session(&s);
  const std::uint64_t e0 = g.epoch();
  {
    obs::GridSpan span(g, "phase");
    LocaleCtx ctx(g, 0);
    ctx.remote_bulk(1, 512);
    ctx.remote_rt(2, 8);
  }
  EXPECT_GT(g.time(), 0.0);
  EXPECT_EQ(g.comm_stats().messages, 3);
  EXPECT_FALSE(s.spans().empty());

  g.reset();
  EXPECT_EQ(g.epoch(), e0 + 1);
  EXPECT_DOUBLE_EQ(g.time(), 0.0);
  EXPECT_EQ(g.comm_stats().messages, 0);
  EXPECT_EQ(g.comm_stats().bytes, 0);
  EXPECT_EQ(g.metrics().snapshot().counter("comm.messages"), 0);
  EXPECT_TRUE(s.spans().empty());
  EXPECT_TRUE(g.trace().phases().empty());
}

TEST(GridReset, LateAggregatorFlushDoesNotChargeNewEpoch) {
  auto g = LocaleGrid::square(4, 1);
  std::vector<int> sink;
  {
    LocaleCtx ctx(g, 0);
    DstAggregator<int> agg(ctx, [&](int, std::vector<int>& b) {
      sink.insert(sink.end(), b.begin(), b.end());
    });
    agg.push(1, 7);
    agg.push(3, 9);
    g.reset();  // epoch bump while the aggregator still holds data
  }             // destructor flush fires here, in the old epoch
  // Data delivery is a correctness matter and still happens...
  EXPECT_EQ(sink, (std::vector<int>{7, 9}));
  // ...but no modeled time or stats leak into the fresh epoch.
  EXPECT_DOUBLE_EQ(g.time(), 0.0);
  EXPECT_EQ(g.comm_stats().messages, 0);
  EXPECT_EQ(g.comm_stats().agg_flushes, 0);
  EXPECT_EQ(g.metrics().snapshot().counter("agg.flushes"), 0);
}

// ---------------------------------------------------------------------
// Registry as the single bookkeeping path
// ---------------------------------------------------------------------

/// comm.messages{path=*} family must sum to the comm.messages total.
void expect_path_family_sums_to_total(const MetricsSnapshot& snap) {
  std::int64_t family = 0;
  for (const auto& [key, val] : snap.values) {
    if (key.rfind("comm.messages{", 0) == 0) family += val.counter;
  }
  EXPECT_EQ(family, snap.counter("comm.messages"));
}

TEST(MetricsWiring, CommStatsEqualsRegistryAcrossSchedules) {
  const Index n = 4000;
  for (CommMode mode :
       {CommMode::kFine, CommMode::kBulk, CommMode::kAggregated}) {
    auto g = LocaleGrid::square(16, 4);
    auto a = erdos_renyi_dist<double>(g, n, 8.0, 5);
    auto x = random_dist_sparse_vec<double>(g, n, n / 20, 6);
    g.reset();
    SpmspvOptions opt;
    opt.comm = mode;
    auto y = spmspv_dist(a, x, arithmetic_semiring<double>(), opt);
    EXPECT_GT(y.nnz(), 0);

    const CommStats cs = g.comm_stats();
    const MetricsSnapshot snap = g.metrics().snapshot();
    EXPECT_EQ(cs.messages, snap.counter("comm.messages"));
    EXPECT_EQ(cs.bytes, snap.counter("comm.bytes"));
    EXPECT_EQ(cs.bulks, snap.counter("comm.bulks"));
    EXPECT_EQ(cs.agg_flushes, snap.counter("agg.flushes"));
    EXPECT_GT(cs.messages, 0);
    expect_path_family_sums_to_total(snap);

    // Per-phase attribution partitions the kernel's total.
    EXPECT_EQ(snap.counter("spmspv.messages{phase=gather}") +
                  snap.counter("spmspv.messages{phase=scatter}"),
              cs.messages);
    EXPECT_EQ(snap.counter("spmspv.bytes{phase=gather}") +
                  snap.counter("spmspv.bytes{phase=scatter}"),
              cs.bytes);
    EXPECT_EQ(snap.counter("kernel.calls{kernel=spmspv_dist}"), 1);
    if (mode == CommMode::kAggregated) {
      EXPECT_GT(cs.agg_flushes, 0);
      EXPECT_GT(snap.counter("agg.messages"), 0);
      EXPECT_LE(snap.counter("agg.messages"), cs.messages);
      EXPECT_EQ(snap.counter("comm.messages{path=agg}"),
                snap.counter("agg.messages"));
      const auto& occ = snap.values.at("agg.occupancy{dir=put}");
      EXPECT_GT(occ.hist_count, 0);
    }
  }
}

TEST(MetricsWiring, AggregatorPublishesOccupancyAndBytes) {
  auto g = LocaleGrid::square(4, 1);
  LocaleCtx ctx(g, 0);
  DstAggregator<std::int64_t> agg(ctx, [](int, std::vector<std::int64_t>&) {},
                                  /*capacity=*/8);
  for (int i = 0; i < 16; ++i) agg.push(1, i);
  agg.flush_all();
  const MetricsSnapshot snap = g.metrics().snapshot();
  EXPECT_EQ(snap.counter("agg.flushes"), 2);
  EXPECT_EQ(snap.counter("agg.bytes"),
            16 * static_cast<std::int64_t>(sizeof(std::int64_t)));
  const auto& occ = snap.values.at("agg.occupancy{dir=put}");
  EXPECT_EQ(occ.hist_count, 2);  // two full flushes of 8 elements
  EXPECT_EQ(occ.hist_sum, 16);
}

// ---------------------------------------------------------------------
// Lazily registered handles: exact key sets, reset and move
// ---------------------------------------------------------------------

std::vector<std::string> registry_keys(const LocaleGrid& g) {
  std::vector<std::string> keys;
  for (const auto& [key, val] : g.metrics().snapshot().values) {
    keys.push_back(key);
  }
  return keys;
}

std::vector<std::string> sorted_union(std::vector<std::string> a,
                                      const std::vector<std::string>& b) {
  a.insert(a.end(), b.begin(), b.end());
  std::sort(a.begin(), a.end());
  return a;
}

/// Registered by every grid at construction (LocaleGrid::HotCounters).
const std::vector<std::string> kGridKeys = {
    "agg.flushes",
    "comm.bulks",
    "comm.bytes",
    "comm.logical_messages",
    "comm.messages",
    "comm.retries",
    "comm.timeouts",
    "fault.injected{kind=corrupt}",
    "fault.injected{kind=drop}",
    "fault.injected{kind=dup}",
    "fault.injected{kind=stall}",
    "runtime.barriers",
    "runtime.coforalls",
    "runtime.parallel_regions",
};

TEST(LazyMetrics, SpmspvKeySetPerSchedule) {
  // Every schedule's gather builds an AggChannel and sends one domain-size
  // round trip per remote source, so the agg.* family and path=rt are
  // part of every SpMSpV key set. The committed profile baselines carry
  // exactly these keys.
  const std::vector<std::string> every = {
      "agg.bytes",
      "agg.messages",
      "agg.occupancy{dir=get}",
      "agg.occupancy{dir=put}",
      "agg.resends",
      "comm.messages{path=agg}",
      "comm.messages{path=rt}",
      "kernel.calls{kernel=spmspv_dist}",
      "spmspv.bytes{phase=gather}",
      "spmspv.bytes{phase=scatter}",
      "spmspv.messages{phase=gather}",
      "spmspv.messages{phase=scatter}",
  };
  const std::vector<std::pair<CommMode, std::vector<std::string>>> cases = {
      {CommMode::kFine,
       {"comm.messages{path=chain}", "comm.messages{path=msgs}"}},
      {CommMode::kBulk, {"comm.messages{path=bulk}"}},
      {CommMode::kAggregated, {}},
      {CommMode::kAuto,
       {"comm.messages{path=bulk}", "inspector.decisions{strategy=agg}",
        "inspector.decisions{strategy=bulk}",
        "inspector.site.decisions{site=spmspv.gather,strategy=bulk}",
        "inspector.site.decisions{site=spmspv.scatter,strategy=agg}",
        "inspector.sites"}},
  };
  for (const auto& [mode, extra] : cases) {
    auto g = LocaleGrid::square(16, 4);
    auto a = erdos_renyi_dist<double>(g, 4000, 8.0, 5);
    auto x = random_dist_sparse_vec<double>(g, 4000, 200, 6);
    EXPECT_EQ(registry_keys(g), kGridKeys);
    g.reset();
    SpmspvOptions opt;
    opt.comm = mode;
    auto y = spmspv_dist(a, x, arithmetic_semiring<double>(), opt);
    EXPECT_GT(y.nnz(), 0);
    EXPECT_EQ(registry_keys(g),
              sorted_union(sorted_union(kGridKeys, every), extra))
        << to_string(mode);
  }
}

TEST(LazyMetrics, PathsAndAggFamilyRegisterOnFirstUse) {
  auto g = LocaleGrid::square(16, 1);
  LocaleCtx ctx(g, 0);
  ctx.remote_bulk(1, 64);
  ctx.remote_msgs(2, 3, 8);
  // No aggregator was built: no agg.* family and no path=agg.
  EXPECT_EQ(registry_keys(g),
            sorted_union(kGridKeys, {"comm.messages{path=bulk}",
                                     "comm.messages{path=msgs}"}));
  { AggChannel chan(ctx, kAggCapacity); }
  EXPECT_EQ(registry_keys(g),
            sorted_union(kGridKeys,
                         {"agg.bytes", "agg.messages",
                          "agg.occupancy{dir=get}", "agg.occupancy{dir=put}",
                          "agg.resends", "comm.messages{path=agg}",
                          "comm.messages{path=bulk}",
                          "comm.messages{path=msgs}"}));
}

/// One round trip and one aggregated put from locale 0 to locale 1.
void rt_and_put(LocaleGrid& g) {
  LocaleCtx ctx(g, 0);
  ctx.remote_rt(1, 8);  // 2 messages
  DstAggregator<int> agg(ctx, [](int, std::vector<int>&) {});
  agg.push(1, 7);  // flushed at scope exit: 3 messages
}

void expect_rounds(const LocaleGrid& g, std::int64_t rounds) {
  const MetricsSnapshot snap = g.metrics().snapshot();
  EXPECT_EQ(snap.counter("comm.messages{path=rt}"), 2 * rounds);
  EXPECT_EQ(snap.counter("comm.messages{path=agg}"), 3 * rounds);
  EXPECT_EQ(snap.counter("agg.messages"), 3 * rounds);
  EXPECT_EQ(snap.counter("comm.messages"), 5 * rounds);
  EXPECT_EQ(snap.values.at("agg.occupancy{dir=put}").hist_count, rounds);
}

TEST(LazyMetrics, CachedHandlesFollowResetAndMove) {
  auto g = LocaleGrid::square(16, 1);
  rt_and_put(g);  // registers the lazy handles
  expect_rounds(g, 1);
  g.reset();
  rt_and_put(g);
  expect_rounds(g, 1);  // zeroed by the reset, then counted afresh
  rt_and_put(g);
  expect_rounds(g, 2);

  LocaleGrid moved(std::move(g));
  rt_and_put(moved);
  expect_rounds(moved, 3);
  // The cached handles point into the moved-to grid's registry.
  EXPECT_EQ(&moved.path_messages(CommPath::kRt),
            &moved.metrics().counter("comm.messages", {{"path", "rt"}}));
  EXPECT_EQ(moved.agg_metrics().path_messages,
            &moved.path_messages(CommPath::kAgg));
  EXPECT_EQ(moved.agg_metrics().messages,
            &moved.metrics().counter("agg.messages"));
}

// ---------------------------------------------------------------------
// The Fig-8 acceptance run: 64 locales, aggregated SpMSpV, full trace
// ---------------------------------------------------------------------

TEST(TraceAcceptance, Fig8RunCoversEveryLocaleTimeline) {
  const Index n = 40000;
  auto g = LocaleGrid::square(64, 4);
  TraceSession session;
  g.set_trace_session(&session);
  auto a = erdos_renyi_dist<double>(g, n, 8.0, 5);
  auto x = random_dist_sparse_vec<double>(g, n, n / 50, 6);
  g.reset();  // trace covers exactly the kernel

  SpmspvOptions opt;
  opt.comm = CommMode::kAggregated;
  auto y = spmspv_dist(a, x, arithmetic_semiring<double>(), opt);
  EXPECT_GT(y.nnz(), 0);

  // One track per locale.
  EXPECT_EQ(session.num_tracks(), 64);

  // Every span closed, simulated time well-formed and monotone per
  // track at every nesting depth.
  std::vector<double> last_end(64, 0.0);
  std::vector<std::vector<const obs::SpanEvent*>> by_track(64);
  for (const auto& sp : session.spans()) {
    ASSERT_GE(sp.track, 0);
    ASSERT_LT(sp.track, 64);
    EXPECT_GE(sp.sim_end, sp.sim_begin);
    EXPECT_GE(sp.wall_end_us, sp.wall_begin_us);
    by_track[static_cast<std::size_t>(sp.track)].push_back(&sp);
  }
  for (int l = 0; l < 64; ++l) {
    EXPECT_EQ(session.open_depth(l), 0);
    ASSERT_FALSE(by_track[static_cast<std::size_t>(l)].empty());
    // Depth-0 spans must not overlap and must advance monotonically.
    double prev_end = 0.0;
    for (const auto* sp : by_track[static_cast<std::size_t>(l)]) {
      if (sp->depth != 0) continue;
      EXPECT_GE(sp->sim_begin, prev_end - 1e-12);
      prev_end = sp->sim_end;
    }
    // The acceptance bar: top-level spans explain >= 95% of the
    // locale's modeled timeline.
    EXPECT_GE(session.track_coverage(l), 0.95)
        << "locale " << l << " timeline has unexplained gaps";
    EXPECT_NEAR(session.track_end(l), g.clock(l).now(), 1e-9);
  }

  // The three kernel phases appear on every track.
  for (const char* phase : {"spmspv.gather", "spmspv.local",
                            "spmspv.scatter"}) {
    int tracks_with = 0;
    for (int l = 0; l < 64; ++l) {
      for (const auto* sp : by_track[static_cast<std::size_t>(l)]) {
        if (sp->name == phase) {
          ++tracks_with;
          break;
        }
      }
    }
    EXPECT_EQ(tracks_with, 64) << phase;
  }
}

}  // namespace
}  // namespace pgb
