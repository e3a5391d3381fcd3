// Tests for the profile/regression-gate plane: the util/json reader,
// profile construction from a trace session (span-tree folding,
// inclusive/self time, per-locale stats, counter deltas), the stable
// serialization contract (same seed -> byte-identical profile.json in
// every comm mode), the diff semantics pgb_diff builds on (exact counts,
// banded times, improvements are not failures), the Perfetto counter
// tracks (monotone per track, epoch-guarded across grid.reset()), and
// the histogram quantile summaries in the metrics JSON.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/ops.hpp"
#include "core/spmspv.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/random_vec.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "runtime/aggregator.hpp"
#include "runtime/locale_grid.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace pgb {
namespace {

using obs::build_profile;
using obs::diff_profiles;
using obs::MetricsRegistry;
using obs::Profile;
using obs::ProfileDiffOptions;
using obs::ProfileDiffResult;
using obs::ProfileFinding;
using obs::TraceSession;

// ---------------------------------------------------------------------
// util/json reader
// ---------------------------------------------------------------------

TEST(Json, ParsesScalarsAndNesting) {
  const JsonValue v = json_parse(
      R"({"a": 1, "b": -2.5, "c": [true, false, null, "s"], "d": {"e": 9007199254740993}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_TRUE(v.at("a").is_int);
  EXPECT_EQ(v.at("a").as_int(), 1);
  EXPECT_FALSE(v.at("b").is_int);
  EXPECT_DOUBLE_EQ(v.at("b").as_double(), -2.5);
  ASSERT_TRUE(v.at("c").is_array());
  ASSERT_EQ(v.at("c").size(), 4u);
  EXPECT_TRUE(v.at("c").at(0).as_bool());
  EXPECT_FALSE(v.at("c").at(1).as_bool());
  EXPECT_TRUE(v.at("c").at(2).is_null());
  EXPECT_EQ(v.at("c").at(3).as_string(), "s");
  // Exact int64 beyond double's 2^53 integer range.
  EXPECT_EQ(v.at("d").at("e").as_int(), 9007199254740993LL);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), InvalidArgument);
}

TEST(Json, DecodesEscapesIncludingSurrogatePairs) {
  const JsonValue v = json_parse(
      "{\"s\": \"q\\\" b\\\\ n\\n t\\t u\\u00e9 p\\ud83d\\ude00\"}");
  // é = é (2 UTF-8 bytes); 😀 = 😀 (4 bytes).
  EXPECT_EQ(v.at("s").as_string(),
            std::string("q\" b\\ n\n t\t u\xc3\xa9 p\xf0\x9f\x98\x80"));
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(json_parse(""), InvalidArgument);
  EXPECT_THROW(json_parse("{"), InvalidArgument);
  EXPECT_THROW(json_parse("[1,]"), InvalidArgument);
  EXPECT_THROW(json_parse("{\"a\":1} trailing"), InvalidArgument);
  EXPECT_THROW(json_parse("nul"), InvalidArgument);
  EXPECT_THROW(json_parse("\"unterminated"), InvalidArgument);
}

TEST(Json, NumbersFollowRfc8259) {
  struct Case {
    const char* text;
    bool ok;
    double num;
  };
  const Case cases[] = {
      {"0", true, 0.0},        {"-0", true, -0.0},
      {"7", true, 7.0},        {"-12", true, -12.0},
      {"0.5", true, 0.5},      {"1e3", true, 1000.0},
      {"1E+2", true, 100.0},   {"2.5e-1", true, 0.25},
      {"1e-400", true, 0.0},   {"1.7976931348623157e308", true, 1.7976931348623157e308},
      {"1.", false, 0.0},      {".5", false, 0.0},
      {"01", false, 0.0},      {"-01", false, 0.0},
      {"00", false, 0.0},      {"+1", false, 0.0},
      {"-", false, 0.0},       {"1e", false, 0.0},
      {"1e+", false, 0.0},     {"1.e3", false, 0.0},
      {"-.5", false, 0.0},     {"0x10", false, 0.0},
      {"1e999", false, 0.0},   {"-1e999", false, 0.0},
      {"[1.]", false, 0.0},    {"{\"a\":01}", false, 0.0},
      {"inf", false, 0.0},     {"NaN", false, 0.0},
  };
  for (const Case& c : cases) {
    if (!c.ok) {
      EXPECT_THROW(json_parse(c.text), InvalidArgument) << c.text;
      continue;
    }
    const JsonValue v = json_parse(c.text);
    EXPECT_TRUE(v.is_number()) << c.text;
    EXPECT_EQ(v.num, c.num) << c.text;
  }
}

TEST(Json, NestingIsCapped) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW(json_parse(nested(64)));
  EXPECT_THROW(json_parse(nested(65)), InvalidArgument);
  EXPECT_THROW(json_parse(std::string(100000, '[')), InvalidArgument);
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  try {
    json_parse(objects);
    FAIL() << "expected the nesting cap";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than 64"),
              std::string::npos);
  }
}

TEST(Json, MutatedProfilesParseOrThrow) {
  // Seeded byte mutations of the committed profile baselines. Every
  // mutant either parses or throws InvalidArgument: no crash, no other
  // exception.
  std::vector<std::string> seeds;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(PGB_SOURCE_DIR) / "BENCH_profiles")) {
    if (entry.path().extension() != ".json") continue;
    std::ifstream in(entry.path());
    std::stringstream ss;
    ss << in.rdbuf();
    seeds.push_back(ss.str());
    EXPECT_NO_THROW(json_parse(seeds.back())) << entry.path();
  }
  ASSERT_FALSE(seeds.empty());
  const std::string alphabet = "0123456789.eE+-,:[]{}\" \\ntrufals";
  Xoshiro256 rng(2026);
  int parsed = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    std::string m = seeds[rng.next() % seeds.size()];
    const int edits = 1 + static_cast<int>(rng.next() % 3);
    for (int e = 0; e < edits && !m.empty(); ++e) {
      const std::size_t at = rng.next() % m.size();
      const char c = rng.next() % 4 == 0
                         ? static_cast<char>(rng.next() % 256)
                         : alphabet[rng.next() % alphabet.size()];
      switch (rng.next() % 3) {
        case 0: m[at] = c; break;
        case 1: m.insert(m.begin() + static_cast<std::ptrdiff_t>(at), c); break;
        default: m.erase(at, 1); break;
      }
    }
    try {
      json_parse(m);
      ++parsed;
    } catch (const InvalidArgument&) {
    }
  }
  EXPECT_GT(parsed, 0);
}

// ---------------------------------------------------------------------
// Profile construction from a hand-built session
// ---------------------------------------------------------------------

// Two locales; on each, "op" [0,10] with a nested "op.inner". Locale 1
// is slower (inner [2,9] vs [2,6]) so the per-locale stats differ, and
// integer args accumulate into node counters.
TraceSession make_session() {
  TraceSession s;
  for (int loc = 0; loc < 2; ++loc) {
    s.begin_span(loc, "op", 0.0);
    s.begin_span(loc, "op.inner", 2.0, {{"d_messages", "3"}});
    s.end_span(loc, loc == 0 ? 6.0 : 9.0);
    s.end_span(loc, 10.0, {{"d_bytes", "100"}});
  }
  return s;
}

TEST(ProfileBuild, FoldsSpanTreeWithInclusiveAndSelfTime) {
  const TraceSession s = make_session();
  const Profile p = build_profile(s, MetricsRegistry().snapshot());

  ASSERT_EQ(p.spans.size(), 1u);
  const obs::ProfileNode& op = p.spans.at("op");
  EXPECT_EQ(op.count, 2);
  EXPECT_EQ(op.locales, 2);
  EXPECT_DOUBLE_EQ(op.incl, 20.0);       // 10 + 10
  EXPECT_DOUBLE_EQ(op.self, 20.0 - 11.0);  // minus inner 4 + 7
  EXPECT_DOUBLE_EQ(op.incl_min, 10.0);
  EXPECT_DOUBLE_EQ(op.incl_mean, 10.0);
  EXPECT_DOUBLE_EQ(op.incl_max, 10.0);
  EXPECT_EQ(op.counters.at("d_bytes"), 200);

  ASSERT_EQ(op.children.size(), 1u);
  const obs::ProfileNode& inner = op.children.at("op.inner");
  EXPECT_EQ(inner.count, 2);
  EXPECT_DOUBLE_EQ(inner.incl, 11.0);  // 4 + 7
  EXPECT_DOUBLE_EQ(inner.self, 11.0);  // leaf
  EXPECT_DOUBLE_EQ(inner.incl_min, 4.0);
  EXPECT_DOUBLE_EQ(inner.incl_mean, 5.5);
  EXPECT_DOUBLE_EQ(inner.incl_max, 7.0);
  EXPECT_EQ(inner.counters.at("d_messages"), 6);
}

TEST(ProfileBuild, SerializationRoundTripsByteForByte) {
  const TraceSession s = make_session();
  MetricsRegistry reg;
  reg.counter("comm.messages").inc(42);
  reg.histogram("agg.occupancy", {{"dir", "put"}}).observe(7);
  Profile p = build_profile(s, reg.snapshot());
  p.workload = "unit test";
  p.comm = "agg";
  p.seed = 5;
  p.locales = 2;
  p.threads = 24;
  p.machine = "edison";

  const std::string text = p.json();
  const Profile back = Profile::from_json(text);
  // Render -> parse -> render is idempotent: the stable-format contract
  // the byte-identical baseline diffing relies on.
  EXPECT_EQ(back.json(), text);
  EXPECT_EQ(back.workload, "unit test");
  EXPECT_EQ(back.seed, 5u);
  EXPECT_EQ(back.counters.at("comm.messages"), 42);
  EXPECT_EQ(back.histograms.at("agg.occupancy{dir=put}").count, 1);
  EXPECT_EQ(back.spans.at("op").children.at("op.inner").counters.at(
                "d_messages"),
            6);
}

// ---------------------------------------------------------------------
// Trace exporter escaping round-trips through the JSON reader
// ---------------------------------------------------------------------

TEST(TraceExport, HostileNamesRoundTripThroughParser) {
  TraceSession s;
  const std::string hostile = "he said \"hi\"\\\n\ttab\x01";
  s.begin_span(0, hostile, 0.0, {{"arg \"k\"", "v\\\n"}});
  s.end_span(0, 1.0);
  s.instant(0, hostile, 0.5);
  s.counter(hostile, 0.25, 2.0);

  const JsonValue doc = json_parse(s.chrome_trace_json());
  const JsonValue& events = doc.at("traceEvents");
  int seen = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const JsonValue& e = events.at(i);
    if (e.find("name") != nullptr && e.at("name").as_string() == hostile) {
      ++seen;
      if (e.at("ph").as_string() == "X") {
        EXPECT_EQ(e.at("args").at("arg \"k\"").as_string(), "v\\\n");
      }
    }
  }
  // The span, the instant, and the counter sample all survive intact.
  EXPECT_EQ(seen, 3);
}

TEST(TraceExport, CounterSamplesBecomeWellFormedCEvents) {
  TraceSession s;
  s.counter("comm.messages", 0.0, 0.0);
  s.counter("comm.messages", 1.5, 12.0);
  const JsonValue doc = json_parse(s.chrome_trace_json());
  const JsonValue& events = doc.at("traceEvents");
  std::vector<double> values;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const JsonValue& e = events.at(i);
    if (e.at("ph").as_string() != "C") continue;
    EXPECT_EQ(e.at("name").as_string(), "comm.messages");
    EXPECT_EQ(e.at("pid").as_int(), 0);
    values.push_back(e.at("args").at("value").as_double());
  }
  ASSERT_EQ(values.size(), 2u);
  EXPECT_DOUBLE_EQ(values[0], 0.0);
  EXPECT_DOUBLE_EQ(values[1], 12.0);
}

// ---------------------------------------------------------------------
// Counter tracks on a real kernel run
// ---------------------------------------------------------------------

TEST(CounterTracks, MonotoneNonDecreasingPerTrack) {
  auto grid = LocaleGrid::square(16, 4);
  const Index n = 20000;
  auto a = erdos_renyi_dist<double>(grid, n, 8.0, 5);
  auto x = random_dist_sparse_vec<double>(grid, n, 400, 6);
  TraceSession session;
  grid.set_trace_session(&session);
  grid.reset();
  SpmspvOptions opt;
  opt.comm = CommMode::kAggregated;
  spmspv_dist(a, x, arithmetic_semiring<double>(), opt);

  ASSERT_FALSE(session.counter_samples().empty());
  std::map<std::string, std::pair<double, double>> last;  // name -> ts,val
  int checked = 0;
  for (const auto& c : session.counter_samples()) {
    auto it = last.find(c.name);
    if (it != last.end()) {
      EXPECT_GE(c.sim_ts, it->second.first) << c.name;
      EXPECT_GE(c.value, it->second.second) << c.name;
      ++checked;
    }
    last[c.name] = {c.sim_ts, c.value};
  }
  EXPECT_GT(checked, 0);
  // The standard tracks are present.
  EXPECT_TRUE(last.count("comm.messages"));
  EXPECT_TRUE(last.count("comm.bytes"));
  EXPECT_TRUE(last.count("agg.flushes"));
  grid.set_trace_session(nullptr);
}

TEST(CounterTracks, EpochGuardAcrossGridReset) {
  auto grid = LocaleGrid::square(4, 2);
  TraceSession session;
  grid.set_trace_session(&session);
  grid.reset();

  auto* span = new obs::GridSpan(grid, "stale.phase");
  EXPECT_FALSE(session.counter_samples().empty());  // sampled at open
  grid.reset();  // clears the session and bumps the epoch
  EXPECT_TRUE(session.counter_samples().empty());
  EXPECT_TRUE(session.spans().empty());
  delete span;  // end() must notice the epoch change and stay silent
  EXPECT_TRUE(session.counter_samples().empty());
  EXPECT_TRUE(session.spans().empty());
  grid.set_trace_session(nullptr);
}

// ---------------------------------------------------------------------
// Byte-identical profiles per comm mode (same seed, two runs)
// ---------------------------------------------------------------------

std::string profile_json_for(CommMode mode) {
  auto grid = LocaleGrid::square(16, 4);
  const Index n = 20000;
  auto a = erdos_renyi_dist<double>(grid, n, 8.0, 5);
  auto x = random_dist_sparse_vec<double>(grid, n, 400, 6);
  TraceSession session;
  grid.set_trace_session(&session);
  grid.reset();
  SpmspvOptions opt;
  opt.comm = mode;
  spmspv_dist(a, x, arithmetic_semiring<double>(), opt);
  Profile p = build_profile(session, grid.metrics().snapshot());
  p.workload = "spmspv er n=20000 d=8";
  p.comm = to_string(mode);
  p.seed = 5;
  p.locales = grid.num_locales();
  p.threads = grid.threads();
  p.machine = "edison";
  grid.set_trace_session(nullptr);
  return p.json();
}

TEST(ProfileDeterminism, SameSeedByteIdenticalInEveryCommMode) {
  for (CommMode mode :
       {CommMode::kFine, CommMode::kBulk, CommMode::kAggregated}) {
    const std::string one = profile_json_for(mode);
    const std::string two = profile_json_for(mode);
    EXPECT_EQ(one, two) << "comm mode " << to_string(mode);
    // And the modes are genuinely different runs, not one cached result.
    const Profile p = Profile::from_json(one);
    EXPECT_EQ(p.comm, to_string(mode));
  }
}

// ---------------------------------------------------------------------
// Diff semantics
// ---------------------------------------------------------------------

Profile real_profile() {
  Profile p = Profile::from_json(profile_json_for(CommMode::kAggregated));
  return p;
}

TEST(ProfileDiff, IdenticalProfilesAreClean) {
  const Profile p = real_profile();
  const ProfileDiffResult d = diff_profiles(p, p);
  EXPECT_TRUE(d.clean());
  EXPECT_TRUE(d.findings.empty());
  EXPECT_GT(d.compared, 10);
}

TEST(ProfileDiff, TenPercentGatherSlowdownTripsTheGate) {
  const Profile base = real_profile();
  Profile cand = base;
  obs::scale_span_times(cand, "spmspv.gather", 1.1);
  const ProfileDiffResult d = diff_profiles(base, cand);
  EXPECT_FALSE(d.clean());
  bool saw_gather = false;
  for (const auto& f : d.findings) {
    EXPECT_EQ(f.kind, ProfileFinding::Kind::kRegression);
    if (f.where.find("spmspv.gather") != std::string::npos) {
      saw_gather = true;
    }
  }
  EXPECT_TRUE(saw_gather);
}

TEST(ProfileDiff, WithinBandDriftIsClean) {
  const Profile base = real_profile();
  Profile cand = base;
  obs::scale_span_times(cand, "spmspv.gather", 1.02);  // inside 5% band
  // Counts/counters are untouched, so only banded times moved.
  EXPECT_TRUE(diff_profiles(base, cand).clean());
}

TEST(ProfileDiff, ImprovementIsReportedButNotAFailure) {
  const Profile base = real_profile();
  Profile cand = base;
  obs::scale_span_times(cand, "spmspv.gather", 0.8);
  const ProfileDiffResult d = diff_profiles(base, cand);
  EXPECT_TRUE(d.clean());
  bool saw_improvement = false;
  for (const auto& f : d.findings) {
    if (f.kind == ProfileFinding::Kind::kImprovement) saw_improvement = true;
  }
  EXPECT_TRUE(saw_improvement);
}

TEST(ProfileDiff, CounterDriftFailsExactly) {
  const Profile base = real_profile();
  Profile cand = base;
  ASSERT_FALSE(cand.counters.empty());
  cand.counters.begin()->second += 1;  // one message of drift
  EXPECT_FALSE(diff_profiles(base, cand).clean());
}

TEST(ProfileDiff, MissingSpanIsStructural) {
  const Profile base = real_profile();
  Profile cand = base;
  ASSERT_FALSE(cand.spans.empty());
  cand.spans.erase(cand.spans.begin());
  const ProfileDiffResult d = diff_profiles(base, cand);
  EXPECT_FALSE(d.clean());
  bool structural = false;
  for (const auto& f : d.findings) {
    if (f.kind == ProfileFinding::Kind::kStructural) structural = true;
  }
  EXPECT_TRUE(structural);
}

TEST(ProfileDiff, WorkloadIdentityMismatchIsStructural) {
  const Profile base = real_profile();
  Profile cand = base;
  cand.comm = "fine";
  EXPECT_FALSE(diff_profiles(base, cand).clean());
}

// ---------------------------------------------------------------------
// Metrics JSON histogram summaries
// ---------------------------------------------------------------------

TEST(MetricsJson, HistogramsCarryQuantileSummaries) {
  MetricsRegistry reg;
  auto& h = reg.histogram("agg.occupancy", {{"dir", "put"}});
  for (int i = 1; i <= 100; ++i) h.observe(i);
  const JsonValue doc = json_parse(reg.json());
  const JsonValue& metrics = doc.at("metrics");
  const JsonValue* hist = nullptr;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (metrics.at(i).at("name").as_string() == "agg.occupancy{dir=put}") {
      hist = &metrics.at(i);
    }
  }
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->at("kind").as_string(), "histogram");
  EXPECT_EQ(hist->at("count").as_int(), 100);
  EXPECT_EQ(hist->at("sum").as_int(), 5050);
  EXPECT_DOUBLE_EQ(hist->at("mean").as_double(), 50.5);
  // Power-of-two bucket upper bounds: p50 of 1..100 lands in (31,63],
  // p95 and max in (63,127].
  EXPECT_EQ(hist->at("p50").as_int(), 63);
  EXPECT_EQ(hist->at("p95").as_int(), 127);
  EXPECT_EQ(hist->at("max").as_int(), 127);
  EXPECT_TRUE(hist->at("buckets").is_array());

  // The snapshot-side helper agrees.
  const auto snap = reg.snapshot();
  for (const auto& [key, v] : snap.values) {
    if (v.kind != obs::MetricKind::kHistogram) continue;
    EXPECT_EQ(v.hist_quantile_bound(0.5), 63);
    EXPECT_EQ(v.hist_quantile_bound(1.0), 127);
  }
}

TEST(MetricsJson, FindDoesNotRegister) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.find_counter("nope"), nullptr);
  EXPECT_EQ(reg.find_histogram("nope"), nullptr);
  EXPECT_TRUE(reg.snapshot().values.empty());
  reg.counter("yes").inc(2);
  ASSERT_NE(reg.find_counter("yes"), nullptr);
  EXPECT_EQ(reg.find_counter("yes")->value, 2);
}

}  // namespace
}  // namespace pgb
