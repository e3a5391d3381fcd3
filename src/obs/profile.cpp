#include "obs/profile.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/error.hpp"
#include "util/json.hpp"

namespace pgb::obs {

namespace {

std::string fmt(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// Parses a fully-integer string ("-12", "400"); false otherwise.
bool parse_int(const std::string& s, std::int64_t& out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  out = static_cast<std::int64_t>(v);
  return true;
}

// -------------------------------------------------------------------
// Building: reconstruct each track's span forest from close order,
// then fold instances into the name-keyed tree.
// -------------------------------------------------------------------

/// Accumulator node: ProfileNode plus the per-track inclusive totals
/// needed for the min/mean/max finalization.
struct Acc {
  std::int64_t count = 0;
  double incl = 0.0;
  double self = 0.0;
  std::map<int, double> by_track;
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, Acc> children;
};

struct Inst {
  const SpanEvent* ev = nullptr;
  std::vector<Inst> children;
};

void fold_instance(const Inst& inst, int track,
                   std::map<std::string, Acc>& accs) {
  Acc& a = accs[inst.ev->name];
  const double incl = inst.ev->sim_end - inst.ev->sim_begin;
  double child_incl = 0.0;
  for (const Inst& c : inst.children) {
    child_incl += c.ev->sim_end - c.ev->sim_begin;
  }
  ++a.count;
  a.incl += incl;
  a.self += incl - child_incl;
  a.by_track[track] += incl;
  for (const TraceArg& arg : inst.ev->args) {
    std::int64_t v = 0;
    if (parse_int(arg.value, v)) a.counters[arg.key] += v;
  }
  for (const Inst& c : inst.children) fold_instance(c, track, a.children);
}

ProfileNode finalize(const Acc& a) {
  ProfileNode n;
  n.count = a.count;
  n.incl = a.incl;
  n.self = a.self;
  n.locales = static_cast<int>(a.by_track.size());
  if (!a.by_track.empty()) {
    double mn = a.by_track.begin()->second, mx = mn, sum = 0.0;
    for (const auto& [track, t] : a.by_track) {
      mn = std::min(mn, t);
      mx = std::max(mx, t);
      sum += t;
    }
    n.incl_min = mn;
    n.incl_max = mx;
    n.incl_mean = sum / static_cast<double>(a.by_track.size());
  }
  n.counters = a.counters;
  for (const auto& [name, child] : a.children) {
    n.children.emplace(name, finalize(child));
  }
  return n;
}

}  // namespace

Profile build_profile(const TraceSession& session,
                      const MetricsSnapshot& snap) {
  Profile p;

  // The recorded span order per track is close order, i.e. a post-order
  // walk of the span forest (RAII scopes close LIFO): a span at depth d
  // adopts every still-unattached depth-(d+1) span as its children.
  std::vector<std::vector<std::vector<Inst>>> pending(
      static_cast<std::size_t>(session.num_tracks()));
  for (const SpanEvent& s : session.spans()) {
    auto& track = pending[static_cast<std::size_t>(s.track)];
    if (static_cast<int>(track.size()) <= s.depth + 1) {
      track.resize(static_cast<std::size_t>(s.depth) + 2);
    }
    Inst inst;
    inst.ev = &s;
    inst.children = std::move(track[static_cast<std::size_t>(s.depth) + 1]);
    track[static_cast<std::size_t>(s.depth) + 1].clear();
    track[static_cast<std::size_t>(s.depth)].push_back(std::move(inst));
  }

  std::map<std::string, Acc> roots;
  double total = 0.0;
  for (int t = 0; t < session.num_tracks(); ++t) {
    auto& track = pending[static_cast<std::size_t>(t)];
    if (track.empty()) continue;
    for (const Inst& root : track[0]) fold_instance(root, t, roots);
    total = std::max(total, session.track_end(t));
  }
  for (const auto& [name, acc] : roots) {
    p.spans.emplace(name, finalize(acc));
  }
  p.total_time = total;

  for (const auto& [key, v] : snap.values) {
    switch (v.kind) {
      case MetricKind::kCounter:
        p.counters.emplace(key, v.counter);
        break;
      case MetricKind::kHistogram: {
        ProfileHistogram h;
        h.count = v.hist_count;
        h.sum = v.hist_sum;
        h.p50 = v.hist_quantile_bound(0.5);
        h.p95 = v.hist_quantile_bound(0.95);
        h.max = v.hist_quantile_bound(1.0);
        p.histograms.emplace(key, h);
        break;
      }
      case MetricKind::kGauge:
        // Gauges hold "latest value" state, not cumulative facts about
        // the run; they stay out of the gated artifact.
        break;
    }
  }
  return p;
}

// -------------------------------------------------------------------
// Serialization
// -------------------------------------------------------------------

namespace {

void append_node_json(std::string& out, const ProfileNode& n, int indent) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  out += "{\n";
  out += pad + "  \"count\": " + std::to_string(n.count) + ",\n";
  out += pad + "  \"incl\": " + fmt(n.incl) + ",\n";
  out += pad + "  \"self\": " + fmt(n.self) + ",\n";
  out += pad + "  \"locales\": " + std::to_string(n.locales) + ",\n";
  out += pad + "  \"incl_min\": " + fmt(n.incl_min) + ",\n";
  out += pad + "  \"incl_mean\": " + fmt(n.incl_mean) + ",\n";
  out += pad + "  \"incl_max\": " + fmt(n.incl_max) + ",\n";
  out += pad + "  \"counters\": {";
  bool first = true;
  for (const auto& [key, v] : n.counters) {
    out += first ? "" : ", ";
    first = false;
    // Appends: `"\"" + std::string&&` trips GCC 12's -Wrestrict at -O3.
    out.append("\"").append(json_escape(key)).append("\": ");
    out.append(std::to_string(v));
  }
  out += "},\n";
  out += pad + "  \"children\": {";
  first = true;
  for (const auto& [name, child] : n.children) {
    out += first ? "\n" : ",\n";
    first = false;
    out += pad + "    \"" + json_escape(name) + "\": ";
    append_node_json(out, child, indent + 2);
  }
  if (!n.children.empty()) out += "\n" + pad + "  ";
  out += "}\n" + pad + "}";
}

ProfileNode node_from_json(const JsonValue& v) {
  ProfileNode n;
  n.count = v.at("count").as_int();
  n.incl = v.at("incl").as_double();
  n.self = v.at("self").as_double();
  n.locales = static_cast<int>(v.at("locales").as_int());
  n.incl_min = v.at("incl_min").as_double();
  n.incl_mean = v.at("incl_mean").as_double();
  n.incl_max = v.at("incl_max").as_double();
  for (const auto& [key, cv] : *v.at("counters").obj) {
    n.counters.emplace(key, cv.as_int());
  }
  for (const auto& [name, child] : *v.at("children").obj) {
    n.children.emplace(name, node_from_json(child));
  }
  return n;
}

}  // namespace

std::string Profile::json() const {
  std::string out = "{\n";
  out += "  \"pgb_profile\": " + std::to_string(kVersion) + ",\n";
  out += "  \"workload\": \"" + json_escape(workload) + "\",\n";
  out += "  \"comm\": \"" + json_escape(comm) + "\",\n";
  out += "  \"seed\": " + std::to_string(seed) + ",\n";
  out += "  \"locales\": " + std::to_string(locales) + ",\n";
  out += "  \"threads\": " + std::to_string(threads) + ",\n";
  out += "  \"machine\": \"" + json_escape(machine) + "\",\n";
  out += "  \"total_time\": " + fmt(total_time) + ",\n";
  out += "  \"counters\": {";
  bool first = true;
  for (const auto& [key, v] : counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(key) + "\": " + std::to_string(v);
  }
  if (!counters.empty()) out += "\n  ";
  out += "},\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [key, h] : histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(key) + "\": {\"count\": " +
           std::to_string(h.count) + ", \"sum\": " + std::to_string(h.sum) +
           ", \"p50\": " + std::to_string(h.p50) +
           ", \"p95\": " + std::to_string(h.p95) +
           ", \"max\": " + std::to_string(h.max) + "}";
  }
  if (!histograms.empty()) out += "\n  ";
  out += "},\n";
  out += "  \"spans\": {";
  first = true;
  for (const auto& [name, node] : spans) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": ";
    append_node_json(out, node, 2);
  }
  if (!spans.empty()) out += "\n  ";
  out += "}\n}\n";
  return out;
}

void Profile::write(const std::string& path) const {
  std::ofstream out(path);
  PGB_REQUIRE(out.good(), "profile: cannot open output file: " + path);
  out << json();
  PGB_REQUIRE(out.good(), "profile: write failed: " + path);
}

Profile Profile::from_json(const std::string& text) {
  const JsonValue v = json_parse(text);
  PGB_REQUIRE(v.is_object(), "profile: top level must be an object");
  const std::int64_t version = v.at("pgb_profile").as_int();
  PGB_REQUIRE(version == kVersion,
              "profile: unsupported version " + std::to_string(version));
  Profile p;
  p.workload = v.at("workload").as_string();
  p.comm = v.at("comm").as_string();
  p.seed = static_cast<std::uint64_t>(v.at("seed").as_int());
  p.locales = static_cast<int>(v.at("locales").as_int());
  p.threads = static_cast<int>(v.at("threads").as_int());
  p.machine = v.at("machine").as_string();
  p.total_time = v.at("total_time").as_double();
  for (const auto& [key, cv] : *v.at("counters").obj) {
    p.counters.emplace(key, cv.as_int());
  }
  for (const auto& [key, hv] : *v.at("histograms").obj) {
    ProfileHistogram h;
    h.count = hv.at("count").as_int();
    h.sum = hv.at("sum").as_int();
    h.p50 = hv.at("p50").as_int();
    h.p95 = hv.at("p95").as_int();
    h.max = hv.at("max").as_int();
    p.histograms.emplace(key, h);
  }
  for (const auto& [name, nv] : *v.at("spans").obj) {
    p.spans.emplace(name, node_from_json(nv));
  }
  return p;
}

Profile Profile::load(const std::string& path) {
  std::ifstream in(path);
  PGB_REQUIRE(in.good(), "profile: cannot open: " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  try {
    return from_json(buf.str());
  } catch (const Error& e) {
    throw InvalidArgument(path + ": " + e.what());
  }
}

// -------------------------------------------------------------------
// Diff / gate
// -------------------------------------------------------------------

namespace {

std::string pct(double base, double cand) {
  if (base == 0.0) return "n/a";
  char buf[48];
  std::snprintf(buf, sizeof buf, "%+.1f%%", (cand / base - 1.0) * 100.0);
  return buf;
}

struct Differ {
  const ProfileDiffOptions& opt;
  ProfileDiffResult& res;

  void add(ProfileFinding::Kind kind, const std::string& where,
           const std::string& metric, double base, double cand) {
    res.findings.push_back(ProfileFinding{kind, where, metric, base, cand});
  }

  void exact(const std::string& where, const std::string& metric,
             double base, double cand) {
    ++res.compared;
    if (base != cand) {
      add(ProfileFinding::Kind::kRegression, where, metric, base, cand);
    }
  }

  void timed(const std::string& where, const std::string& metric,
             double base, double cand) {
    ++res.compared;
    if (base < opt.time_floor && cand < opt.time_floor) return;
    if (cand > base * (1.0 + opt.time_tol)) {
      add(ProfileFinding::Kind::kRegression, where, metric, base, cand);
    } else if (cand < base * (1.0 - opt.time_tol)) {
      add(ProfileFinding::Kind::kImprovement, where, metric, base, cand);
    }
  }

  void structural(const std::string& where, const std::string& what) {
    res.findings.push_back(ProfileFinding{
        ProfileFinding::Kind::kStructural, where, what, 0.0, 0.0});
  }

  /// Key-set comparison of two maps; `compare` runs on shared keys.
  template <typename Map, typename Fn>
  void align(const std::string& where, const Map& base, const Map& cand,
             Fn compare) {
    for (const auto& [key, bv] : base) {
      auto it = cand.find(key);
      if (it == cand.end()) {
        structural(where + "/" + key, "missing in candidate");
      } else {
        compare(where + "/" + key, bv, it->second);
      }
    }
    for (const auto& [key, cv] : cand) {
      if (base.find(key) == base.end()) {
        structural(where + "/" + key, "new in candidate");
      }
    }
  }

  void node(const std::string& where, const ProfileNode& b,
            const ProfileNode& c) {
    exact(where, "count", static_cast<double>(b.count),
          static_cast<double>(c.count));
    exact(where, "locales", b.locales, c.locales);
    align(where + "/counters", b.counters, c.counters,
          [&](const std::string& w, std::int64_t bv, std::int64_t cv) {
            exact(w, "value", static_cast<double>(bv),
                  static_cast<double>(cv));
          });
    timed(where, "incl_mean", b.incl_mean, c.incl_mean);
    timed(where, "incl_max", b.incl_max, c.incl_max);
    timed(where, "self", b.self, c.self);
    align(where, b.children, c.children,
          [&](const std::string& w, const ProfileNode& bn,
              const ProfileNode& cn) { node(w, bn, cn); });
  }
};

}  // namespace

std::string ProfileFinding::to_string() const {
  if (kind == Kind::kStructural) {
    return "STRUCTURAL  " + where + ": " + metric;
  }
  const char* tag =
      kind == Kind::kRegression ? "REGRESSION  " : "improvement ";
  char nums[128];
  std::snprintf(nums, sizeof nums, "%.6g -> %.6g (%s)", base, cand,
                pct(base, cand).c_str());
  return tag + where + " " + metric + ": " + nums;
}

bool ProfileDiffResult::clean() const {
  for (const auto& f : findings) {
    if (f.kind != ProfileFinding::Kind::kImprovement) return false;
  }
  return true;
}

std::string ProfileDiffResult::report(const std::string& base_name,
                                      const std::string& cand_name) const {
  int reg = 0, structural = 0, imp = 0;
  for (const auto& f : findings) {
    switch (f.kind) {
      case ProfileFinding::Kind::kRegression: ++reg; break;
      case ProfileFinding::Kind::kStructural: ++structural; break;
      case ProfileFinding::Kind::kImprovement: ++imp; break;
    }
  }
  std::string out = "profile diff: " + base_name + " (base) vs " + cand_name +
                    " (candidate)\n";
  char line[160];
  std::snprintf(line, sizeof line,
                "compared %d metrics: %d regressions, %d structural changes, "
                "%d improvements\n",
                compared, reg, structural, imp);
  out += line;
  // Failures first, improvements after.
  for (const auto& f : findings) {
    if (f.kind != ProfileFinding::Kind::kImprovement) {
      out += "  " + f.to_string() + "\n";
    }
  }
  for (const auto& f : findings) {
    if (f.kind == ProfileFinding::Kind::kImprovement) {
      out += "  " + f.to_string() + "\n";
    }
  }
  out += clean() ? "RESULT: clean\n" : "RESULT: regression\n";
  return out;
}

ProfileDiffResult diff_profiles(const Profile& base, const Profile& cand,
                                const ProfileDiffOptions& opt) {
  ProfileDiffResult res;
  Differ d{opt, res};

  // Workload identity must match for the comparison to mean anything.
  if (base.workload != cand.workload) {
    d.structural("meta/workload", "\"" + base.workload + "\" vs \"" +
                                      cand.workload + "\"");
  }
  if (base.comm != cand.comm) {
    d.structural("meta/comm", base.comm + " vs " + cand.comm);
  }
  if (base.seed != cand.seed) {
    d.structural("meta/seed", std::to_string(base.seed) + " vs " +
                                  std::to_string(cand.seed));
  }
  if (base.machine != cand.machine) {
    d.structural("meta/machine", base.machine + " vs " + cand.machine);
  }
  d.exact("meta", "locales", base.locales, cand.locales);
  d.exact("meta", "threads", base.threads, cand.threads);

  d.timed("meta", "total_time", base.total_time, cand.total_time);

  d.align("counters", base.counters, cand.counters,
          [&](const std::string& w, std::int64_t bv, std::int64_t cv) {
            d.exact(w, "value", static_cast<double>(bv),
                    static_cast<double>(cv));
          });
  d.align("histograms", base.histograms, cand.histograms,
          [&](const std::string& w, const ProfileHistogram& bh,
              const ProfileHistogram& ch) {
            d.exact(w, "count", static_cast<double>(bh.count),
                    static_cast<double>(ch.count));
            d.exact(w, "sum", static_cast<double>(bh.sum),
                    static_cast<double>(ch.sum));
            d.exact(w, "p50", static_cast<double>(bh.p50),
                    static_cast<double>(ch.p50));
            d.exact(w, "p95", static_cast<double>(bh.p95),
                    static_cast<double>(ch.p95));
            d.exact(w, "max", static_cast<double>(bh.max),
                    static_cast<double>(ch.max));
          });
  d.align("spans", base.spans, cand.spans,
          [&](const std::string& w, const ProfileNode& bn,
              const ProfileNode& cn) { d.node(w, bn, cn); });
  return res;
}

namespace {

void scale_nodes(std::map<std::string, ProfileNode>& nodes,
                 const std::string& name, double factor) {
  for (auto& [key, n] : nodes) {
    if (key == name) {
      n.incl *= factor;
      n.self *= factor;
      n.incl_min *= factor;
      n.incl_mean *= factor;
      n.incl_max *= factor;
    }
    scale_nodes(n.children, name, factor);
  }
}

}  // namespace

void scale_span_times(Profile& p, const std::string& name, double factor) {
  scale_nodes(p.spans, name, factor);
}

}  // namespace pgb::obs
