// Structured service event log: the machine-readable audit trail of one
// serving run, written as JSON Lines.
//
// Every lifecycle decision the service makes — admissions, typed
// rejections, deadline expiries by stage, breaker state transitions,
// handle publishes/epoch bumps, degrade/rebuild events, and periodic
// health() snapshots — appends one line. Lines are stamped in *simulated*
// seconds only (never wall clocks) and formatted with the same %.9g
// float convention as the profile exporter, so two same-seed runs write
// byte-identical logs; the query-trace-smoke CI job diffs exactly that.
//
// Schema: each line is one JSON object whose first two members are
//   {"t": <simulated seconds>, "type": "<event type>", ...}
// followed by type-specific fields in a fixed order (see
// docs/ARCHITECTURE.md "Observability" for the full per-type schema).
// The log is append-only in program order; program order is itself a
// deterministic function of the seed.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace pgb {

/// One pre-rendered JSON field: the key plus its already-JSON value
/// (`ev_num`/`ev_int`/`ev_str` below build the value side).
using EventField = std::pair<const char*, std::string>;

/// %.9g, matching the profile writer — enough digits to round-trip the
/// simulated timestamps bit-for-bit without trailing noise.
inline std::string ev_num(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

inline std::string ev_int(std::int64_t v) { return std::to_string(v); }

inline std::string ev_str(const std::string& s) {
  // Appends: `"\"" + std::string&&` trips GCC 12's -Wrestrict at -O3.
  return std::string("\"").append(obs::json_escape(s)).append("\"");
}

class ServiceEventLog {
 public:
  /// Appends one event at simulated time `t`. Fields render in the
  /// caller's order after the fixed `t`/`type` prefix.
  void emit(double t, const char* type,
            std::initializer_list<EventField> fields = {}) {
    std::string line = "{\"t\":" + ev_num(t) + ",\"type\":\"" + type + "\"";
    for (const auto& [k, v] : fields) {
      line += std::string(",\"") + k + "\":" + v;
    }
    line += "}";
    lines_.push_back(std::move(line));
  }

  std::size_t size() const { return lines_.size(); }
  const std::vector<std::string>& lines() const { return lines_; }

  /// Events of one type (test/assertion hook; types are short, the scan
  /// is fine at audit-log sizes).
  std::int64_t count(const char* type) const {
    const std::string needle = std::string("\"type\":\"") + type + "\"";
    std::int64_t n = 0;
    for (const auto& l : lines_) {
      n += l.find(needle) != std::string::npos ? 1 : 0;
    }
    return n;
  }

  /// The whole log as JSONL text (one "\n"-terminated line per event).
  std::string text() const {
    std::string out;
    for (const auto& l : lines_) {
      out += l;
      out += "\n";
    }
    return out;
  }

  /// Writes the JSONL file; throws (exit 2 in the tools) on an
  /// unwritable path.
  void write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    PGB_REQUIRE(f != nullptr, "event log: cannot open output file: " + path);
    const std::string out = text();
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
  }

  void clear() { lines_.clear(); }

 private:
  std::vector<std::string> lines_;
};

}  // namespace pgb
