#include "fault/fault.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

namespace pgb {

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kDrop:
      return "drop";
    case FaultKind::kDuplicate:
      return "dup";
    case FaultKind::kCorrupt:
      return "corrupt";
    case FaultKind::kStall:
      return "stall";
    case FaultKind::kLocaleFail:
      return "kill";
  }
  return "?";
}

namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

// A finite decimal number and nothing else: no padding, sign prefix,
// hex, inf or nan, so a spec never runs a fault other than the one
// written.
double parse_num(const std::string& clause, const std::string& v) {
  double x = 0.0;
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), x);
  PGB_REQUIRE(ec == std::errc() && end == v.data() + v.size() &&
                  std::isfinite(x),
              "fault spec: bad number '" + v + "' in clause '" + clause +
                  "' (expected a finite decimal)");
  return x;
}

// A locale id: a whole, non-negative decimal int.
int parse_locale(const std::string& clause, const std::string& v) {
  int id = -1;
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), id);
  PGB_REQUIRE(ec == std::errc() && end == v.data() + v.size() && id >= 0 &&
                  v[0] != '-',
              "fault spec: bad locale id '" + v + "' in clause '" + clause +
                  "' (expected a whole decimal number >= 0)");
  return id;
}

FaultKind parse_kind(const std::string& clause, const std::string& k) {
  if (k == "drop") return FaultKind::kDrop;
  if (k == "dup") return FaultKind::kDuplicate;
  if (k == "corrupt") return FaultKind::kCorrupt;
  if (k == "stall") return FaultKind::kStall;
  if (k == "kill") return FaultKind::kLocaleFail;
  throw InvalidArgument(
      "fault spec: unknown kind '" + k + "' in clause '" + clause +
      "' (expected drop, dup, corrupt, stall, or kill)");
}

}  // namespace

FaultSpec FaultSpec::parse(const std::string& spec) {
  FaultSpec out;
  PGB_REQUIRE(!spec.empty(), "fault spec: empty string");
  for (const std::string& clause : split(spec, ';')) {
    PGB_REQUIRE(!clause.empty(), "fault spec: empty clause in '" + spec + "'");
    const std::size_t colon = clause.find(':');
    FaultRule rule;
    rule.kind = parse_kind(clause, clause.substr(0, colon));
    bool saw_p = false, saw_ms = false, saw_at = false, saw_locale = false,
         saw_src = false;
    if (colon != std::string::npos) {
      for (const std::string& kv : split(clause.substr(colon + 1), ',')) {
        const std::size_t eq = kv.find('=');
        PGB_REQUIRE(eq != std::string::npos && eq > 0,
                    "fault spec: expected key=value, got '" + kv +
                        "' in clause '" + clause + "'");
        const std::string key = kv.substr(0, eq);
        const std::string val = kv.substr(eq + 1);
        if (key == "p") {
          rule.probability = parse_num(clause, val);
          saw_p = true;
        } else if (key == "locale" && rule.kind == FaultKind::kStall) {
          // stall:locale= is the deterministic *source* target, distinct
          // from peer= (destination filter on probabilistic rules).
          rule.src_locale = parse_locale(clause, val);
          saw_src = true;
        } else if (key == "peer" || key == "locale") {
          rule.locale = parse_locale(clause, val);
          saw_locale = true;
        } else if (key == "ms") {
          // Up to 1e9 ms (11.6 simulated days) the ms -> s -> ms
          // conversion renders back exactly in to_string()'s six
          // decimals; past it the canonical form would drift.
          const double ms = parse_num(clause, val);
          PGB_REQUIRE(ms <= 1e9, "fault spec: ms must be <= 1e9: '" +
                                     clause + "'");
          rule.stall_seconds = ms * 1e-3;
          saw_ms = true;
        } else if (key == "at") {
          rule.at_time = parse_num(clause, val);
          saw_at = true;
        } else {
          throw InvalidArgument("fault spec: unknown key '" + key +
                                "' in clause '" + clause + "'");
        }
      }
    }
    if (rule.kind == FaultKind::kLocaleFail) {
      PGB_REQUIRE(saw_locale && rule.locale >= 0,
                  "fault spec: kill needs locale=<id>: '" + clause + "'");
      PGB_REQUIRE(saw_at && rule.at_time >= 0.0,
                  "fault spec: kill needs at=<seconds >= 0>: '" + clause +
                      "'");
      PGB_REQUIRE(!saw_p && !saw_ms,
                  "fault spec: kill takes only locale= and at=: '" + clause +
                      "'");
    } else if (rule.kind == FaultKind::kStall && saw_src) {
      // Deterministic source-targeted stall: strict form, nothing
      // probabilistic may ride along.
      PGB_REQUIRE(rule.src_locale >= 0,
                  "fault spec: stall:locale=<id> must be >= 0: '" + clause +
                      "'");
      PGB_REQUIRE(!saw_p,
                  "fault spec: stall:locale= is deterministic; p= is not "
                  "allowed (use peer= with p= for probabilistic stalls): '" +
                      clause + "'");
      PGB_REQUIRE(!saw_locale,
                  "fault spec: stall:locale= takes no peer=: '" + clause +
                      "'");
      PGB_REQUIRE(!saw_at,
                  "fault spec: at= only applies to kill: '" + clause + "'");
      PGB_REQUIRE(saw_ms && rule.stall_seconds >= 0.0,
                  "fault spec: stall:locale= needs ms=<latency >= 0>: '" +
                      clause + "'");
    } else {
      PGB_REQUIRE(saw_p,
                  "fault spec: " + std::string(pgb::to_string(rule.kind)) +
                             " needs p=<probability>: '" + clause + "'");
      PGB_REQUIRE(rule.probability >= 0.0 && rule.probability <= 1.0,
                  "fault spec: probability must be in [0,1]: '" + clause +
                      "'");
      PGB_REQUIRE(!saw_at, "fault spec: at= only applies to kill: '" +
                               clause + "'");
      if (rule.kind == FaultKind::kStall) {
        PGB_REQUIRE(saw_ms && rule.stall_seconds >= 0.0,
                    "fault spec: stall needs ms=<latency >= 0>: '" + clause +
                        "'");
      } else {
        PGB_REQUIRE(!saw_ms, "fault spec: ms= only applies to stall: '" +
                                 clause + "'");
      }
    }
    out.rules.push_back(rule);
  }
  return out;
}

std::string FaultSpec::to_string() const {
  std::string s;
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const FaultRule& r = rules[i];
    if (i > 0) s += ';';
    s += pgb::to_string(r.kind);
    if (r.kind == FaultKind::kLocaleFail) {
      s += ":locale=" + std::to_string(r.locale) +
           ",at=" + std::to_string(r.at_time);
    } else if (r.kind == FaultKind::kStall && r.src_locale >= 0) {
      s += ":locale=" + std::to_string(r.src_locale) +
           ",ms=" + std::to_string(r.stall_seconds * 1e3);
    } else {
      s += ":p=" + std::to_string(r.probability);
      if (r.kind == FaultKind::kStall) {
        s += ",ms=" + std::to_string(r.stall_seconds * 1e3);
      }
      if (r.locale >= 0) s += ",peer=" + std::to_string(r.locale);
    }
  }
  return s;
}

int FaultSpec::max_locale() const {
  int m = -1;
  for (const FaultRule& r : rules) m = std::max({m, r.locale, r.src_locale});
  return m;
}

void RetryPolicy::validate() const {
  PGB_REQUIRE(max_attempts >= 1,
              "retry policy: max_attempts must be >= 1 (0 would make every "
              "transfer undeliverable)");
  PGB_REQUIRE(timeout >= 0.0 && backoff >= 0.0 && jitter >= 0.0,
              "retry policy: times and jitter must be non-negative");
  PGB_REQUIRE(backoff_mult >= 1.0,
              "retry policy: backoff multiplier must be >= 1");
}

LocaleFailed::LocaleFailed(int locale, double sim_time)
    : Error("locale " + std::to_string(locale) +
            " failed permanently at simulated t=" + std::to_string(sim_time)),
      locale_(locale),
      sim_time_(sim_time) {}

FaultPlan::FaultPlan(FaultSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)), seed_(seed), rng_(seed) {
  for (const FaultRule& r : spec_.rules) {
    if (r.kind == FaultKind::kLocaleFail) {
      kills_.push_back(Kill{r.locale, r.at_time, false});
    } else if (r.probability > 0.0 ||
               (r.kind == FaultKind::kStall && r.src_locale >= 0)) {
      message_rules_.push_back(r);
    }
  }
}

FaultPlan::AttemptFate FaultPlan::attempt_fate(int src, int peer) {
  AttemptFate fate;
  if (message_rules_.empty()) return fate;
  ++decisions_;
  for (const FaultRule& r : message_rules_) {
    if (r.kind == FaultKind::kStall && r.src_locale >= 0) {
      // Deterministic source-targeted stall: fires iff this locale is
      // the sender, and never touches the RNG — the decision stream
      // stays aligned with specs that omit the clause.
      if (r.src_locale == src) fate.stall += r.stall_seconds;
      continue;
    }
    // Every applicable rule draws, so the stream stays aligned across
    // runs regardless of which faults fire.
    if (r.locale >= 0 && r.locale != peer) continue;
    const bool hit = rng_.next_bernoulli(r.probability);
    if (!hit) continue;
    switch (r.kind) {
      case FaultKind::kDrop:
        fate.drop = true;
        break;
      case FaultKind::kDuplicate:
        fate.duplicate = true;
        break;
      case FaultKind::kCorrupt:
        fate.corrupt = true;
        break;
      case FaultKind::kStall:
        fate.stall += r.stall_seconds;
        break;
      case FaultKind::kLocaleFail:
        break;  // not a message rule
    }
  }
  return fate;
}

bool FaultPlan::is_down(int locale, double sim_now) const {
  for (const Kill& k : kills_) {
    if (k.locale == locale && !k.recovered && sim_now >= k.at_time) {
      return true;
    }
  }
  return false;
}

double FaultPlan::kill_time(int locale) const {
  double t = std::numeric_limits<double>::infinity();
  for (const Kill& k : kills_) {
    if (k.locale == locale && !k.recovered) t = std::min(t, k.at_time);
  }
  return t;
}

void FaultPlan::mark_recovered(int locale) {
  for (Kill& k : kills_) {
    if (k.locale == locale) k.recovered = true;
  }
}

DeliveryOutcome plan_delivery(FaultPlan& plan, const RetryPolicy& rp,
                              int src, int peer, double sim_now) {
  DeliveryOutcome out;
  const bool down = plan.is_down(peer, sim_now);
  double backoff = rp.backoff;
  for (int attempt = 1;; ++attempt) {
    out.attempts = attempt;
    const FaultPlan::AttemptFate fate = plan.attempt_fate(src, peer);
    if (fate.stall > 0.0) {
      ++out.stalls;
      out.stall_time += fate.stall;
    }
    if (fate.duplicate && !down) ++out.duplicates;
    if (!down && !fate.drop && !fate.corrupt) return out;  // delivered + acked
    if (down || fate.drop) {
      // The message (or its ack) vanished: the sender waits out the ack
      // timeout before concluding the attempt failed.
      if (!down) ++out.drops;
      ++out.timeouts;
      out.wait_time += rp.timeout;
    } else {
      // Corrupt: the payload arrived, the checksum failed, and the
      // receiver NAKed immediately — no timeout, straight to re-send.
      ++out.corrupts;
    }
    if (attempt >= rp.max_attempts) {
      out.delivered = false;
      return out;
    }
    out.wait_time += backoff * (1.0 + rp.jitter * plan.uniform());
    backoff *= rp.backoff_mult;
  }
}

}  // namespace pgb
