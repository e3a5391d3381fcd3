#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace pgb::obs {

void TraceSession::ensure_track(int track) {
  PGB_REQUIRE(track >= 0, "trace: negative track id");
  if (track >= num_tracks_) num_tracks_ = track + 1;
  if (static_cast<int>(open_.size()) <= track) {
    open_.resize(static_cast<std::size_t>(track) + 1);
  }
}

void TraceSession::begin_span(int track, std::string name, double sim_now,
                              TraceArgs args) {
  begin_span_at(track, std::move(name), sim_now, wall_now_us(),
                std::move(args));
}

void TraceSession::end_span(int track, double sim_now,
                            const TraceArgs& extra) {
  end_span_at(track, sim_now, wall_now_us(), extra);
}

void TraceSession::instant(int track, std::string name, double sim_now,
                           TraceArgs args) {
  instant_at(track, std::move(name), sim_now, wall_now_us(), std::move(args));
}

void TraceSession::replay(int track, TrackLog log) {
  for (auto& e : log.events_) {
    switch (e.kind) {
      case TrackLog::Kind::kBegin:
        begin_span_at(track, std::move(e.name), e.sim, e.wall_us,
                      std::move(e.args));
        break;
      case TrackLog::Kind::kEnd:
        end_span_at(track, e.sim, e.wall_us, {});
        break;
      case TrackLog::Kind::kInstant:
        instant_at(track, std::move(e.name), e.sim, e.wall_us,
                   std::move(e.args));
        break;
    }
  }
}

void TraceSession::begin_span_at(int track, std::string name, double sim_now,
                                 double wall_us, TraceArgs args) {
  ensure_track(track);
  open_[static_cast<std::size_t>(track)].push_back(
      OpenSpan{std::move(name), sim_now, wall_us, std::move(args)});
}

void TraceSession::end_span_at(int track, double sim_now, double wall_us,
                               const TraceArgs& extra) {
  ensure_track(track);
  auto& stack = open_[static_cast<std::size_t>(track)];
  if (stack.empty()) return;  // cleared mid-span by a grid reset
  OpenSpan o = std::move(stack.back());
  stack.pop_back();
  SpanEvent e;
  e.name = std::move(o.name);
  e.track = track;
  e.depth = static_cast<int>(stack.size());
  e.sim_begin = o.sim_begin;
  e.sim_end = std::max(sim_now, o.sim_begin);  // clocks are monotonic
  e.wall_begin_us = o.wall_begin;
  e.wall_end_us = wall_us;
  e.args = std::move(o.args);
  e.args.insert(e.args.end(), extra.begin(), extra.end());
  spans_.push_back(std::move(e));
}

void TraceSession::instant_at(int track, std::string name, double sim_now,
                              double wall_us, TraceArgs args) {
  ensure_track(track);
  instants_.push_back(
      InstantEvent{std::move(name), track, sim_now, wall_us, std::move(args)});
}

void TraceSession::counter(std::string name, double sim_now, double value) {
  counters_.push_back(CounterSample{std::move(name), sim_now, value});
}

void TraceSession::clear() {
  for (auto& s : open_) s.clear();
  spans_.clear();
  instants_.clear();
  counters_.clear();
  track_names_.clear();
  lane_tracks_.clear();
  num_tracks_ = std::max(num_tracks_, reserved_tracks_);
}

void TraceSession::reserve_tracks(int n) {
  PGB_REQUIRE(n >= 0, "trace: negative track reservation");
  reserved_tracks_ = std::max(reserved_tracks_, n);
  if (n > 0) ensure_track(n - 1);
}

int TraceSession::alloc_named_track(std::string name) {
  const int track = std::max(num_tracks_, reserved_tracks_);
  ensure_track(track);
  track_names_[track] = std::move(name);
  return track;
}

const std::string* TraceSession::track_name(int track) const {
  auto it = track_names_.find(track);
  return it == track_names_.end() ? nullptr : &it->second;
}

int TraceSession::open_depth(int track) const {
  if (track < 0 || track >= static_cast<int>(open_.size())) return 0;
  return static_cast<int>(open_[static_cast<std::size_t>(track)].size());
}

double TraceSession::track_end(int track) const {
  double t = 0.0;
  for (const auto& s : spans_) {
    if (s.track == track) t = std::max(t, s.sim_end);
  }
  return t;
}

double TraceSession::track_coverage(int track) const {
  const double end = track_end(track);
  if (end <= 0.0) return 0.0;
  double covered = 0.0;
  for (const auto& s : spans_) {
    if (s.track == track && s.depth == 0) covered += s.sim_end - s.sim_begin;
  }
  return covered / end;
}

namespace {

void append_args_json(std::string& out, const TraceArgs& args,
                      double wall_us) {
  out += "\"args\":{";
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.3f", wall_us);
  out += std::string("\"wall_us\":") + buf;
  for (const auto& a : args) {
    out += ",\"" + json_escape(a.key) + "\":\"" + json_escape(a.value) + "\"";
  }
  out += "}";
}

std::string us(double seconds) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6f", seconds * 1e6);
  return buf;
}

}  // namespace

std::string TraceSession::chrome_trace_json() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out +=
      "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"pgas-graphblas (simulated time)\"}}";
  for (int t = 0; t < num_tracks_; ++t) {
    const std::string* named = track_name(t);
    out += ",\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":" +
           std::to_string(t) + ",\"args\":{\"name\":\"" +
           (named != nullptr ? json_escape(*named)
                             : "locale " + std::to_string(t)) +
           "\"}}";
    out +=
        ",\n{\"ph\":\"M\",\"name\":\"thread_sort_index\",\"pid\":0,\"tid\":" +
        std::to_string(t) + ",\"args\":{\"sort_index\":" + std::to_string(t) +
        "}}";
  }
  for (const auto& s : spans_) {
    out += ",\n{\"ph\":\"X\",\"name\":\"" + json_escape(s.name) +
           "\",\"cat\":\"sim\",\"pid\":0,\"tid\":" + std::to_string(s.track) +
           ",\"ts\":" + us(s.sim_begin) +
           ",\"dur\":" + us(s.sim_end - s.sim_begin) + ",";
    append_args_json(out, s.args, s.wall_end_us - s.wall_begin_us);
    out += "}";
  }
  for (const auto& i : instants_) {
    out += ",\n{\"ph\":\"i\",\"name\":\"" + json_escape(i.name) +
           "\",\"cat\":\"sim\",\"pid\":0,\"tid\":" + std::to_string(i.track) +
           ",\"ts\":" + us(i.sim_ts) + ",\"s\":\"t\",";
    append_args_json(out, i.args, 0.0);
    out += "}";
  }
  for (const auto& c : counters_) {
    char val[48];
    std::snprintf(val, sizeof val, "%.17g", c.value);
    out += ",\n{\"ph\":\"C\",\"name\":\"" + json_escape(c.name) +
           "\",\"cat\":\"sim\",\"pid\":0,\"tid\":0,\"ts\":" + us(c.sim_ts) +
           ",\"args\":{\"value\":" + val + "}}";
  }
  out += "\n]}\n";
  return out;
}

void TraceSession::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  PGB_REQUIRE(f != nullptr, "trace: cannot open output file: " + path);
  const std::string json = chrome_trace_json();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
}

}  // namespace pgb::obs
