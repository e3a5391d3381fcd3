// Simulated-time tracing: per-locale tracks of spans and instant events.
//
// A TraceSession records what each locale was doing and *when in
// simulated time* it was doing it — the per-locale SimClock stamps the
// events, so the exported timeline is the modeled distributed-memory
// schedule (gather / local multiply / scatter / barrier wait per
// locale), not the host's wall clock. Real wall time is recorded
// alongside each span for profiling the simulator itself.
//
// One track per locale. Spans nest (a "spmspv.spa" span sits inside the
// grid-wide "spmspv.local" phase span); per-track open-span stacks give
// each span its nesting depth, and RAII scopes (obs/span.hpp) guarantee
// LIFO close order. The session is attached to a LocaleGrid with
// `grid.set_trace_session(&session)`; a null session means every
// recording site is a cheap branch-to-nothing, which is how tracing
// stays free when off.
//
// Export: `chrome_trace_json()` / `write_chrome_trace(path)` emit the
// Chrome trace-event format ("X" complete events + "i" instants + "C"
// counter samples, ts in microseconds of simulated time), loadable in
// Perfetto (https://ui.perfetto.dev) or chrome://tracing. Each locale
// appears as one named thread track; span args carry the wall-time cost
// and any key/values attached at the call site. Counter samples become
// one Perfetto counter track per name, aligned with the spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pgb::obs {

struct TraceArg {
  std::string key;
  std::string value;
};
using TraceArgs = std::vector<TraceArg>;

struct SpanEvent {
  std::string name;
  int track = 0;  ///< locale id
  int depth = 0;  ///< nesting depth at open (0 = top level)
  double sim_begin = 0.0;  ///< seconds of simulated time
  double sim_end = 0.0;
  double wall_begin_us = 0.0;  ///< µs of host wall time since session start
  double wall_end_us = 0.0;
  TraceArgs args;
};

struct InstantEvent {
  std::string name;
  int track = 0;
  double sim_ts = 0.0;
  double wall_us = 0.0;
  TraceArgs args;
};

/// One sample of a cumulative counter, exported as a Chrome trace "C"
/// event — Perfetto renders each distinct name as a counter track on
/// the same simulated-time axis as the spans. Samples are grid-wide
/// (the registry's counters are grid totals), so they live on track 0.
struct CounterSample {
  std::string name;    ///< track name, usually the registry key
  double sim_ts = 0.0;
  double value = 0.0;
};

/// One track's spans and instants recorded away from the session, by code
/// that may not write to it directly (a LocaleGrid::coforall_compute body
/// on a pool thread), for TraceSession::replay to append later in the
/// order they were recorded. The recorder supplies both clocks: the
/// simulated time and the session's wall_now_us().
class TrackLog {
 public:
  void begin_span(std::string name, double sim_now, double wall_us,
                  TraceArgs args = {}) {
    events_.push_back(
        {Kind::kBegin, std::move(name), sim_now, wall_us, std::move(args)});
  }
  void end_span(double sim_now, double wall_us) {
    events_.push_back({Kind::kEnd, {}, sim_now, wall_us, {}});
  }
  void instant(std::string name, double sim_now, double wall_us,
               TraceArgs args = {}) {
    events_.push_back(
        {Kind::kInstant, std::move(name), sim_now, wall_us, std::move(args)});
  }

 private:
  friend class TraceSession;
  enum class Kind { kBegin, kEnd, kInstant };
  struct Event {
    Kind kind;
    std::string name;
    double sim;
    double wall_us;
    TraceArgs args;
  };
  std::vector<Event> events_;
};

class TraceSession {
 public:
  /// `detail` additionally records per-call comm instants (one event per
  /// remote_* helper call and per aggregator flush) — high event volume,
  /// off by default.
  explicit TraceSession(bool detail = false) : detail_(detail) {
    t0_ = std::chrono::steady_clock::now();
  }

  bool detail() const { return detail_; }
  void set_detail(bool on) { detail_ = on; }

  /// Opens a span on `track` at simulated time `sim_now`. Close with
  /// end_span — strictly LIFO per track (use the RAII scopes).
  void begin_span(int track, std::string name, double sim_now,
                  TraceArgs args = {});

  /// Closes the innermost open span on `track`; `extra` args are
  /// appended to the ones given at begin. Ignored when no span is open
  /// (the session was cleared mid-span by a grid reset).
  void end_span(int track, double sim_now, const TraceArgs& extra = {});

  void instant(int track, std::string name, double sim_now,
               TraceArgs args = {});

  /// Appends `log`'s events to `track` in recorded order, exactly as if
  /// each had been recorded there directly, with the log's times.
  void replay(int track, TrackLog log);

  /// Records one counter-track sample (see CounterSample). Callers
  /// sample at span/phase boundaries — LocaleGrid::sample_counter_tracks
  /// is the standard hook — so each track stays monotone in both ts and
  /// value for cumulative counters.
  void counter(std::string name, double sim_now, double value);

  /// Drops every recorded event and every open span. Called by
  /// LocaleGrid::reset() so a trace covers exactly one epoch. Custom
  /// track names and lane bindings minted in the old epoch are dropped
  /// too; the reserved locale-track floor (reserve_tracks) survives.
  void clear();

  // -- named tracks (per-query tracks above the locale tracks) ----------

  /// Guarantees the first `n` track ids stay reserved for the locale
  /// tracks: alloc_named_track() hands out ids at or above `n`.
  /// LocaleGrid::set_trace_session calls this with num_locales().
  void reserve_tracks(int n);

  /// Allocates a fresh track above every track seen so far and names it;
  /// the exporter labels it `name` instead of "locale N".
  int alloc_named_track(std::string name);

  /// Custom name for `track` (nullptr when none was set).
  const std::string* track_name(int track) const;

  // -- lane bindings (batched state machines -> per-query tracks) -------
  //
  // The service executor binds each batch lane to its query's track
  // before running a fused batch; the batched BFS/SSSP steps consult the
  // binding to emit per-level "query.level" spans on the right track
  // without the algo layer knowing about queries.

  void set_lane_tracks(std::vector<int> tracks) {
    lane_tracks_ = std::move(tracks);
  }
  void clear_lane_tracks() { lane_tracks_.clear(); }
  bool has_lane_tracks() const { return !lane_tracks_.empty(); }

  /// Track bound to batch lane `lane` (-1 when unbound).
  int lane_track(int lane) const {
    if (lane < 0 || lane >= static_cast<int>(lane_tracks_.size())) return -1;
    return lane_tracks_[static_cast<std::size_t>(lane)];
  }

  const std::vector<SpanEvent>& spans() const { return spans_; }
  const std::vector<InstantEvent>& instants() const { return instants_; }
  const std::vector<CounterSample>& counter_samples() const {
    return counters_;
  }

  /// Number of tracks touched so far (max track id + 1).
  int num_tracks() const { return num_tracks_; }
  int open_depth(int track) const;

  /// Latest simulated end time on `track` (0 when empty).
  double track_end(int track) const;

  /// Fraction of [0, track_end] covered by the track's depth-0 spans —
  /// the "does the trace explain where time went" number.
  double track_coverage(int track) const;

  std::string chrome_trace_json() const;
  void write_chrome_trace(const std::string& path) const;

  /// µs of host wall time since the session was created.
  double wall_now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0_)
        .count();
  }

 private:
  struct OpenSpan {
    std::string name;
    double sim_begin;
    double wall_begin;
    TraceArgs args;
  };

  void ensure_track(int track);
  void begin_span_at(int track, std::string name, double sim_now,
                     double wall_us, TraceArgs args);
  void end_span_at(int track, double sim_now, double wall_us,
                   const TraceArgs& extra);
  void instant_at(int track, std::string name, double sim_now,
                  double wall_us, TraceArgs args);

  bool detail_;
  std::chrono::steady_clock::time_point t0_;
  int num_tracks_ = 0;
  int reserved_tracks_ = 0;  ///< locale-track floor for alloc_named_track
  std::vector<std::vector<OpenSpan>> open_;  ///< per-track stacks
  std::vector<SpanEvent> spans_;
  std::vector<InstantEvent> instants_;
  std::vector<CounterSample> counters_;
  std::map<int, std::string> track_names_;
  std::vector<int> lane_tracks_;
};

}  // namespace pgb::obs
