// RAII tracing scopes over the locale grid (header-only; sits above
// runtime/locale_grid.hpp in the layering, unlike the rest of src/obs
// which sits below it).
//
//   PGB_TRACE_SPAN(grid, "spmspv.gather");          grid-wide phase span
//   PGB_TRACE_SPAN(grid, "bfs.level",               ... with args
//                  {{"level", std::to_string(k)}});
//   PGB_TRACE_CTX_SPAN(ctx, "spmspv.spa");          one locale's span
//
// A grid span opens one span per locale track, each stamped with that
// locale's own SimClock, and closes them all when the scope ends — after
// a barrier-synchronized phase every track shows the same interval, and
// the per-track stacks give nested scopes their depth. On close, a grid
// span also attaches the grid-wide comm delta ("d_messages",
// "d_bytes") accumulated during the phase, so a timeline span answers
// "how much traffic did this phase move" without a metrics file.
// Grid spans additionally sample the counter tracks (comm.messages,
// comm.bytes, ...) at open and close, so Perfetto shows the cumulative
// counters stepping exactly at phase boundaries.
//
// When no session is attached the constructors reduce to one null
// check; scopes are also epoch-guarded, so a scope that survives a
// grid.reset() closes silently instead of writing into the new epoch.
#pragma once

#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "runtime/locale_grid.hpp"

namespace pgb::obs {

class GridSpan {
 public:
  GridSpan(LocaleGrid& grid, const char* name, TraceArgs args = {})
      : grid_(grid) {
    auto* session = grid.trace_session();
    if (session == nullptr) return;
    active_ = true;
    epoch_ = grid.epoch();
    const CommStats cs = grid.comm_stats();
    msgs0_ = cs.messages;
    bytes0_ = cs.bytes;
    grid.sample_counter_tracks();
    for (int l = 0; l < grid.num_locales(); ++l) {
      session->begin_span(l, name, grid.clock(l).now(), args);
    }
  }

  GridSpan(const GridSpan&) = delete;
  GridSpan& operator=(const GridSpan&) = delete;

  ~GridSpan() { end(); }

  /// Closes the span early (the destructor is then a no-op).
  void end() {
    if (!active_) return;
    active_ = false;
    auto* session = grid_.trace_session();
    if (session == nullptr || grid_.epoch() != epoch_) return;
    const CommStats cs = grid_.comm_stats();
    const TraceArgs extra{
        {"d_messages", std::to_string(cs.messages - msgs0_)},
        {"d_bytes", std::to_string(cs.bytes - bytes0_)}};
    for (int l = 0; l < grid_.num_locales(); ++l) {
      session->end_span(l, grid_.clock(l).now(), extra);
    }
    grid_.sample_counter_tracks();
  }

 private:
  LocaleGrid& grid_;
  bool active_ = false;
  std::uint64_t epoch_ = 0;
  std::int64_t msgs0_ = 0;
  std::int64_t bytes0_ = 0;
};

/// One locale's span. Inside a coforall_compute body it records into the
/// body's log (LocaleCtx::trace_log), which the dispatch replays onto the
/// locale's track at the join.
class LocaleSpan {
 public:
  LocaleSpan(LocaleCtx& ctx, const char* name, TraceArgs args = {})
      : grid_(ctx.grid()), locale_(ctx.locale()), log_(ctx.trace_log()) {
    auto* session = grid_.trace_session();
    if (session == nullptr) return;
    active_ = true;
    epoch_ = grid_.epoch();
    const double now = grid_.clock(locale_).now();
    if (log_ != nullptr) {
      log_->begin_span(name, now, session->wall_now_us(), std::move(args));
    } else {
      session->begin_span(locale_, name, now, std::move(args));
    }
  }

  LocaleSpan(const LocaleSpan&) = delete;
  LocaleSpan& operator=(const LocaleSpan&) = delete;

  ~LocaleSpan() { end(); }

  void end() {
    if (!active_) return;
    active_ = false;
    auto* session = grid_.trace_session();
    if (session == nullptr || grid_.epoch() != epoch_) return;
    const double now = grid_.clock(locale_).now();
    if (log_ != nullptr) {
      log_->end_span(now, session->wall_now_us());
    } else {
      session->end_span(locale_, now);
    }
  }

 private:
  LocaleGrid& grid_;
  int locale_;
  TrackLog* log_;
  bool active_ = false;
  std::uint64_t epoch_ = 0;
};

/// The per-query "query.level" spans of one fused batch wave, for its
/// scope. When the service executor bound the batch lanes to query
/// tracks (TraceSession::set_lane_tracks), every lane in `lanes` that
/// has a track gets one span covering the scope, tagged with the lane's
/// level and frontier size and the wave's width at open and with the
/// wave's comm delta at close. Without a session or a binding it does
/// nothing.
class LaneLevelSpans {
 public:
  /// `level_frontier(q)` gives lane q's {level, frontier nnz}; it is
  /// called only when the lanes are bound.
  template <typename LevelFrontier>
  LaneLevelSpans(LocaleGrid& grid, const std::vector<int>& lanes,
                 LevelFrontier&& level_frontier)
      : grid_(grid) {
    auto* session = grid.trace_session();
    if (session == nullptr || !session->has_lane_tracks()) return;
    session_ = session;
    epoch_ = grid.epoch();
    t0_ = grid.time();
    const CommStats cs = grid.comm_stats();
    msgs0_ = cs.messages;
    bytes0_ = cs.bytes;
    const std::string width = std::to_string(lanes.size());
    for (int q : lanes) {
      const auto [level, frontier] = level_frontier(q);
      spans_.push_back({session_->lane_track(q),
                        {{"level", std::to_string(level)},
                         {"frontier", std::to_string(frontier)},
                         {"width", width}}});
    }
  }

  LaneLevelSpans(const LaneLevelSpans&) = delete;
  LaneLevelSpans& operator=(const LaneLevelSpans&) = delete;

  ~LaneLevelSpans() {
    if (session_ == nullptr || grid_.epoch() != epoch_) return;
    const double t1 = grid_.time();
    const CommStats cs = grid_.comm_stats();
    const TraceArgs extra{
        {"d_messages", std::to_string(cs.messages - msgs0_)},
        {"d_bytes", std::to_string(cs.bytes - bytes0_)}};
    for (auto& [track, args] : spans_) {
      if (track < 0) continue;
      session_->begin_span(track, "query.level", t0_, std::move(args));
      session_->end_span(track, t1, extra);
    }
  }

 private:
  struct LaneSpan {
    int track;
    TraceArgs args;
  };

  LocaleGrid& grid_;
  TraceSession* session_ = nullptr;
  std::uint64_t epoch_ = 0;
  double t0_ = 0.0;
  std::int64_t msgs0_ = 0;
  std::int64_t bytes0_ = 0;
  std::vector<LaneSpan> spans_;
};

#define PGB_OBS_CONCAT2(a, b) a##b
#define PGB_OBS_CONCAT(a, b) PGB_OBS_CONCAT2(a, b)

/// Grid-wide phase span for the enclosing scope.
#define PGB_TRACE_SPAN(grid, ...)                                 \
  ::pgb::obs::GridSpan PGB_OBS_CONCAT(pgb_trace_span_, __LINE__)( \
      (grid), __VA_ARGS__)

/// Single-locale span (inside a coforall body) for the enclosing scope.
#define PGB_TRACE_CTX_SPAN(ctx, ...)                                    \
  ::pgb::obs::LocaleSpan PGB_OBS_CONCAT(pgb_trace_ctx_span_, __LINE__)( \
      (ctx), __VA_ARGS__)

}  // namespace pgb::obs
