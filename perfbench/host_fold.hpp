// Host wall time per span name, folded out of an obs::TraceSession.
//
// Every span carries the host wall interval it was open for
// (wall_begin_us / wall_end_us). The simulator runs on one host thread,
// so those intervals nest on a single timeline, with one complication:
// a grid-wide span (obs::GridSpan) opens one copy per locale track, all
// covering the same stretch of host time. Summing copies would report a
// 64-locale phase 64 times over. The fold therefore merges the
// overlapping intervals of one name into a single instance first (a
// grid span's copies overlap; one locale's spans inside a coforall run
// one after another and stay separate), then nests the instances and
// reports, per name:
//   incl   host time inside the name's instances
//   self   incl minus the part covered by directly nested instances
//   count  instances
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "obs/trace.hpp"

namespace perfbench {

struct HostTime {
  double incl_us = 0.0;
  double self_us = 0.0;
  std::int64_t count = 0;
};

class HostFold {
 public:
  /// Folds the closed spans of `session` on the locale tracks
  /// [0, num_locales) and on `extra_track`; other named tracks (the
  /// service's per-query lifecycle tracks, stamped in simulated time
  /// across many host calls) are left out.
  void add(const pgb::obs::TraceSession& session, int num_locales,
           int extra_track);

  /// Totals for `name` (all zero when it never occurred).
  HostTime get(const std::string& name) const;

 private:
  std::map<std::string, HostTime, std::less<>> by_name_;
};

}  // namespace perfbench
