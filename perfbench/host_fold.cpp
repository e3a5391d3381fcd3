#include "host_fold.hpp"

#include <algorithm>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

void HostFold::add(const pgb::obs::TraceSession& session, int num_locales,
                   int extra_track) {
  using Interval = std::pair<double, double>;
  std::unordered_map<std::string_view, std::vector<Interval>> by_name;
  for (const auto& s : session.spans()) {
    if (s.track >= num_locales && s.track != extra_track) continue;
    by_name[s.name].emplace_back(s.wall_begin_us, s.wall_end_us);
  }

  // One instance per maximal run of overlapping same-name intervals.
  struct Instance {
    double begin, end;
    std::string_view name;
    double nested = 0.0;  ///< time covered by directly nested instances
  };
  std::vector<Instance> inst;
  for (auto& [name, ivs] : by_name) {
    std::sort(ivs.begin(), ivs.end());
    Interval cur = ivs.front();
    for (std::size_t i = 1; i < ivs.size(); ++i) {
      if (ivs[i].first < cur.second) {
        cur.second = std::max(cur.second, ivs[i].second);
      } else {
        inst.push_back({cur.first, cur.second, name});
        cur = ivs[i];
      }
    }
    inst.push_back({cur.first, cur.second, name});
  }

  // Outer instances first; each instance's parent is the innermost open
  // instance that still covers its start.
  std::sort(inst.begin(), inst.end(), [](const Instance& a, const Instance& b) {
    return a.begin != b.begin ? a.begin < b.begin : a.end > b.end;
  });
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < inst.size(); ++i) {
    while (!open.empty() && inst[open.back()].end <= inst[i].begin) {
      open.pop_back();
    }
    if (!open.empty()) {
      Instance& parent = inst[open.back()];
      parent.nested += std::max(
          0.0, std::min(parent.end, inst[i].end) - inst[i].begin);
    }
    open.push_back(i);
  }

  for (const Instance& x : inst) {
    auto it = by_name_.find(x.name);
    if (it == by_name_.end()) {
      it = by_name_.emplace(std::string(x.name), HostTime{}).first;
    }
    const double len = x.end - x.begin;
    it->second.incl_us += len;
    it->second.self_us += std::max(0.0, len - x.nested);
    ++it->second.count;
  }
}

HostTime HostFold::get(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? HostTime{} : it->second;
}

}  // namespace perfbench
