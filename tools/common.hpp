// Shared by pgb and pgb_serve: the export flags and their one writer,
// and the --gen graph generators.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "gen/erdos_renyi.hpp"
#include "gen/rmat.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "runtime/locale_grid.hpp"
#include "sparse/dist_csr.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

namespace pgb::tools {

/// Workload identity stamped into a --profile report: enough detail that
/// diffing two different runs is rejected as a structural mismatch
/// instead of reported as a thousand "regressions".
struct RunIdentity {
  std::string workload;
  std::string comm;
  std::uint64_t seed = 0;
  std::string machine;
};

/// The export flags (--trace, --trace-detail, --metrics, --comm-matrix,
/// --profile) and the trace session they record into. Construct before
/// Cli::finish(), attach() before the run, write() after it.
class Exports {
 public:
  explicit Exports(Cli& cli)
      : trace_(cli.get("trace", "",
                       "write a Chrome trace (Perfetto-loadable) of the run: "
                       "one track per locale (pgb_serve adds one per "
                       "admitted query)")),
        metrics_(cli.get("metrics", "", "write the metrics registry as JSON")),
        comm_matrix_(cli.get(
            "comm-matrix", "",
            "write the per src->dst locale comm matrix (messages + bytes) "
            "as JSON, or CSV when the path ends in .csv")),
        profile_(cli.get(
            "profile", "",
            "write a profile report (span tree + counters) for pgb_diff")) {
    session_.set_detail(cli.get_bool("trace-detail", false,
                                     "also record per-call comm instants"));
  }
  Exports(const Exports&) = delete;
  Exports& operator=(const Exports&) = delete;

  /// Installs the trace session when a trace or a profile is asked for,
  /// and turns the comm matrix on when it is asked for.
  void attach(LocaleGrid& grid) {
    if (!trace_.empty() || !profile_.empty()) grid.set_trace_session(&session_);
    if (!comm_matrix_.empty()) grid.enable_comm_matrix();
  }

  /// Writes the trace, the comm matrix, the metrics and the profile, in
  /// that order: write_comm_matrix publishes the comm.matrix.* counters
  /// that the metrics and the profile then carry.
  void write(LocaleGrid& grid, const RunIdentity& id) {
    if (!trace_.empty()) {
      session_.write_chrome_trace(trace_);
      std::printf("trace: %d tracks, %zu spans, %zu counter samples -> %s\n",
                  session_.num_tracks(), session_.spans().size(),
                  session_.counter_samples().size(), trace_.c_str());
    }
    if (!comm_matrix_.empty()) {
      // Conservation invariant, also checked degraded (post-kill remap):
      // the matrix is accumulated at exactly the two sites that bump the
      // comm.messages/comm.bytes counters, so the totals must match.
      const auto& cs = grid.comm_stats();
      PGB_REQUIRE(grid.comm_matrix_total_messages() == cs.messages,
                  "comm matrix: message total diverged from comm.messages");
      PGB_REQUIRE(grid.comm_matrix_total_bytes() == cs.bytes,
                  "comm matrix: byte total diverged from comm.bytes");
      grid.write_comm_matrix(comm_matrix_);
      std::printf("comm matrix: %d locales, %lld msgs, %lld B -> %s\n",
                  grid.num_locales(),
                  static_cast<long long>(grid.comm_matrix_total_messages()),
                  static_cast<long long>(grid.comm_matrix_total_bytes()),
                  comm_matrix_.c_str());
    }
    if (!metrics_.empty()) {
      std::ofstream out(metrics_);
      PGB_REQUIRE(out.good(), "cannot open metrics file: " + metrics_);
      out << grid.metrics().json() << "\n";
      std::printf("metrics -> %s\n", metrics_.c_str());
    }
    if (!profile_.empty()) {
      obs::Profile prof =
          obs::build_profile(session_, grid.metrics().snapshot());
      prof.workload = id.workload;
      prof.comm = id.comm;
      prof.seed = id.seed;
      prof.locales = grid.num_locales();
      prof.threads = grid.threads();
      prof.machine = id.machine;
      prof.write(profile_);
      std::printf("profile: %zu root spans -> %s\n", prof.spans.size(),
                  profile_.c_str());
    }
  }

 private:
  std::string trace_, metrics_, comm_matrix_, profile_;
  obs::TraceSession session_;
};

/// Generates the --gen graph (er: n vertices, d nonzeros per row; rmat:
/// 2^rmat_scale vertices) and prints its one-line summary.
inline DistCsr<double> generate_graph(LocaleGrid& grid, const std::string& gen,
                                      Index n, double d,
                                      std::int64_t rmat_scale,
                                      std::uint64_t seed) {
  if (gen == "er") {
    DistCsr<double> a = erdos_renyi_dist<double>(grid, n, d, seed);
    std::printf("generated ER: n=%lld d=%g, %lld nonzeros\n",
                static_cast<long long>(n), d, static_cast<long long>(a.nnz()));
    return a;
  }
  PGB_REQUIRE(gen == "rmat", "--gen must be er or rmat");
  // Checked before narrowing, so 2^32 + 8 is not read as 8.
  PGB_REQUIRE(rmat_scale >= 0 && rmat_scale <= 62,
              "--rmat-scale must be in [0, 62]; got " +
                  std::to_string(rmat_scale));
  RmatParams p;
  p.scale = static_cast<int>(rmat_scale);
  p.seed = seed;
  DistCsr<double> a = rmat_dist<double>(grid, p);
  std::printf("generated R-MAT: 2^%d vertices, %lld edges (symmetric)\n",
              p.scale, static_cast<long long>(a.nnz()));
  return a;
}

}  // namespace pgb::tools
