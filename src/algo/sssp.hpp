// Single-source shortest paths via Bellman-Ford iterations on the
// (min, +) semiring — the classic non-Boolean semiring showcase of
// GraphBLAS: each round relaxes the edges leaving the vertices whose
// distance improved, exactly a masked SpMSpV on min-plus.
#pragma once

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/ops.hpp"
#include "core/spmspv.hpp"
#include "obs/span.hpp"
#include "sparse/dist_csr.hpp"
#include "sparse/dist_dense_vec.hpp"
#include "sparse/dist_sparse_vec.hpp"

namespace pgb {

struct SsspResult {
  /// dist[v] = shortest distance from the source; "unreachable" marker
  /// (max double) if no path exists.
  std::vector<double> dist;
  int rounds = 0;

  static constexpr double kUnreachable =
      std::numeric_limits<double>::max();
};

/// The loop state of one SSSP run, exposed for the recovery driver
/// (fault/recovery.hpp via algo/algo_recovery.hpp): snapshot between
/// rounds, rebuild after a locale failure. `sssp()` below is exactly
/// sssp_init + sssp_step-until-done + sssp_finalize.
struct SsspState {
  DistDenseVec<double> dist;
  DistSparseVec<double> frontier;  ///< vertices improved last round
  SsspResult res;                  ///< rounds only; dist filled at finalize
  bool done = false;
};

template <typename T>
SsspState sssp_init(const DistCsr<T>& a, Index source) {
  PGB_REQUIRE_SHAPE(a.nrows() == a.ncols(), "sssp: matrix must be square");
  PGB_REQUIRE(source >= 0 && source < a.nrows(), "sssp: bad source");
  auto& grid = a.grid();
  const Index n = a.nrows();

  SsspState st{DistDenseVec<double>(grid, n, SsspResult::kUnreachable),
               DistSparseVec<double>::from_sorted(grid, n, {source}, {0.0}),
               {}, false};
  st.dist.at(source) = 0.0;
  grid.metrics().counter("algo.calls", {{"algo", "sssp"}}).inc();
  return st;
}

namespace detail {

/// Keeps the candidates `cand` that improve st.dist, lowers st.dist to
/// them and makes the improved vertices st's next frontier: one filter
/// dispatch, then the frontier build.
inline void sssp_relax(LocaleGrid& grid, SsspState& st,
                       const DistSparseVec<double>& cand) {
  const int nloc = grid.num_locales();
  std::vector<std::vector<Index>> imp_idx(static_cast<std::size_t>(nloc));
  std::vector<std::vector<double>> imp_val(static_cast<std::size_t>(nloc));
  grid.coforall_compute([&](LocaleCtx& ctx) {
    const int l = ctx.locale();
    const auto& lc = cand.local(l);
    auto& ld = st.dist.local(l);
    for (Index p = 0; p < lc.nnz(); ++p) {
      const Index v = lc.index_at(p);
      if (lc.value_at(p) < ld[v]) {
        ld[v] = lc.value_at(p);
        imp_idx[static_cast<std::size_t>(l)].push_back(v);
        imp_val[static_cast<std::size_t>(l)].push_back(lc.value_at(p));
      }
    }
    CostVector c;
    c.add(CostKind::kCpuOps, 20.0 * static_cast<double>(lc.nnz()));
    c.add(CostKind::kRandAccess, static_cast<double>(lc.nnz()));
    c.add(CostKind::kStreamBytes, 24.0 * static_cast<double>(lc.nnz()));
    ctx.parallel_region(c);
  });
  DistSparseVec<double> next(grid, st.dist.size());
  for (int l = 0; l < nloc; ++l) {
    next.local(l) = SparseVec<double>::from_sorted(
        next.dist().local_size(l),
        std::move(imp_idx[static_cast<std::size_t>(l)]),
        std::move(imp_val[static_cast<std::size_t>(l)]));
  }
  st.frontier = std::move(next);
}

}  // namespace detail

/// One Bellman-Ford relaxation round; sets st.done at the fixed point
/// (or at the n-round cap).
template <typename T>
void sssp_step(const DistCsr<T>& a, SsspState& st,
               const SpmspvOptions& opt = {}) {
  auto& grid = a.grid();
  const Index n = a.nrows();
  if (st.frontier.nnz() == 0 || st.res.rounds >= n) {
    st.done = true;
    return;
  }
  ++st.res.rounds;
  PGB_TRACE_SPAN(grid, "sssp.round",
                 {{"round", std::to_string(st.res.rounds)},
                  {"frontier", std::to_string(st.frontier.nnz())}});
  grid.metrics().counter("algo.iterations", {{"algo", "sssp"}}).inc();
  // candidate[c] = min over frontier rows r of (dist-candidate of r +
  // weight(r, c)).
  // Matrix values are cast to double through the semiring.
  const auto cand =
      spmspv_dist(a, st.frontier, min_plus_semiring<double>(), opt);
  detail::sssp_relax(grid, st, cand);
}

/// Gathers the distributed distances into the result (no charging; same
/// convention as the other algos' result extraction).
inline SsspResult sssp_finalize(SsspState& st) {
  const Index n = st.dist.size();
  st.res.dist.resize(static_cast<std::size_t>(n));
  for (int l = 0; l < st.dist.grid().num_locales(); ++l) {
    const auto& ld = st.dist.local(l);
    for (Index i = ld.lo(); i < ld.hi(); ++i) {
      st.res.dist[static_cast<std::size_t>(i)] = ld[i];
    }
  }
  return std::move(st.res);
}

/// Edge weights are the matrix values (must be non-negative for the
/// result to be meaningful in bounded rounds; negative cycles are not
/// detected — rounds are capped at n).
///
/// Each relaxation round's frontier exchange is the SpMSpV below; set
/// `opt.comm = CommMode::kAggregated` to run it through the
/// conveyor-style aggregation layer (identical distances, far fewer
/// modeled messages).
template <typename T>
SsspResult sssp(const DistCsr<T>& a, Index source,
                const SpmspvOptions& opt = {}) {
  SsspState st = sssp_init(a, source);
  while (!st.done) sssp_step(a, st, opt);
  return sssp_finalize(st);
}

// ---- Batched multi-source SSSP (the service front end's fused wave) ----
//
// Same lockstep structure as BfsBatchState: every active lane's
// relaxation round rides one fused multi-frontier SpMSpV, while each
// lane's improvement filter and next-frontier build are the solo
// sssp_step's (detail::sssp_relax) over that lane's data alone — lane
// distances are byte-identical to solo sssp() runs.

struct SsspBatchState {
  std::vector<SsspState> lanes;
  bool done = false;
};

template <typename T>
SsspBatchState sssp_batch_init(const DistCsr<T>& a,
                               const std::vector<Index>& sources) {
  PGB_REQUIRE(!sources.empty(), "sssp_batch: need at least one source");
  SsspBatchState st;
  st.lanes.reserve(sources.size());
  for (Index s : sources) st.lanes.push_back(sssp_init(a, s));
  a.grid().metrics().counter("algo.calls", {{"algo", "sssp.batch"}}).inc();
  return st;
}

/// One fused Bellman-Ford relaxation round across all active lanes.
template <typename T>
void sssp_batch_step(const DistCsr<T>& a, SsspBatchState& st,
                     const SpmspvOptions& opt = {}) {
  auto& grid = a.grid();
  const Index n = a.nrows();
  std::vector<int> act;
  for (int q = 0; q < static_cast<int>(st.lanes.size()); ++q) {
    auto& ln = st.lanes[static_cast<std::size_t>(q)];
    if (ln.done) continue;
    if (ln.frontier.nnz() == 0 || ln.res.rounds >= n) {
      ln.done = true;
      continue;
    }
    ++ln.res.rounds;
    act.push_back(q);
  }
  if (act.empty()) {
    st.done = true;
    return;
  }
  PGB_TRACE_SPAN(grid, "sssp.batch.round",
                 {{"width", std::to_string(act.size())}});
  grid.metrics().counter("algo.iterations", {{"algo", "sssp.batch"}}).inc();
  obs::LaneLevelSpans lane_spans(grid, act, [&](int q) {
    const auto& ln = st.lanes[static_cast<std::size_t>(q)];
    return std::pair(ln.res.rounds, ln.frontier.nnz());
  });

  std::vector<const DistSparseVec<double>*> xs;
  xs.reserve(act.size());
  for (int q : act) {
    xs.push_back(&st.lanes[static_cast<std::size_t>(q)].frontier);
  }
  const std::vector<DistSparseVec<double>> cand = spmspv_dist_multi(
      a, xs, {}, MaskMode::kNone, min_plus_semiring<double>(), opt);

  // Per lane: the solo filter and frontier build, one dispatch per lane.
  for (std::size_t i = 0; i < act.size(); ++i) {
    detail::sssp_relax(grid, st.lanes[static_cast<std::size_t>(act[i])],
                       cand[i]);
  }
}

/// Runs k SSSP queries through the fused per-round wave; out[i] is
/// byte-identical to sssp(a, sources[i], opt).
template <typename T>
std::vector<SsspResult> sssp_batch(const DistCsr<T>& a,
                                   const std::vector<Index>& sources,
                                   const SpmspvOptions& opt = {}) {
  SsspBatchState st = sssp_batch_init(a, sources);
  while (!st.done) sssp_batch_step(a, st, opt);
  std::vector<SsspResult> out;
  out.reserve(st.lanes.size());
  for (auto& ln : st.lanes) out.push_back(sssp_finalize(ln));
  return out;
}

}  // namespace pgb
