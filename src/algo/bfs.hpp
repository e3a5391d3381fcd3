// Breadth-first search in the language of linear algebra — "often the
// 'hello world' example of GraphBLAS" (paper Section III). The paper's
// four operations were chosen precisely so they compose into this:
//
//   per level:
//     frontier values <- their own vertex ids        (Apply-style pass)
//     y  <- frontier . A  on the (min, select1st) semiring   (SpMSpV)
//     y  <- y filtered by NOT visited                (mask / eWiseMult)
//     parents[y's indices] <- y's values             (Assign-style pass)
//     visited |= y's pattern; frontier <- y
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/descriptor.hpp"
#include "core/kernel_costs.hpp"
#include "core/mask.hpp"
#include "core/ops.hpp"
#include "core/spmspv.hpp"
#include "obs/span.hpp"
#include "sparse/dist_csr.hpp"
#include "sparse/dist_dense_vec.hpp"
#include "sparse/dist_sparse_vec.hpp"

namespace pgb {

struct BfsResult {
  /// parent[v] = BFS-tree parent of v (source's parent is itself);
  /// -1 for unreached vertices.
  std::vector<Index> parent;
  /// Number of vertices discovered at each level (level 0 = source).
  std::vector<Index> level_sizes;
};

/// The loop state of one BFS traversal, exposed so the recovery driver
/// (fault/recovery.hpp via algo/algo_recovery.hpp) can snapshot it
/// between levels and rebuild it after a locale failure. `bfs()` below
/// is exactly bfs_init + bfs_step-until-done.
template <typename T>
struct BfsState {
  DistDenseVec<std::uint8_t> visited;
  DistSparseVec<T> frontier;
  BfsResult res;
  Index level = 0;
  bool done = false;
};

template <typename T>
BfsState<T> bfs_init(const DistCsr<T>& a, Index source) {
  PGB_REQUIRE_SHAPE(a.nrows() == a.ncols(), "bfs: matrix must be square");
  PGB_REQUIRE(source >= 0 && source < a.nrows(), "bfs: bad source vertex");
  auto& grid = a.grid();
  const Index n = a.nrows();

  BfsState<T> st{DistDenseVec<std::uint8_t>(grid, n, 0),
                 DistSparseVec<T>::from_sorted(grid, n, {source},
                                               {static_cast<T>(source)}),
                 {}, 0, false};
  st.res.parent.assign(static_cast<std::size_t>(n), Index{-1});
  st.res.parent[static_cast<std::size_t>(source)] = source;
  st.visited.at(source) = 1;
  st.res.level_sizes.push_back(1);

  grid.metrics().counter("algo.calls", {{"algo", "bfs"}}).inc();
  return st;
}

namespace detail {

/// One locale's frontier-value write: frontier values carry the
/// discovering vertex, x[r] = r.
template <typename T>
void bfs_label_frontier(LocaleCtx& ctx, SparseVec<T>& lf) {
  for (Index p = 0; p < lf.nnz(); ++p) {
    lf.value_at(p) = static_cast<T>(lf.index_at(p));
  }
  CostVector c;
  c.add(CostKind::kStreamBytes, 16.0 * static_cast<double>(lf.nnz()));
  c.add(CostKind::kCpuOps, kApplyOpsPerElem * static_cast<double>(lf.nnz()));
  ctx.parallel_region(c);
}

/// One locale's parent record for its piece `lf` of the fresh vertices.
template <typename T>
void bfs_record_parents(LocaleCtx& ctx, const SparseVec<T>& lf,
                        std::vector<Index>& parent) {
  for (Index p = 0; p < lf.nnz(); ++p) {
    parent[static_cast<std::size_t>(lf.index_at(p))] =
        static_cast<Index>(lf.value_at(p));
  }
  CostVector c;
  c.add(CostKind::kRandAccess, static_cast<double>(lf.nnz()));
  c.add(CostKind::kCpuOps, 20.0 * static_cast<double>(lf.nnz()));
  ctx.parallel_region(c);
}

/// Makes `fresh` the next frontier: extends the visited set and records
/// the level's size.
template <typename T>
void bfs_advance(BfsState<T>& st, DistSparseVec<T>&& fresh) {
  mask_union(st.visited, fresh);
  st.res.level_sizes.push_back(fresh.nnz());
  st.frontier = std::move(fresh);
}

}  // namespace detail

/// Advances one BFS level; sets st.done when the traversal is finished.
template <typename T>
void bfs_step(const DistCsr<T>& a, BfsState<T>& st,
              const SpmspvOptions& opt = {}) {
  auto& grid = a.grid();
  if (st.frontier.nnz() == 0) {
    st.done = true;
    return;
  }
  ++st.level;
  PGB_TRACE_SPAN(grid, "bfs.level",
                 {{"level", std::to_string(st.level)},
                  {"frontier", std::to_string(st.frontier.nnz())}});
  grid.metrics().counter("algo.iterations", {{"algo", "bfs"}}).inc();
  grid.coforall_compute([&](LocaleCtx& ctx) {
    detail::bfs_label_frontier(ctx, st.frontier.local(ctx.locale()));
  });

  // Fused masked vxm: unvisited-only outputs are built directly at
  // their owners (the paper's future-work "masks in distributed
  // memory").
  const auto sr = min_first_semiring<T>();
  DistSparseVec<T> fresh = spmspv_dist_masked(
      a, st.frontier, st.visited, MaskMode::kComplement, sr, opt);
  if (fresh.nnz() == 0) {
    st.done = true;
    return;
  }

  // Record parents and extend the visited set.
  grid.coforall_compute([&](LocaleCtx& ctx) {
    detail::bfs_record_parents(ctx, fresh.local(ctx.locale()),
                               st.res.parent);
  });
  detail::bfs_advance(st, std::move(fresh));
}

/// Direction note: edges are matrix entries A[r, c] = edge r -> c; BFS
/// explores along edge direction (use a symmetric matrix for undirected
/// graphs).
///
/// The per-level frontier exchange is the masked SpMSpV below; its
/// gather/scatter schedule follows opt.comm, so
/// `opt.comm = CommMode::kAggregated` runs every level's frontier
/// exchange through the conveyor-style aggregators. Results are
/// identical across schedules.
template <typename T>
BfsResult bfs(const DistCsr<T>& a, Index source,
              const SpmspvOptions& opt = {}) {
  BfsState<T> st = bfs_init(a, source);
  while (!st.done) bfs_step(a, st, opt);
  return std::move(st.res);
}

// ---- Batched multi-source BFS (the service front end's fused wave) ----
//
// k independent traversals stepped in lockstep: each level's frontier
// exchange for every still-active lane rides ONE fused multi-frontier
// SpMSpV (spmspv_dist_multi in core/spmspv.hpp), so the comm schedule is
// priced and paid once per level instead of once per lane. Each lane's
// state evolves through the solo bfs_step's per-lane bodies — same
// frontier values, same mask, same per-owner finalize — so every lane's
// BfsResult is byte-identical to a solo bfs() from its source.

/// k lane states plus a batch-level done flag. A lane finishes on its
/// own schedule (its frontier drains); the batch finishes when every
/// lane has.
template <typename T>
struct BfsBatchState {
  std::vector<BfsState<T>> lanes;
  bool done = false;
};

template <typename T>
BfsBatchState<T> bfs_batch_init(const DistCsr<T>& a,
                                const std::vector<Index>& sources) {
  PGB_REQUIRE(!sources.empty(), "bfs_batch: need at least one source");
  BfsBatchState<T> st;
  st.lanes.reserve(sources.size());
  for (Index s : sources) st.lanes.push_back(bfs_init(a, s));
  a.grid().metrics().counter("algo.calls", {{"algo", "bfs.batch"}}).inc();
  return st;
}

/// Advances every still-active lane one level through one fused wave.
template <typename T>
void bfs_batch_step(const DistCsr<T>& a, BfsBatchState<T>& st,
                    const SpmspvOptions& opt = {}) {
  auto& grid = a.grid();
  std::vector<int> act;
  for (int q = 0; q < static_cast<int>(st.lanes.size()); ++q) {
    auto& ln = st.lanes[static_cast<std::size_t>(q)];
    if (ln.done) continue;
    if (ln.frontier.nnz() == 0) {
      ln.done = true;
      continue;
    }
    ++ln.level;
    act.push_back(q);
  }
  if (act.empty()) {
    st.done = true;
    return;
  }
  PGB_TRACE_SPAN(grid, "bfs.batch.level",
                 {{"width", std::to_string(act.size())}});
  grid.metrics().counter("algo.iterations", {{"algo", "bfs.batch"}}).inc();
  obs::LaneLevelSpans lane_spans(grid, act, [&](int q) {
    const auto& ln = st.lanes[static_cast<std::size_t>(q)];
    return std::pair(ln.level, ln.frontier.nnz());
  });
  // Per lane: the solo value-write pass, charged per lane inside one
  // locale loop.
  grid.coforall_compute([&](LocaleCtx& ctx) {
    for (int q : act) {
      detail::bfs_label_frontier(
          ctx,
          st.lanes[static_cast<std::size_t>(q)].frontier.local(ctx.locale()));
    }
  });

  const auto sr = min_first_semiring<T>();
  std::vector<const DistSparseVec<T>*> xs;
  std::vector<const DistDenseVec<std::uint8_t>*> masks;
  xs.reserve(act.size());
  masks.reserve(act.size());
  for (int q : act) {
    auto& ln = st.lanes[static_cast<std::size_t>(q)];
    xs.push_back(&ln.frontier);
    masks.push_back(&ln.visited);
  }
  std::vector<DistSparseVec<T>> fresh =
      spmspv_dist_multi(a, xs, masks, MaskMode::kComplement, sr, opt);

  std::vector<int> live;  // positions in act whose lane found new vertices
  for (int i = 0; i < static_cast<int>(act.size()); ++i) {
    if (fresh[static_cast<std::size_t>(i)].nnz() == 0) {
      st.lanes[static_cast<std::size_t>(act[static_cast<std::size_t>(i)])]
          .done = true;
    } else {
      live.push_back(i);
    }
  }
  if (live.empty()) return;
  const auto lane = [&](int i) -> BfsState<T>& {
    const int q = act[static_cast<std::size_t>(i)];
    return st.lanes[static_cast<std::size_t>(q)];
  };
  grid.coforall_compute([&](LocaleCtx& ctx) {
    for (int i : live) {
      detail::bfs_record_parents(
          ctx, fresh[static_cast<std::size_t>(i)].local(ctx.locale()),
          lane(i).res.parent);
    }
  });
  for (int i : live) {
    detail::bfs_advance(lane(i),
                        std::move(fresh[static_cast<std::size_t>(i)]));
  }
}

/// Runs k BFS traversals through the fused per-level wave; out[i] is
/// byte-identical to bfs(a, sources[i], opt).
template <typename T>
std::vector<BfsResult> bfs_batch(const DistCsr<T>& a,
                                 const std::vector<Index>& sources,
                                 const SpmspvOptions& opt = {}) {
  BfsBatchState<T> st = bfs_batch_init(a, sources);
  while (!st.done) bfs_batch_step(a, st, opt);
  std::vector<BfsResult> out;
  out.reserve(st.lanes.size());
  for (auto& ln : st.lanes) out.push_back(std::move(ln.res));
  return out;
}

}  // namespace pgb
