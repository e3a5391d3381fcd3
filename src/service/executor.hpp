// Batch executor: turns one formed batch into per-query results.
//
// BFS and SSSP batches run through the batched state machines
// (bfs_batch / sssp_batch), whose per-level frontier exchange is the
// fused multi-frontier SpMSpV — one comm schedule priced and paid per
// level for the whole batch. Per-query results are byte-identical to
// solo runs (see spmspv_dist_multi in core/spmspv.hpp for why).
//
// When a fault plan is attached, BFS and SSSP batches run their batch
// loops (algo_recovery.hpp) under the resilient driver, run_resilient,
// with the service's ResilienceOptions: a locale killed mid-batch is
// rebuilt from replicas and the whole batch replays its last round
// bit-identical to the fault-free run. The subgraph kinds (ego-net,
// pagerank-on-subgraph) still run outside the driver, so chaos traffic
// mixes should stick to the frontier kinds.
//
// The subgraph kinds bottom out on the same primitives: an ego-net is a
// depth-capped BFS's reached set; pagerank-on-subgraph extracts the ego
// set's induced subgraph (charged as a streaming scan of the owning
// blocks) and runs the resident pagerank on it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "algo/algo_recovery.hpp"
#include "algo/bfs.hpp"
#include "algo/pagerank.hpp"
#include "algo/sssp.hpp"
#include "service/queue.hpp"
#include "sparse/coo.hpp"

namespace pgb {

struct ExecOptions {
  SpmspvOptions spmspv;
  /// Optional fault plan: BFS and SSSP batches run under run_resilient
  /// so a kill mid-batch recovers per `resilience`.
  FaultPlan* plan = nullptr;
  ResilienceOptions resilience;
  /// Optional recovery telemetry sink (accumulated across batches).
  RecoveryReport* report = nullptr;
};

/// Vertices within `depth` hops of `source` (the source included),
/// ascending — a depth-capped BFS's reached set.
inline std::vector<Index> ego_net(const DistCsr<double>& g, Index source,
                                  Index depth, const SpmspvOptions& opt) {
  BfsState<double> st = bfs_init(g, source);
  while (!st.done && st.level < depth) bfs_step(g, st, opt);
  std::vector<Index> out;
  for (Index v = 0; v < g.nrows(); ++v) {
    if (st.res.parent[static_cast<std::size_t>(v)] != Index{-1}) {
      out.push_back(v);
    }
  }
  return out;
}

/// Induced subgraph on `verts` (ascending global ids), with vertices
/// renumbered to [0, |verts|). Each locale scans its own blocks' rows
/// for members, charged as a streaming pass over the scanned entries.
inline DistCsr<double> induced_subgraph(const DistCsr<double>& g,
                                        const std::vector<Index>& verts) {
  auto& grid = g.grid();
  const Index m = static_cast<Index>(verts.size());
  std::vector<Index> pos(static_cast<std::size_t>(g.nrows()), Index{-1});
  for (Index i = 0; i < m; ++i) {
    pos[static_cast<std::size_t>(verts[static_cast<std::size_t>(i)])] = i;
  }
  Coo<double> coo(std::max<Index>(m, 1), std::max<Index>(m, 1));
  grid.coforall_locales([&](LocaleCtx& ctx) {
    const auto& blk = g.block(ctx.locale());
    Index scanned = 0;
    for (Index r = blk.rlo; r < blk.rhi; ++r) {
      if (pos[static_cast<std::size_t>(r)] < 0) continue;
      auto cols = blk.csr.row_colids(r - blk.rlo);
      auto vals = blk.csr.row_values(r - blk.rlo);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        scanned++;
        const Index pc = pos[static_cast<std::size_t>(cols[k])];
        if (pc < 0) continue;
        coo.add(pos[static_cast<std::size_t>(r)], pc, vals[k]);
      }
    }
    CostVector c;
    c.add(CostKind::kRandAccess,
          static_cast<double>(blk.rhi - blk.rlo));  // membership probes
    c.add(CostKind::kStreamBytes, 16.0 * static_cast<double>(scanned));
    c.add(CostKind::kCpuOps, 4.0 * static_cast<double>(scanned));
    ctx.parallel_region(c);
  });
  return DistCsr<double>::from_coo(grid, coo);
}

/// Executes one batch (all entries same kind/snapshot for the batchable
/// kinds; subgraph kinds arrive solo). results[i] answers batch[i].
inline std::vector<QueryResult> execute_batch(
    const std::vector<PendingQuery>& batch, const ExecOptions& opt) {
  PGB_ASSERT(!batch.empty(), "executor: empty batch");
  const DistCsr<double>& g = *batch.front().snap.graph;
  std::vector<QueryResult> out(batch.size());
  const QueryKind kind = batch.front().spec.kind;

  // Bind each lane's per-query trace track on the session so the batched
  // state machines (which know lanes, not queries) can stamp per-level
  // spans on the right track. Contexts minted before a grid.reset() are
  // left unbound — their tracks died with the cleared session.
  obs::TraceSession* qtrace = g.grid().trace_session();
  bool bound = false;
  if (qtrace != nullptr) {
    std::vector<int> tracks(batch.size(), -1);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const QueryTraceContext& tc = batch[i].trace;
      if (tc.traced() && tc.grid_epoch == g.grid().epoch()) {
        tracks[i] = tc.track;
        bound = true;
      }
    }
    if (bound) qtrace->set_lane_tracks(std::move(tracks));
  }

  switch (kind) {
    case QueryKind::kBfs: {
      std::vector<Index> sources;
      sources.reserve(batch.size());
      for (const auto& q : batch) sources.push_back(q.spec.source);
      std::vector<BfsResult> res =
          opt.plan != nullptr
              ? run_resilient(g.grid(), opt.plan,
                              bfs_batch_recovery_loop(g, sources, opt.spmspv),
                              opt.resilience, opt.report)
              : bfs_batch(g, sources, opt.spmspv);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        out[i].kind = kind;
        out[i].bfs = std::move(res[i]);
      }
      break;
    }
    case QueryKind::kSssp: {
      std::vector<Index> sources;
      sources.reserve(batch.size());
      for (const auto& q : batch) sources.push_back(q.spec.source);
      std::vector<SsspResult> res =
          opt.plan != nullptr
              ? run_resilient(g.grid(), opt.plan,
                              sssp_batch_recovery_loop(g, sources, opt.spmspv),
                              opt.resilience, opt.report)
              : sssp_batch(g, sources, opt.spmspv);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        out[i].kind = kind;
        out[i].sssp = std::move(res[i]);
      }
      break;
    }
    case QueryKind::kEgoNet: {
      for (std::size_t i = 0; i < batch.size(); ++i) {
        out[i].kind = kind;
        out[i].ego = ego_net(g, batch[i].spec.source, batch[i].spec.depth,
                             opt.spmspv);
      }
      break;
    }
    case QueryKind::kPagerankSubgraph: {
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const QuerySpec& s = batch[i].spec;
        out[i].kind = kind;
        out[i].ego = ego_net(g, s.source, s.depth, opt.spmspv);
        DistCsr<double> sub = induced_subgraph(g, out[i].ego);
        PagerankResult pr =
            pagerank(sub, s.damping, s.tol, s.max_iters);
        pr.rank.resize(out[i].ego.size());  // drop the m=0 pad vertex
        out[i].rank = std::move(pr.rank);
      }
      break;
    }
  }
  if (bound) qtrace->clear_lane_tracks();
  return out;
}

}  // namespace pgb
