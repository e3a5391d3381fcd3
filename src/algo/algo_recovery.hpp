// Snapshot contracts for the round-structured algorithms: BFS, SSSP and
// pagerank expressed as RecoverableLoops over their *_init/*_step state
// machines (bfs.hpp, sssp.hpp, pagerank.hpp), solo and batched.
//
// Each builder says which blocks make up the algorithm's state, carries
// the matrix bytes a restored locale re-ships, and extracts the result.
// Callers run the loop under any recovery policy with run_resilient
// (fault/recovery.hpp). With a null plan (or a plan whose kills never
// fire) that is the plain algorithm plus the policy's snapshot charges;
// when a locale is killed mid-run, the driver restores and re-executes
// the lost rounds over bit-identical inputs, so the recovered result is
// bit-for-bit the fault-free result.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "algo/bfs.hpp"
#include "algo/pagerank.hpp"
#include "algo/sssp.hpp"
#include "fault/recovery.hpp"

namespace pgb {

/// Serialized size of the matrix's distributed blocks: what a
/// replacement locale must re-ship on restore (the matrix is static
/// state, written once, never snapshotted again).
template <typename T>
std::int64_t matrix_static_bytes(const DistCsr<T>& a) {
  return a.nnz() * static_cast<std::int64_t>(sizeof(Index) + sizeof(T)) +
         (a.nrows() + 1) * static_cast<std::int64_t>(sizeof(Index));
}

// -- per-state snapshot contracts under a key prefix: the solo loops use
//    "bfs." / "sssp.", a batch uses "bfsb.<q>." / "ssspb.<q>." per lane,
//    so a lane's keys are the solo keys under its prefix --

template <typename T>
void save_bfs(const BfsState<T>& st, const std::string& p, Checkpoint& c) {
  c.put_dense(p + "visited", st.visited);
  c.put_sparse(p + "frontier", st.frontier);
  c.put_host(p + "parent", st.res.parent);
  c.put_host(p + "level_sizes", st.res.level_sizes);
  c.put_scalar(p + "level", st.level);
  c.put_scalar(p + "done", st.done);
}

template <typename T>
BfsState<T> load_bfs(const Checkpoint& c, const std::string& p,
                     LocaleGrid& grid, Index n) {
  BfsState<T> st{DistDenseVec<std::uint8_t>(grid, n, 0),
                 DistSparseVec<T>(grid, n), {}, 0, false};
  c.get_dense(p + "visited", st.visited);
  c.get_sparse(p + "frontier", st.frontier);
  st.res.parent = c.get_host<Index>(p + "parent");
  st.res.level_sizes = c.get_host<Index>(p + "level_sizes");
  st.level = c.get_scalar<Index>(p + "level");
  st.done = c.get_scalar<bool>(p + "done");
  return st;
}

inline void save_sssp(const SsspState& st, const std::string& p,
                      Checkpoint& c) {
  c.put_dense(p + "dist", st.dist);
  c.put_sparse(p + "frontier", st.frontier);
  c.put_scalar(p + "rounds", st.res.rounds);
  c.put_scalar(p + "done", st.done);
}

inline SsspState load_sssp(const Checkpoint& c, const std::string& p,
                           LocaleGrid& grid, Index n) {
  SsspState st{DistDenseVec<double>(grid, n, SsspResult::kUnreachable),
               DistSparseVec<double>(grid, n), {}, false};
  c.get_dense(p + "dist", st.dist);
  c.get_sparse(p + "frontier", st.frontier);
  st.res.rounds = c.get_scalar<int>(p + "rounds");
  st.done = c.get_scalar<bool>(p + "done");
  return st;
}

/// Batch contract: the width and the batch's done flag under `prefix`,
/// then every lane through its solo contract under "<prefix><q>.".
template <typename Batch, typename SaveLane>
void save_batch(const Batch& st, const std::string& prefix, Checkpoint& c,
                SaveLane save_lane) {
  c.put_scalar(prefix + "width", static_cast<Index>(st.lanes.size()));
  c.put_scalar(prefix + "done", st.done);
  for (std::size_t q = 0; q < st.lanes.size(); ++q) {
    save_lane(st.lanes[q], prefix + std::to_string(q) + ".", c);
  }
}

template <typename Batch, typename LoadLane>
Batch load_batch(const Checkpoint& c, const std::string& prefix,
                 LoadLane load_lane) {
  Batch st;
  const auto width = c.get_scalar<Index>(prefix + "width");
  st.done = c.get_scalar<bool>(prefix + "done");
  st.lanes.reserve(static_cast<std::size_t>(width));
  for (Index q = 0; q < width; ++q) {
    st.lanes.push_back(load_lane(c, prefix + std::to_string(q) + "."));
  }
  return st;
}

// -- loop builders ---------------------------------------------------------
// The matrix is captured by pointer: it must outlive the returned loop
// (every caller runs the loop inside the scope that owns the matrix).

template <typename T>
RecoverableLoop<BfsState<T>, BfsResult> bfs_recovery_loop(
    const DistCsr<T>& a, Index source, const SpmspvOptions& opt) {
  auto* ap = &a;
  auto& grid = a.grid();
  const Index n = a.nrows();
  RecoverableLoop<BfsState<T>, BfsResult> loop;
  loop.init = [ap, source] { return bfs_init(*ap, source); };
  loop.step = [ap, opt](BfsState<T>& st) { bfs_step(*ap, st, opt); };
  loop.done = [](const BfsState<T>& st) { return st.done; };
  loop.save = [](const BfsState<T>& st, Checkpoint& c) {
    save_bfs(st, "bfs.", c);
  };
  loop.load = [&grid, n](const Checkpoint& c) {
    return load_bfs<T>(c, "bfs.", grid, n);
  };
  loop.static_bytes = matrix_static_bytes(a);
  loop.result = [](BfsState<T>& st) { return std::move(st.res); };
  return loop;
}

/// Fused BFS batch (the service executor's): the whole batch, every
/// lane, snapshots and restores as one loop, so a kill mid-batch replays
/// the fused wave bit-identical to the fault-free batch (whose lanes are
/// themselves byte-identical to solo runs).
template <typename T>
RecoverableLoop<BfsBatchState<T>, std::vector<BfsResult>>
bfs_batch_recovery_loop(const DistCsr<T>& a,
                        const std::vector<Index>& sources,
                        const SpmspvOptions& opt) {
  auto* ap = &a;
  auto& grid = a.grid();
  const Index n = a.nrows();
  RecoverableLoop<BfsBatchState<T>, std::vector<BfsResult>> loop;
  loop.init = [ap, sources] { return bfs_batch_init(*ap, sources); };
  loop.step = [ap, opt](BfsBatchState<T>& st) {
    bfs_batch_step(*ap, st, opt);
  };
  loop.done = [](const BfsBatchState<T>& st) { return st.done; };
  loop.save = [](const BfsBatchState<T>& st, Checkpoint& c) {
    save_batch(st, "bfsb.", c, save_bfs<T>);
  };
  loop.load = [&grid, n](const Checkpoint& c) {
    return load_batch<BfsBatchState<T>>(
        c, "bfsb.", [&](const Checkpoint& cc, const std::string& p) {
          return load_bfs<T>(cc, p, grid, n);
        });
  };
  loop.static_bytes = matrix_static_bytes(a);
  loop.result = [](BfsBatchState<T>& st) {
    std::vector<BfsResult> out;
    out.reserve(st.lanes.size());
    for (auto& ln : st.lanes) out.push_back(std::move(ln.res));
    return out;
  };
  return loop;
}

template <typename T>
RecoverableLoop<SsspState, SsspResult> sssp_recovery_loop(
    const DistCsr<T>& a, Index source, const SpmspvOptions& opt) {
  auto* ap = &a;
  auto& grid = a.grid();
  const Index n = a.nrows();
  RecoverableLoop<SsspState, SsspResult> loop;
  loop.init = [ap, source] { return sssp_init(*ap, source); };
  loop.step = [ap, opt](SsspState& st) { sssp_step(*ap, st, opt); };
  loop.done = [](const SsspState& st) { return st.done; };
  loop.save = [](const SsspState& st, Checkpoint& c) {
    save_sssp(st, "sssp.", c);
  };
  loop.load = [&grid, n](const Checkpoint& c) {
    return load_sssp(c, "sssp.", grid, n);
  };
  loop.static_bytes = matrix_static_bytes(a);
  loop.result = [](SsspState& st) { return sssp_finalize(st); };
  return loop;
}

/// Fused SSSP batch, with the same contract as bfs_batch_recovery_loop.
template <typename T>
RecoverableLoop<SsspBatchState, std::vector<SsspResult>>
sssp_batch_recovery_loop(const DistCsr<T>& a,
                         const std::vector<Index>& sources,
                         const SpmspvOptions& opt) {
  auto* ap = &a;
  auto& grid = a.grid();
  const Index n = a.nrows();
  RecoverableLoop<SsspBatchState, std::vector<SsspResult>> loop;
  loop.init = [ap, sources] { return sssp_batch_init(*ap, sources); };
  loop.step = [ap, opt](SsspBatchState& st) { sssp_batch_step(*ap, st, opt); };
  loop.done = [](const SsspBatchState& st) { return st.done; };
  loop.save = [](const SsspBatchState& st, Checkpoint& c) {
    save_batch(st, "ssspb.", c, save_sssp);
  };
  loop.load = [&grid, n](const Checkpoint& c) {
    return load_batch<SsspBatchState>(
        c, "ssspb.", [&](const Checkpoint& cc, const std::string& p) {
          return load_sssp(cc, p, grid, n);
        });
  };
  loop.static_bytes = matrix_static_bytes(a);
  loop.result = [](SsspBatchState& st) {
    std::vector<SsspResult> out;
    out.reserve(st.lanes.size());
    for (auto& ln : st.lanes) out.push_back(sssp_finalize(ln));
    return out;
  };
  return loop;
}

template <typename T>
RecoverableLoop<PagerankState<T>, PagerankResult> pagerank_recovery_loop(
    const DistCsr<T>& a, double damping, double tol, int max_iters) {
  auto* ap = &a;
  auto& grid = a.grid();
  const Index n = a.nrows();
  RecoverableLoop<PagerankState<T>, PagerankResult> loop;
  loop.init = [ap] { return pagerank_init(*ap); };
  loop.step = [ap, damping, tol, max_iters](PagerankState<T>& st) {
    pagerank_step(*ap, st, damping, tol, max_iters);
  };
  loop.done = [](const PagerankState<T>& st) { return st.done; };
  loop.save = [](const PagerankState<T>& st, Checkpoint& c) {
    c.put_dense("pagerank.deg", st.deg);
    c.put_dense("pagerank.rank", st.rank);
    c.put_scalar("pagerank.iterations", st.res.iterations);
    c.put_scalar("pagerank.residual", st.res.residual);
    c.put_scalar("pagerank.done", st.done);
  };
  loop.load = [&grid, n](const Checkpoint& c) {
    PagerankState<T> st{DistDenseVec<T>(grid, n, T{}),
                        DistDenseVec<double>(grid, n, 0.0), {}, false};
    c.get_dense("pagerank.deg", st.deg);
    c.get_dense("pagerank.rank", st.rank);
    st.res.iterations = c.get_scalar<int>("pagerank.iterations");
    st.res.residual = c.get_scalar<double>("pagerank.residual");
    st.done = c.get_scalar<bool>("pagerank.done");
    return st;
  };
  loop.static_bytes = matrix_static_bytes(a);
  loop.result = [](PagerankState<T>& st) { return pagerank_finalize(st); };
  return loop;
}

}  // namespace pgb
