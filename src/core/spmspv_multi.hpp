// Fused multi-source SpMSpV: Y <- X A for a column-blocked frontier
// block X of k sparse vectors (n x k, k = batch width), on a semiring.
//
// This is the batching economy of CombBLAS 2.0's fused multi-vector
// traversals (and LAGraph's batched BC) brought to the serving layer:
// when k independent single-source queries traverse the *same* graph
// epoch, their per-level frontier exchanges share one communication
// schedule. The gather pulls every query's frontier piece from a source
// locale in one transfer set (one size round trip per (reader, source)
// pair instead of k), the scatter ships per-destination batches tagged
// with a query lane id (one bulk/flush sequence per destination instead
// of k), and the comm-mode decision — fine/bulk/agg, or the inspector's
// per-site pricing under CommMode::kAuto — is priced and paid once per
// level instead of once per user.
//
// Compute is *not* fused: each lane's local multiply, accumulation, and
// owner-side finalize run exactly the solo spmspv_dist code path over
// that lane's data alone, in the same order. Since data always moves
// in-process and the schedules only differ in modeled charging, every
// lane's output vector is byte-identical to what a solo spmspv_dist of
// that lane would produce — the property the service layer's
// batched-vs-solo equivalence tests pin down.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/descriptor.hpp"
#include "core/kernel_costs.hpp"
#include "core/mask.hpp"
#include "core/spmspv.hpp"
#include "obs/span.hpp"
#include "runtime/comm_site.hpp"
#include "runtime/locale_grid.hpp"
#include "sparse/dist_csr.hpp"
#include "sparse/dist_dense_vec.hpp"
#include "sparse/dist_sparse_vec.hpp"
#include "sparse/spa.hpp"

namespace pgb {

namespace detail {

/// One fused-scatter element: lane `q`'s update of output slot `j`.
/// The lane id rides the wire (it is the column coordinate inside the
/// n x k block), so fused updates are honestly larger than solo ones;
/// the win is amortizing messages/flushes/round-trips, not bytes.
template <typename T>
struct MultiUpdate {
  Index j;
  T v;
  std::int32_t q;
};

}  // namespace detail

/// Fused multi-source SpMSpV over the 2-D block distribution.
///
/// `xs` holds the k frontier lanes (all with capacity == a.nrows(), all
/// on a's grid). `masks` is either empty (no masking) or one entry per
/// lane — individual entries may be null (that lane is unmasked);
/// non-null masks filter that lane's output per `mask_mode` inside the
/// owner-side finalize, exactly like spmspv_dist_masked.
///
/// Returns one output vector per lane, each byte-identical to the solo
/// spmspv_dist[_masked] of that lane under any comm schedule.
template <typename TA, typename T, typename SR>
std::vector<DistSparseVec<T>> spmspv_dist_multi(
    const DistCsr<TA>& a, const std::vector<const DistSparseVec<T>*>& xs,
    const std::vector<const DistDenseVec<std::uint8_t>*>& masks,
    MaskMode mask_mode, const SR& sr, const SpmspvOptions& opt = {}) {
  const int k = static_cast<int>(xs.size());
  PGB_REQUIRE(k >= 1, "spmspv_multi: batch must hold at least one lane");
  PGB_REQUIRE(masks.empty() || masks.size() == xs.size(),
              "spmspv_multi: one mask slot per lane (or none)");
  auto& grid = a.grid();
  for (const auto* x : xs) {
    PGB_REQUIRE(x != nullptr, "spmspv_multi: null frontier lane");
    PGB_REQUIRE_SHAPE(x->capacity() == a.nrows(),
                      "spmspv_multi: x capacity must equal matrix rows");
    PGB_REQUIRE_SHAPE(&x->grid() == &grid,
                      "spmspv_multi: operands live on different grids");
  }
  for (const auto* m : masks) {
    if (m != nullptr) {
      PGB_REQUIRE_SHAPE(m->size() == a.ncols(),
                        "spmspv_multi: mask size must equal matrix columns");
    }
  }
  PGB_REQUIRE(!opt.use_collectives,
              "spmspv_multi: collectives schedule not supported");
  PGB_REQUIRE(opt.straggler_shed == 0.0,
              "spmspv_multi: straggler shedding not supported");

  const int pc = grid.cols();
  const int pr = grid.rows();
  const int nloc = grid.num_locales();
  grid.metrics()
      .counter("kernel.calls", {{"kernel", "spmspv_dist_multi"}})
      .inc();
  grid.metrics().histogram("spmspv.multi.width").observe(k);

  using Update = detail::MultiUpdate<T>;

  // ---- Step 1: fused gather along each processor row ----
  // Every lane's piece from source `src` rides the same transfer set:
  // one size round trip per (reader, source) pair for all k lanes, then
  // one chain/bulk/chunk stream of the lanes' combined elements. The
  // frontiers churn every level, so the wave is not read-only: replication
  // could never amortize and stays off the inspector's candidate list.
  CommSite gather_site(
      grid,
      {.name = "spmspv.gather",
       .shape = SiteShape::kGather,
       .bytes_each = 16,
       .fanout = pc,
       .chain_rts = kRemoteElemRts + 1.0,
       .lanes = k},
      opt.gather_comm(), opt.agg, [&](SiteFootprint& fp) {
        detail::add_row_gather_load(grid, fp, [&](int src) {
          std::int64_t elems = 0;
          for (const auto* x : xs) elems += x->local(src).nnz();
          return elems;
        });
      });
  obs::GridSpan gather_span(grid, "spmspv.gather");
  CommStats cs0 = grid.comm_stats();
  // As in spmspv_dist, each processor row's input (per lane) is built
  // once, by the row's first member.
  std::vector<std::vector<SparseVec<T>>> xr(
      static_cast<std::size_t>(k),
      std::vector<SparseVec<T>>(static_cast<std::size_t>(pr)));
  gather_site.coforall([&](LocaleCtx& ctx) {
    const int l = ctx.locale();
    const int prow = grid.locale(l).row;
    auto in = gather_site.gather(ctx);
    for (int i = 0; i < pc; ++i) {
      const int src = prow * pc + i;
      std::int64_t total = 0;
      for (const auto* x : xs) total += x->local(src).nnz();
      in.piece(src, total);
    }
    in.finish();
    if (l == prow * pc) {
      const auto& blk = a.block(l);
      for (int q = 0; q < k; ++q) {
        xr[q][prow] =
            detail::gather_row(*xs[q], prow, pc, blk.rhi - blk.rlo);
      }
    }
  });
  gather_span.end();
  detail::count_phase_comm(grid, "gather", cs0);
  grid.trace().add("gather", gather_site.end_wave());

  // ---- Step 2: per-lane local multiply ----
  // Not fused: lane q's multiply is the exact solo code path over lane
  // q's gathered piece, so lane outputs can't depend on batch-mates.
  obs::GridSpan local_span(grid, "spmspv.local");
  const double t0 = grid.time();
  std::vector<std::vector<SparseVec<T>>> ly(
      static_cast<std::size_t>(k),
      std::vector<SparseVec<T>>(static_cast<std::size_t>(nloc)));
  grid.coforall_compute([&](LocaleCtx& ctx) {
    const int l = ctx.locale();
    const auto& blk = a.block(l);
    const int prow = grid.locale(l).row;
    for (int q = 0; q < k; ++q) {
      ly[q][l] = spmspv_shm(ctx, blk.csr, blk.rlo, xr[q][prow], blk.clo,
                            blk.chi, sr, opt);
    }
  });
  local_span.end();
  grid.trace().add("local", grid.time() - t0);

  // ---- Step 3: fused scatter/accumulate into k 1-D outputs ----
  // Per-destination batches carry every lane's updates, tagged with the
  // lane id (hence the larger element); one packing region or flush
  // sequence per destination covers all k lanes.
  CommSite scatter_site(
      grid,
      {.name = "spmspv.scatter",
       .shape = SiteShape::kAccumulate,
       .bytes_each = static_cast<std::int64_t>(sizeof(Update)),
       .fanout = pr},
      opt.scatter_comm(), opt.agg, [&](SiteFootprint& fp) {
        const std::int64_t pairs = std::min<std::int64_t>(nloc - 1, pr);
        for (int l = 0; l < nloc; ++l) {
          std::int64_t elems = 0;
          for (int q = 0; q < k; ++q) elems += ly[q][l].nnz();
          fp.add_initiator(pairs, elems);
        }
      });
  obs::GridSpan scatter_span(grid, "spmspv.scatter");
  cs0 = grid.comm_stats();
  std::vector<DistSparseVec<T>> y;
  y.reserve(static_cast<std::size_t>(k));
  for (int q = 0; q < k; ++q) y.emplace_back(grid, a.ncols());
  // Lanes are charged lane-major, as per-element pushes would be; the
  // runs of every lane share the per-destination flush sequence.
  scatter_site.coforall([&](LocaleCtx& ctx) {
    const int l = ctx.locale();
    auto out = scatter_site.scatter<Update>(ctx);
    for (int q = 0; q < k; ++q) {
      out.push_sorted(q, ly[q][l].domain().indices(), y[q].dist());
    }
    out.finish();
  });
  // Accumulate and finalize each lane at its owners — the solo order of
  // adds per slot (lanes never share a SPA) and the solo finalize, hence
  // byte-identical lane outputs.
  scatter_site.group_runs();
  grid.coforall_compute([&](LocaleCtx& ctx) {
    const int o = ctx.locale();
    std::vector<Spa<T>> spa;
    spa.reserve(static_cast<std::size_t>(k));
    for (int q = 0; q < k; ++q) {
      spa.emplace_back(y[q].dist().lo(o), y[q].dist().hi(o));
    }
    detail::accumulate_runs(
        scatter_site, o, spa.data(),
        [&](int q, int l) -> const SparseVec<T>& { return ly[q][l]; }, sr);
    for (int q = 0; q < k; ++q) {
      const DistDenseVec<std::uint8_t>* mask =
          masks.empty() ? nullptr : masks[static_cast<std::size_t>(q)];
      y[q].local(o) = detail::finalize_owner(
          ctx, spa[static_cast<std::size_t>(q)], y[q].dist().local_size(o),
          mask, mask_mode);
    }
  });
  scatter_span.end();
  detail::count_phase_comm(grid, "scatter", cs0);
  grid.trace().add("scatter", scatter_site.end_wave());
  return y;
}

}  // namespace pgb
