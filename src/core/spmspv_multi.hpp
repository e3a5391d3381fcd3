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
#include "runtime/aggregator.hpp"
#include "runtime/locale_grid.hpp"
#include "sparse/dist_csr.hpp"
#include "sparse/dist_dense_vec.hpp"
#include "sparse/dist_sparse_vec.hpp"
#include "sparse/spa.hpp"
#include "util/sorting.hpp"

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

  const int pc = grid.cols();
  const int pr = grid.rows();
  const int nloc = grid.num_locales();
  grid.metrics()
      .counter("kernel.calls", {{"kernel", "spmspv_dist_multi"}})
      .inc();
  grid.metrics().histogram("spmspv.multi.width").observe(k);
  RemapView remap(grid.membership());

  using Update = detail::MultiUpdate<T>;
  constexpr std::int64_t kGatherBytes = 16;
  constexpr auto kScatterBytes =
      static_cast<std::int64_t>(sizeof(Update));

  // Inspector (CommMode::kAuto): one footprint — and one decision — for
  // the whole k-wide wave. Frontier content churns every level, so the
  // replicate strategy can never amortize here; the footprint says
  // read_only=false to take it off the candidate list outright instead
  // of letting the hit-rate feedback rediscover that per batch.
  Inspector* insp =
      opt.comm == CommMode::kAuto ? &grid.inspector() : nullptr;
  SiteDecision gather_dec;
  if (insp != nullptr) {
    SiteFootprint fp;
    fp.bytes_each = kGatherBytes;
    fp.fanout = static_cast<double>(pc);
    fp.chain_rts = kRemoteElemRts + 1.0;
    fp.read_only = false;  // churning frontiers: replication never pays
    fp.gather = true;
    for (int l = 0; l < nloc; ++l) {
      const int prow = grid.locale(l).row;
      std::int64_t elems = 0;
      std::int64_t pairs = 0;
      for (int i = 0; i < pc; ++i) {
        const int src = prow * pc + i;
        if (src == l) continue;
        ++pairs;
        for (int q = 0; q < k; ++q) elems += xs[q]->local(src).nnz();
      }
      fp.pairs += pairs;
      fp.elements += elems;
      if (elems > fp.max_initiator_elements) {
        fp.max_initiator_elements = elems;
        fp.max_initiator_pairs = pairs;
      }
    }
    fp.block_bytes = kGatherBytes * fp.max_initiator_elements;
    gather_dec = insp->decide("spmspv.gather", fp);
  }
  const SiteStrategy gather_strat =
      insp != nullptr        ? gather_dec.strategy
      : opt.aggregated()     ? SiteStrategy::kAggregated
      : opt.gather_is_bulk() ? SiteStrategy::kBulk
                             : SiteStrategy::kFine;

  // ---- Step 1: fused gather along each processor row ----
  // Every lane's piece from source `src` rides the same transfer set:
  // one size round trip per (reader, source) pair, then one
  // chain/bulk/chunk stream of the lanes' combined elements.
  obs::GridSpan gather_span(grid, "spmspv.gather");
  CommStats cs0 = grid.comm_stats();
  double t0 = grid.time();
  std::vector<std::vector<SparseVec<T>>> xr(
      static_cast<std::size_t>(k),
      std::vector<SparseVec<T>>(static_cast<std::size_t>(nloc)));
  grid.coforall_locales([&](LocaleCtx& ctx) {
    const int l = ctx.locale();
    const auto& blk = a.block(l);
    const int prow = grid.locale(l).row;
    std::vector<std::vector<Index>> idx(static_cast<std::size_t>(k));
    std::vector<std::vector<T>> val(static_cast<std::size_t>(k));
    AggConfig gather_cfg = opt.agg;
    gather_cfg.contention = static_cast<double>(pc);
    if (insp != nullptr) gather_cfg.capacity = gather_dec.agg_capacity;
    AggChannel chan(ctx, gather_cfg);
    const int self_host = remap.host(l);
    for (int i = 0; i < pc; ++i) {
      const int src = prow * pc + i;
      std::int64_t total = 0;
      for (int q = 0; q < k; ++q) {
        const auto& piece = xs[q]->local(src);
        idx[q].insert(idx[q].end(), piece.domain().indices().begin(),
                      piece.domain().indices().end());
        val[q].insert(val[q].end(), piece.values().begin(),
                      piece.values().end());
        total += piece.nnz();
      }
      const bool co_hosted = remap.remapped() && remap.host(src) == self_host;
      if (src != l && !co_hosted) {
        // One domain-size round trip covers all k lanes (the batched
        // sizes ride one reply), then the combined payload moves under
        // the wave's single schedule.
        ctx.remote_rt(src, 8 * k);
        if (gather_strat == SiteStrategy::kAggregated) {
          chan.get_elems(src, total, kGatherBytes);
        } else if (gather_strat == SiteStrategy::kBulk) {
          ctx.remote_bulk(src, kGatherBytes * total * pc);
        } else {
          ctx.remote_chain(src, total, kRemoteElemRts + 1.0, kGatherBytes,
                           /*contention=*/static_cast<double>(pc));
        }
      }
    }
    chan.drain();
    for (int q = 0; q < k; ++q) {
      xr[q][l] = SparseVec<T>::from_sorted(
          blk.rhi - blk.rlo, std::move(idx[q]), std::move(val[q]));
    }
  });
  gather_span.end();
  {
    const CommStats cs1 = grid.comm_stats();
    grid.metrics()
        .counter("spmspv.messages", {{"phase", "gather"}})
        .inc(cs1.messages - cs0.messages);
    grid.metrics()
        .counter("spmspv.bytes", {{"phase", "gather"}})
        .inc(cs1.bytes - cs0.bytes);
  }
  if (insp != nullptr) insp->observe("spmspv.gather", grid.time() - t0);
  grid.trace().add("gather", grid.time() - t0);

  // ---- Step 2: per-lane local multiply ----
  // Not fused: lane q's multiply is the exact solo code path over lane
  // q's gathered piece, so lane outputs can't depend on batch-mates.
  obs::GridSpan local_span(grid, "spmspv.local");
  t0 = grid.time();
  std::vector<std::vector<SparseVec<T>>> ly(
      static_cast<std::size_t>(k),
      std::vector<SparseVec<T>>(static_cast<std::size_t>(nloc)));
  grid.coforall_locales([&](LocaleCtx& ctx) {
    const int l = ctx.locale();
    const auto& blk = a.block(l);
    for (int q = 0; q < k; ++q) {
      ly[q][l] = spmspv_shm(ctx, blk.csr, blk.rlo, xr[q][l], blk.clo,
                            blk.chi, sr, opt);
    }
  });
  local_span.end();
  grid.trace().add("local", grid.time() - t0);

  // Fused-scatter footprint: per-destination batches carry every lane's
  // updates, tagged with the lane id (hence the larger element).
  SiteDecision scatter_dec;
  if (insp != nullptr) {
    SiteFootprint fp;
    fp.bytes_each = kScatterBytes;
    fp.fanout = static_cast<double>(pr);
    fp.gather = false;
    fp.bulk_pair_overhead = grid.region_floor();
    for (int l = 0; l < nloc; ++l) {
      std::int64_t elems = 0;
      for (int q = 0; q < k; ++q) elems += ly[q][l].nnz();
      const std::int64_t pairs =
          std::min<std::int64_t>(nloc > 1 ? nloc - 1 : 0, pr);
      fp.pairs += pairs;
      fp.elements += elems;
      if (elems > fp.max_initiator_elements) {
        fp.max_initiator_elements = elems;
        fp.max_initiator_pairs = pairs;
      }
    }
    scatter_dec = insp->decide("spmspv.scatter", fp);
  }
  const SiteStrategy scatter_strat =
      insp != nullptr         ? scatter_dec.strategy
      : opt.aggregated()      ? SiteStrategy::kAggregated
      : opt.scatter_is_bulk() ? SiteStrategy::kBulk
                              : SiteStrategy::kFine;

  // ---- Step 3: fused scatter/accumulate into k 1-D outputs ----
  obs::GridSpan scatter_span(grid, "spmspv.scatter");
  cs0 = grid.comm_stats();
  t0 = grid.time();
  std::vector<DistSparseVec<T>> y;
  y.reserve(static_cast<std::size_t>(k));
  for (int q = 0; q < k; ++q) y.emplace_back(grid, a.ncols());
  // Per-lane accumulators: lane q's per-slot accumulation order is the
  // solo order (lanes never share a SPA slot).
  std::vector<std::vector<Spa<T>>> yspa(static_cast<std::size_t>(k));
  for (int q = 0; q < k; ++q) {
    yspa[static_cast<std::size_t>(q)].reserve(nloc);
    for (int o = 0; o < nloc; ++o) {
      yspa[static_cast<std::size_t>(q)].emplace_back(y[q].dist().lo(o),
                                                     y[q].dist().hi(o));
    }
  }
  grid.coforall_locales([&](LocaleCtx& ctx) {
    const int l = ctx.locale();
    const auto& blk = a.block(l);
    const int self_host = remap.host(l);
    detail::OwnerCounts count_to(y[0].dist(), blk.clo, blk.chi);
    if (scatter_strat == SiteStrategy::kAggregated) {
      // One conveyor channel carries every lane's updates: per-peer FIFO
      // delivery keeps each lane's per-slot order, and a flush amortizes
      // its header across all k lanes.
      AggConfig cfg = opt.agg;
      cfg.contention = static_cast<double>(pr);
      if (insp != nullptr) cfg.capacity = scatter_dec.agg_capacity;
      DstAggregator<Update> agg(
          ctx,
          [&](int peer, std::vector<Update>& batch) {
            for (const auto& u : batch) {
              yspa[u.q][peer].accumulate(u.j, u.v, sr.add);
            }
          },
          cfg);
      for (int q = 0; q < k; ++q) {
        const auto& part = ly[q][l];
        for (Index p = 0; p < part.nnz(); ++p) {
          const Index j = part.index_at(p);
          const int o = y[q].dist().owner(j);
          agg.push(o, Update{j, part.value_at(p),
                             static_cast<std::int32_t>(q)});
          count_to.add(o);
        }
      }
      agg.flush_all();
      CostVector c;
      c.add(CostKind::kRandAccess, static_cast<double>(count_to[l]));
      c.add(CostKind::kCpuOps, 20.0 * static_cast<double>(count_to[l]));
      for (int o = count_to.first(); o < count_to.end(); ++o) {
        if (o == l || count_to[o] == 0) continue;
        if (remap.remapped() && remap.host(o) == self_host) {
          c.add(CostKind::kRandAccess, static_cast<double>(count_to[o]));
          c.add(CostKind::kCpuOps, 20.0 * static_cast<double>(count_to[o]));
          continue;
        }
        c.add(CostKind::kCpuOps, 10.0 * static_cast<double>(count_to[o]));
        c.add(CostKind::kStreamBytes,
              static_cast<double>(kScatterBytes * count_to[o]));
      }
      ctx.parallel_region(c);
      return;
    }
    for (int q = 0; q < k; ++q) {
      const auto& part = ly[q][l];
      for (Index p = 0; p < part.nnz(); ++p) {
        const Index j = part.index_at(p);
        const int o = y[q].dist().owner(j);
        yspa[q][o].accumulate(j, part.value_at(p), sr.add);
        count_to.add(o);
      }
    }
    for (int o = count_to.first(); o < count_to.end(); ++o) {
      if (count_to[o] == 0) continue;
      const bool local_dst =
          o == l || (remap.remapped() && remap.host(o) == self_host);
      if (local_dst) {
        CostVector c;
        c.add(CostKind::kRandAccess, static_cast<double>(count_to[o]));
        c.add(CostKind::kCpuOps, 20.0 * static_cast<double>(count_to[o]));
        ctx.parallel_region(c);
      } else if (scatter_strat == SiteStrategy::kBulk) {
        CostVector c;  // one packing region covers all k lanes' batch
        c.add(CostKind::kCpuOps, 10.0 * static_cast<double>(count_to[o]));
        c.add(CostKind::kStreamBytes,
              static_cast<double>(kScatterBytes * count_to[o]));
        ctx.parallel_region(c);
        ctx.remote_bulk(o, kScatterBytes * count_to[o] * pr);
      } else {
        ctx.remote_msgs(o, count_to[o], kScatterBytes,
                        /*contention=*/static_cast<double>(pr));
      }
    }
  });
  // Finalize each lane at its owners — the exact solo denseToSparse scan
  // (same sort, same mask filter), hence byte-identical lane outputs.
  grid.coforall_locales([&](LocaleCtx& ctx) {
    const int o = ctx.locale();
    for (int q = 0; q < k; ++q) {
      const DistDenseVec<std::uint8_t>* mask =
          masks.empty() ? nullptr : masks[static_cast<std::size_t>(q)];
      auto& spa = yspa[q][o];
      std::vector<Index>& nz = spa.nzinds();
      merge_sort(nz);
      std::vector<Index> idx;
      std::vector<T> val;
      idx.reserve(nz.size());
      val.reserve(nz.size());
      for (Index j : nz) {
        if (mask != nullptr && mask_mode != MaskMode::kNone) {
          const bool set = mask->local(o)[j] != 0;
          if (mask_mode == MaskMode::kMask ? !set : set) continue;
        }
        idx.push_back(j);
        val.push_back(spa.value(j));
      }
      CostVector c;
      if (mask != nullptr) {
        c.add(CostKind::kRandAccess, 0.25 * static_cast<double>(nz.size()));
      }
      c.add(CostKind::kStreamBytes,
            1.0 * static_cast<double>(y[q].dist().local_size(o)));
      c.add(CostKind::kStreamBytes, 24.0 * static_cast<double>(idx.size()));
      c.add(CostKind::kCpuOps, 8.0 * static_cast<double>(idx.size()));
      ctx.parallel_region(c);
      y[q].local(o) = SparseVec<T>::from_sorted(
          y[q].dist().local_size(o), std::move(idx), std::move(val));
    }
  });
  scatter_span.end();
  {
    const CommStats cs1 = grid.comm_stats();
    grid.metrics()
        .counter("spmspv.messages", {{"phase", "scatter"}})
        .inc(cs1.messages - cs0.messages);
    grid.metrics()
        .counter("spmspv.bytes", {{"phase", "scatter"}})
        .inc(cs1.bytes - cs0.bytes);
  }
  if (insp != nullptr) insp->observe("spmspv.scatter", grid.time() - t0);
  grid.trace().add("scatter", grid.time() - t0);
  return y;
}

}  // namespace pgb
