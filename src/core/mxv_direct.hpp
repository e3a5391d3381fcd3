// Transpose-free distributed mxv using per-block CSC mirrors.
//
// vxm.hpp's mxv materializes A^T — simple but it moves the whole matrix.
// Real GraphBLAS backends keep both orientations of each block instead
// (CSR for vxm, CSC for mxv) and dispatch; this header provides that:
// build the mirror once with make_csc_mirror (paying the conversion),
// then every mxv_direct call runs the column-wise kernel per block with
// the mirrored communication pattern of spmspv_dist:
//
//   gather  x for the block's *column* range,
//   multiply with spmspv_columnwise into the block's *row* range,
//   scatter partial y along processor rows.
#pragma once

#include <vector>

#include "core/spmspv.hpp"
#include "core/spmspv_cw.hpp"
#include "obs/span.hpp"
#include "runtime/comm_site.hpp"
#include "runtime/locale_grid.hpp"
#include "sparse/csc.hpp"
#include "sparse/dist_csr.hpp"

namespace pgb {

/// Per-locale CSC copies of a DistCsr's blocks (column ids local to the
/// block's column range so the CSC is compact).
template <typename T>
struct DistCscMirror {
  std::vector<Csc<T>> blocks;
};

/// Builds (and charges) the CSC mirror: one counting-sort pass per block.
template <typename T>
DistCscMirror<T> make_csc_mirror(const DistCsr<T>& a) {
  auto& grid = a.grid();
  DistCscMirror<T> mirror;
  mirror.blocks.resize(static_cast<std::size_t>(grid.num_locales()));
  grid.coforall_locales([&](LocaleCtx& ctx) {
    const int l = ctx.locale();
    const auto& blk = a.block(l);
    // Rebase column ids to the block range so the CSC has chi-clo
    // columns rather than ncols.
    std::vector<Index> rowptr(blk.csr.rowptr().begin(),
                              blk.csr.rowptr().end());
    std::vector<Index> colids(blk.csr.colids().begin(),
                              blk.csr.colids().end());
    for (Index& c : colids) c -= blk.clo;
    std::vector<T> vals(blk.csr.values().begin(), blk.csr.values().end());
    auto rebased = Csr<T>::from_parts(blk.csr.nrows(), blk.chi - blk.clo,
                                      std::move(rowptr), std::move(colids),
                                      std::move(vals));
    mirror.blocks[static_cast<std::size_t>(l)] = Csc<T>::from_csr(rebased);
    CostVector c;
    c.add(CostKind::kStreamBytes, 48.0 * static_cast<double>(blk.csr.nnz()));
    c.add(CostKind::kRandAccess, static_cast<double>(blk.csr.nnz()));
    c.add(CostKind::kCpuOps, 16.0 * static_cast<double>(blk.csr.nnz()));
    ctx.parallel_region(c);
  });
  return mirror;
}

/// y = A x without materializing A^T. TA and T as in spmspv_dist.
template <typename TA, typename T, typename SR>
DistSparseVec<T> mxv_direct(const DistCsr<TA>& a,
                            const DistCscMirror<TA>& mirror,
                            const DistSparseVec<T>& x, const SR& sr,
                            const SpmspvOptions& opt = {}) {
  PGB_REQUIRE_SHAPE(x.capacity() == a.ncols(),
                    "mxv: x capacity must equal matrix columns");
  PGB_REQUIRE_SHAPE(&x.grid() == &a.grid(),
                    "mxv: operands live on different grids");
  auto& grid = a.grid();
  const int pr = grid.rows();
  const int pc = grid.cols();
  const int nloc = grid.num_locales();
  PGB_REQUIRE(static_cast<int>(mirror.blocks.size()) == nloc,
              "mxv: mirror does not match the grid");
  grid.metrics().counter("kernel.calls", {{"kernel", "mxv_direct"}}).inc();

  // ---- gather x for each block's column range ----
  // The pr locales of one processor column read from the same x owners.
  // Footprints use the unfiltered piece sizes (a cheap pre-wave upper
  // bound); replication ships whole pieces, of which the range filter may
  // read only a slice.
  CommSite gather_site(
      grid,
      {.name = "mxv.gather",
       .shape = SiteShape::kGather,
       .bytes_each = 16,
       .fanout = pr,
       .read_only = true,
       .chain_rts = kRemoteElemRts + 1.0},
      opt.gather_comm(), opt.agg, [&](SiteFootprint& fp) {
        for (int l = 0; l < nloc; ++l) {
          const auto& blk = a.block(l);
          if (blk.chi <= blk.clo) continue;
          const int last = x.owner(blk.chi - 1);
          std::int64_t elems = 0;
          std::int64_t pairs = 0;
          for (int src = x.owner(blk.clo); src <= last; ++src) {
            if (src == l) continue;
            ++pairs;
            elems += x.local(src).nnz();
          }
          fp.add_initiator(pairs, elems);
        }
      });
  obs::GridSpan gather_span(grid, "mxv.gather");
  std::vector<SparseVec<T>> xc(static_cast<std::size_t>(nloc));
  gather_site.coforall([&](LocaleCtx& ctx) {
    const int l = ctx.locale();
    const auto& blk = a.block(l);
    std::vector<Index> idx;
    std::vector<T> val;
    auto in = gather_site.gather(ctx);
    // Owners of [clo, chi) under x's 1-D distribution.
    const int first = blk.chi > blk.clo ? x.owner(blk.clo) : 0;
    const int last = blk.chi > blk.clo ? x.owner(blk.chi - 1) : -1;
    for (int src = first; src <= last; ++src) {
      const auto& piece = x.local(src);
      Index piece_cnt = 0;
      for (Index p = 0; p < piece.nnz(); ++p) {
        const Index i = piece.index_at(p);
        if (i >= blk.clo && i < blk.chi) {
          idx.push_back(i);
          val.push_back(piece.value_at(p));
          ++piece_cnt;
        }
      }
      in.piece(src, piece_cnt, piece);
    }
    in.finish();
    xc[static_cast<std::size_t>(l)] = SparseVec<T>::from_sorted(
        blk.chi - blk.clo, std::move(idx), std::move(val));
  });
  gather_span.end();
  grid.trace().add("gather", gather_site.end_wave());

  // ---- local column-wise multiply into the block's row range ----
  obs::GridSpan local_span(grid, "mxv.local");
  const double t0 = grid.time();
  std::vector<SparseVec<T>> ly(static_cast<std::size_t>(nloc));
  grid.coforall_compute([&](LocaleCtx& ctx) {
    const int l = ctx.locale();
    const auto& blk = a.block(l);
    ly[static_cast<std::size_t>(l)] = spmspv_columnwise(
        ctx, mirror.blocks[static_cast<std::size_t>(l)], blk.clo,
        xc[static_cast<std::size_t>(l)], blk.rlo, sr, opt);
  });
  local_span.end();
  grid.trace().add("local", grid.time() - t0);

  // ---- scatter/accumulate into the 1-D result over [0, nrows) ----
  // The mirror of spmspv_dist's scatter: the pc locales of one processor
  // row drain into the owners of their row range.
  CommSite scatter_site(
      grid,
      {.name = "mxv.scatter",
       .shape = SiteShape::kAccumulate,
       .bytes_each = 16,
       .fanout = pc},
      opt.scatter_comm(), opt.agg, [&](SiteFootprint& fp) {
        const std::int64_t pairs = std::min<std::int64_t>(nloc - 1, pc);
        for (int l = 0; l < nloc; ++l) {
          fp.add_initiator(pairs, ly[static_cast<std::size_t>(l)].nnz());
        }
      });
  obs::GridSpan scatter_span(grid, "mxv.scatter");
  DistSparseVec<T> y(grid, a.nrows());
  scatter_site.coforall([&](LocaleCtx& ctx) {
    auto out = scatter_site.scatter<detail::Update<T>>(ctx);
    out.push_sorted(
        0, ly[static_cast<std::size_t>(ctx.locale())].domain().indices(),
        y.dist());
    out.finish();
  });
  scatter_site.group_runs();
  grid.coforall_compute([&](LocaleCtx& ctx) {
    const int o = ctx.locale();
    Spa<T> spa(y.dist().lo(o), y.dist().hi(o));
    detail::accumulate_runs(
        scatter_site, o, /*lane=*/0, spa,
        [&](int l) -> const SparseVec<T>& {
          return ly[static_cast<std::size_t>(l)];
        },
        sr);
    y.local(o) = detail::finalize_owner(ctx, spa, y.dist().local_size(o),
                                        nullptr, MaskMode::kNone);
  });
  scatter_span.end();
  grid.trace().add("scatter", scatter_site.end_wave());
  return y;
}

}  // namespace pgb
