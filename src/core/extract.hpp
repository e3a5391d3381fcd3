// GraphBLAS Extract (restricted like the paper's Assign): pull out the
// sub-vector of x whose indices fall in [lo, hi).
//
// extract_range keeps global indices and the original distribution, so
// entries never move — no communication. extract_compact re-bases the
// range to a vector of capacity hi-lo, which redistributes every entry
// to its new owner; that routing supports the fine / bulk / aggregated
// schedules (CommMode).
#pragma once

#include <cmath>

#include "core/kernel_costs.hpp"
#include "machine/cost.hpp"
#include "obs/span.hpp"
#include "runtime/comm_site.hpp"
#include "runtime/locale_grid.hpp"
#include "sparse/dist_sparse_vec.hpp"
#include "util/sorting.hpp"

namespace pgb {

template <typename T>
DistSparseVec<T> extract_range(const DistSparseVec<T>& x, Index lo,
                               Index hi) {
  PGB_REQUIRE(lo >= 0 && hi <= x.capacity() && lo <= hi,
              "extract: bad range");
  auto& grid = x.grid();
  DistSparseVec<T> z(grid, x.capacity());

  grid.coforall_locales([&](LocaleCtx& ctx) {
    const int l = ctx.locale();
    const auto& lx = x.local(l);
    std::vector<Index> idx;
    std::vector<T> val;
    for (Index p = 0; p < lx.nnz(); ++p) {
      const Index i = lx.index_at(p);
      if (i >= lo && i < hi) {
        idx.push_back(i);
        val.push_back(lx.value_at(p));
      }
    }
    CostVector c;
    c.add(CostKind::kCpuOps,
          kApplyOpsPerElem * static_cast<double>(lx.nnz()));
    c.add(CostKind::kStreamBytes, 16.0 * static_cast<double>(lx.nnz()) +
                                      24.0 * static_cast<double>(idx.size()));
    ctx.parallel_region(c);
    z.local(l) = SparseVec<T>::from_sorted(lx.capacity(), std::move(idx),
                                           std::move(val));
  });
  return z;
}

/// Z[i - lo] = X[i] for every entry of x in [lo, hi); Z has capacity
/// hi - lo and the standard 1-D block distribution, so each selected
/// entry is routed to its new owner.
template <typename T>
DistSparseVec<T> extract_compact(const DistSparseVec<T>& x, Index lo,
                                 Index hi, CommMode comm = CommMode::kBulk,
                                 std::int64_t agg_capacity = kAggCapacity) {
  PGB_REQUIRE(lo >= 0 && hi <= x.capacity() && lo <= hi,
              "extract_compact: bad range");
  auto& grid = x.grid();
  const int nloc = grid.num_locales();
  grid.metrics().counter("kernel.calls", {{"kernel", "extract_compact"}}).inc();
  PGB_TRACE_SPAN(grid, "extract.compact");
  DistSparseVec<T> z(grid, hi - lo);

  // Selected counts aren't known before the scan: under kAuto the range
  // fraction of x's nonzeros, split evenly over the initiators, is the
  // load every candidate schedule is priced from.
  CommSite site(
      grid, {.name = "extract.compact", .shape = SiteShape::kRoute},
      comm, agg_capacity, [&](SiteFootprint& fp) {
        std::int64_t x_nnz = 0;
        for (int l = 0; l < nloc; ++l) x_nnz += x.local(l).nnz();
        const double frac = x.capacity() > 0
                                ? static_cast<double>(hi - lo) /
                                      static_cast<double>(x.capacity())
                                : 0.0;
        const std::int64_t est =
            std::llround(static_cast<double>(x_nnz) * frac);
        for (int l = 0; l < nloc; ++l) {
          fp.add_initiator(nloc - 1, est / nloc + (l < est % nloc ? 1 : 0));
        }
      });
  // The agg.* family is part of extract_compact's metric key set under
  // every schedule, not only when a flush happens.
  grid.agg_metrics();

  struct Entry {
    Index j;  ///< re-based index in [0, hi - lo)
    T v;
  };
  std::vector<std::vector<Index>> z_idx(static_cast<std::size_t>(nloc));
  std::vector<std::vector<T>> z_val(static_cast<std::size_t>(nloc));
  grid.coforall_locales([&](LocaleCtx& ctx) {
    const auto& lx = x.local(ctx.locale());
    auto out = site.scatter<Entry>(ctx, [&](int o, const Entry& e) {
      z_idx[static_cast<std::size_t>(o)].push_back(e.j);
      z_val[static_cast<std::size_t>(o)].push_back(e.v);
    });
    Index selected = 0;
    for (Index p = 0; p < lx.nnz(); ++p) {
      const Index i = lx.index_at(p);
      if (i < lo || i >= hi) continue;
      ++selected;
      out.push(z.dist().owner(i - lo), Entry{i - lo, lx.value_at(p)});
    }
    CostVector c;
    c.add(CostKind::kCpuOps, kApplyOpsPerElem * static_cast<double>(lx.nnz()));
    c.add(CostKind::kStreamBytes, 16.0 * static_cast<double>(lx.nnz()) +
                                      24.0 * static_cast<double>(selected));
    out.finish(c);
  });
  grid.barrier_all();
  site.end_wave();

  // Each new owner sorts and installs its batch (senders are visited in
  // locale order, so per-owner batches arrive nearly sorted).
  grid.coforall_locales([&](LocaleCtx& ctx) {
    const int o = ctx.locale();
    auto& idx = z_idx[static_cast<std::size_t>(o)];
    auto& val = z_val[static_cast<std::size_t>(o)];
    sort_pairs_by_index(idx, val);
    CostVector c;
    c.add(CostKind::kCpuOps, 12.0 * static_cast<double>(idx.size()));
    c.add(CostKind::kStreamBytes, 24.0 * static_cast<double>(idx.size()));
    ctx.parallel_region(c);
    z.local(o) = SparseVec<T>::from_sorted(z.dist().local_size(o),
                                           std::move(idx), std::move(val));
  });
  grid.barrier_all();
  return z;
}

}  // namespace pgb
