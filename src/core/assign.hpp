// GraphBLAS Assign, restricted as in the paper (Section III-B): the
// destination takes on the source's domain and values; both vectors must
// share the same capacity and distribution (every index maps to the same
// locale in both).
//
// Two implementations, mirroring Listings 4 and 5:
//
//  - assign_v1: domain assignment followed by `forall i in DA do
//    A[i] = B[i]`. Sparse arrays cannot be zippered in Chapel 1.14, so
//    every element is accessed *by index*, paying a logarithmic binary
//    search into the sorted sparse domain — and, across locales, that
//    search becomes a chain of dependent remote probes.
//
//  - assign_v2: SPMD. Each locale bulk-copies its local domain block and
//    then zips the local *dense* backing arrays (allowed), eliminating
//    the per-element searches.
#pragma once

#include <algorithm>
#include <cmath>

#include "core/kernel_costs.hpp"
#include "machine/cost.hpp"
#include "runtime/comm_site.hpp"
#include "runtime/locale_grid.hpp"
#include "sparse/dist_sparse_vec.hpp"

namespace pgb {

namespace detail {

template <typename T>
void require_same_shape(const DistSparseVec<T>& a, const DistSparseVec<T>& b) {
  PGB_REQUIRE_SHAPE(a.capacity() == b.capacity(),
                    "assign: capacity mismatch");
  PGB_REQUIRE_SHAPE(&a.grid() == &b.grid(),
                    "assign: operands live on different grids");
}

}  // namespace detail

/// Paper Listing 4 — indexed data-parallel assignment.
template <typename T>
void assign_v1(DistSparseVec<T>& a, const DistSparseVec<T>& b) {
  detail::require_same_shape(a, b);
  auto& grid = a.grid();
  LocaleCtx master(grid, 0);

  for (int l = 0; l < grid.num_locales(); ++l) {
    const auto& src = b.local(l);
    // ---- domain phase: DA.clear(); DA += DB ----
    // Bulk index transfer; cheap relative to the value phase.
    a.local(l).clear();
    a.local(l).domain().add_sorted(src.domain().indices());
    const Index nnz = src.nnz();
    a.local(l).set_values(std::vector<T>(static_cast<std::size_t>(nnz)));
    if (l == master.locale()) {
      CostVector dc;
      dc.add(CostKind::kStreamBytes, 16.0 * static_cast<double>(nnz));
      dc.add(CostKind::kCpuOps,
             kAssignBulkOps * static_cast<double>(nnz));
      master.serial_region(dc);
    } else {
      master.remote_rt(l, 8);
      master.remote_bulk(l, 8 * nnz);
    }
  }

  // ---- value phase: forall i in DA do A[i] = B[i] ----
  for (int l = 0; l < grid.num_locales(); ++l) {
    const auto& src = b.local(l);
    auto& dst = a.local(l);
    const Index nnz = src.nnz();
    // Real work: indexed copy (the find exercises the same binary search
    // the model charges for).
    for (Index p = 0; p < nnz; ++p) {
      const Index i = src.index_at(p);
      const Index pos = dst.domain().find(i);
      PGB_ASSERT(pos >= 0, "assign_v1: destination domain missing index");
      dst.values()[static_cast<std::size_t>(pos)] = src.value_at(p);
    }
    if (nnz == 0) continue;
    const double lognnz =
        nnz > 1 ? std::ceil(std::log2(static_cast<double>(nnz))) : 1.0;
    if (l == master.locale()) {
      CostVector vc;
      // Two indexed accesses per element (read B[i], write A[i]): each is
      // a *dependent* binary-search chain. Upper search levels stay
      // cache-resident, hence the 1.2x log factor rather than 2x.
      vc.add(CostKind::kDependentAccess,
             1.2 * lognnz * static_cast<double>(nnz));
      vc.add(CostKind::kCpuOps,
             kAssignLookupOps * static_cast<double>(nnz));
      vc.add(CostKind::kStreamBytes, 24.0 * static_cast<double>(nnz));
      master.parallel_region(vc);
    } else {
      // Each iteration binary-searches the remote domain: dependent
      // round-trip chain per element.
      master.remote_chain(
          l, nnz, remote_search_rts(static_cast<double>(nnz)) + 1.0, 8);
    }
  }
  grid.barrier_all();
}

/// Paper Listing 5 — SPMD bulk assignment.
template <typename T>
void assign_v2(DistSparseVec<T>& a, const DistSparseVec<T>& b) {
  detail::require_same_shape(a, b);
  auto& grid = a.grid();

  grid.coforall_locales([&](LocaleCtx& ctx) {
    const auto& src = b.local(ctx.locale());
    auto& dst = a.local(ctx.locale());
    const Index nnz = src.nnz();

    // ---- domain phase: locDA.mySparseBlock += locDB.mySparseBlock ----
    dst.clear();
    dst.domain().add_sorted(src.domain().indices());
    CostVector dc;
    dc.add(CostKind::kDependentAccess, static_cast<double>(nnz));
    dc.add(CostKind::kCpuOps, kAssignBulkOps * static_cast<double>(nnz));
    dc.add(CostKind::kStreamBytes, 16.0 * static_cast<double>(nnz));
    ctx.parallel_region(dc);

    // ---- value phase: zippered copy of the dense backing arrays ----
    dst.set_values(std::vector<T>(src.values().begin(), src.values().end()));
    CostVector vc;
    vc.add(CostKind::kCpuOps, kAssignBulkOps * static_cast<double>(nnz));
    vc.add(CostKind::kStreamBytes, 24.0 * static_cast<double>(nnz));
    ctx.parallel_region(vc);
  });

  // "update global nnz of DA": a small reduction over locales.
  LocaleCtx master(grid, 0);
  if (grid.num_locales() > 1) {
    master.remote_rt(1, 8);  // representative leaf of the reduction tree
    grid.clock(0).advance(grid.net().barrier(grid.num_locales()));
  }
  grid.barrier_all();
}

/// Schedule-dispatching entry point. The two listings above are kept
/// verbatim as paper reproductions; this wrapper picks between them.
/// CommMode::kFine forces the indexed Listing-4 path, any other fixed
/// mode the SPMD Listing-5 path, and CommMode::kAuto asks the inspector:
/// the master-driven indexed copy is a single initiator issuing one
/// dependent binary-search chain per remote element, so the site's
/// footprint prices that chain against one bulk block copy per locale.
template <typename T>
void assign(DistSparseVec<T>& a, const DistSparseVec<T>& b,
            CommMode comm = CommMode::kBulk) {
  detail::require_same_shape(a, b);
  auto& grid = a.grid();
  const int nloc = grid.num_locales();
  const int pairs = nloc - 1;
  CommSite site(grid,
                {.name = "assign.same_shape",
                 .shape = SiteShape::kRoute,
                 .bytes_each = 8,
                 .fanout = std::max(pairs, 1)},
                comm, kAggCapacity, [&](SiteFootprint& fp) {
                  std::int64_t remote_nnz = 0;
                  for (int l = 1; l < nloc; ++l) remote_nnz += b.local(l).nnz();
                  fp.add_initiator(pairs, remote_nnz);  // the master's load
                  fp.chain_rts =
                      remote_search_rts(pairs > 0
                                            ? static_cast<double>(remote_nnz) /
                                                  static_cast<double>(pairs)
                                            : 0.0) +
                      1.0;
                });
  if (site.strategy() == SiteStrategy::kFine) {
    assign_v1(a, b);
  } else {
    assign_v2(a, b);
  }
  site.end_wave();
}

}  // namespace pgb
