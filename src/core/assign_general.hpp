// General GraphBLAS Assign and Extract with index vectors.
//
// The paper implements only the restricted Assign whose domains match
// ("In general, assign is a very powerful primitive that can require
// O((nnz(A)+nnz(B))/sqrt(p)) communication [8]"). This header implements
// the general form for vectors:
//
//   assign_indexed:  A[I[k]] = B[k]   for every nonzero B[k]
//   extract_indexed: Z[k]    = A[I[k]]
//
// I is a global index map (|I| = capacity of B / Z). In distributed
// memory every B entry is routed to the owner of its target index — the
// communication pattern [8] analyzes. The schedule is selectable
// (CommMode): per-element messages, one bulk batch per destination (the
// default), conveyor-style aggregation of `agg_capacity` elements per
// flush, or the inspector's choice (kAuto).
// Entries of A at assigned positions are overwritten; other entries are
// kept (merge semantics) or dropped (replace semantics) per descriptor.
#pragma once

#include <algorithm>
#include <vector>

#include "core/descriptor.hpp"
#include "core/kernel_costs.hpp"
#include "machine/cost.hpp"
#include "obs/span.hpp"
#include "runtime/comm_site.hpp"
#include "runtime/locale_grid.hpp"
#include "sparse/dist_sparse_vec.hpp"

namespace pgb {

/// A[I[k]] = B[k] for every nonzero B[k]. `index_map` must be a
/// duplicate-free mapping into [0, A.capacity()).
template <typename T>
void assign_indexed(DistSparseVec<T>& a, const std::vector<Index>& index_map,
                    const DistSparseVec<T>& b,
                    OutputMode mode = OutputMode::kMerge,
                    CommMode comm = CommMode::kBulk,
                    std::int64_t agg_capacity = kAggCapacity) {
  PGB_REQUIRE_SHAPE(&a.grid() == &b.grid(),
                    "assign_indexed: operands on different grids");
  PGB_REQUIRE(static_cast<Index>(index_map.size()) == b.capacity(),
              "assign_indexed: index map must cover B's capacity");
  for (Index tgt : index_map) {
    PGB_REQUIRE(tgt >= 0 && tgt < a.capacity(),
                "assign_indexed: index map out of range");
  }
  auto& grid = a.grid();
  const int nloc = grid.num_locales();
  grid.metrics().counter("kernel.calls", {{"kernel", "assign_indexed"}}).inc();
  PGB_TRACE_SPAN(grid, "assign.indexed");

  // A write-routing site: fine/bulk/agg only (writes can't replicate).
  // Destinations depend on the index map, so under kAuto each initiator
  // is priced against every other locale.
  CommSite site(grid, {.name = "assign.indexed", .shape = SiteShape::kRoute},
                comm, agg_capacity, [&](SiteFootprint& fp) {
                  for (int l = 0; l < nloc; ++l) {
                    fp.add_initiator(nloc - 1, b.local(l).nnz());
                  }
                });

  // Route (target index, value) records to their owner locale.
  struct Entry {
    Index tgt;
    T v;
  };
  std::vector<std::vector<Index>> out_idx(static_cast<std::size_t>(nloc));
  std::vector<std::vector<T>> out_val(static_cast<std::size_t>(nloc));
  grid.coforall_locales([&](LocaleCtx& ctx) {
    const auto& lb = b.local(ctx.locale());
    auto out = site.scatter<Entry>(ctx, [&](int o, const Entry& e) {
      out_idx[static_cast<std::size_t>(o)].push_back(e.tgt);
      out_val[static_cast<std::size_t>(o)].push_back(e.v);
    });
    for (Index p = 0; p < lb.nnz(); ++p) {
      const Index tgt = index_map[static_cast<std::size_t>(lb.index_at(p))];
      PGB_REQUIRE(tgt >= 0 && tgt < a.capacity(),
                  "assign_indexed: index map out of range");
      out.push(a.owner(tgt), Entry{tgt, lb.value_at(p)});
    }
    CostVector c;
    c.add(CostKind::kCpuOps, kEwiseOpsPerElem * static_cast<double>(lb.nnz()));
    c.add(CostKind::kRandAccess, static_cast<double>(lb.nnz()));
    c.add(CostKind::kStreamBytes, 32.0 * static_cast<double>(lb.nnz()));
    out.finish(c);
  });
  grid.barrier_all();
  site.end_wave();

  // Each owner merges its batch into the local block.
  grid.coforall_locales([&](LocaleCtx& ctx) {
    const int l = ctx.locale();
    auto& idx = out_idx[static_cast<std::size_t>(l)];
    auto& val = out_val[static_cast<std::size_t>(l)];
    sort_pairs_by_index(idx, val);
    auto& la = a.local(l);

    std::vector<Index> merged_idx;
    std::vector<T> merged_val;
    const Index old_nnz = la.nnz();
    std::size_t i = 0;  // old entries
    std::size_t j = 0;  // incoming entries
    while (i < static_cast<std::size_t>(old_nnz) || j < idx.size()) {
      const bool take_new =
          i >= static_cast<std::size_t>(old_nnz) ||
          (j < idx.size() && idx[j] <= la.index_at(static_cast<Index>(i)));
      if (take_new && j < idx.size()) {
        if (i < static_cast<std::size_t>(old_nnz) &&
            la.index_at(static_cast<Index>(i)) == idx[j]) {
          ++i;  // overwritten
        }
        merged_idx.push_back(idx[j]);
        merged_val.push_back(val[j]);
        ++j;
      } else {
        if (mode == OutputMode::kMerge) {
          merged_idx.push_back(la.index_at(static_cast<Index>(i)));
          merged_val.push_back(la.value_at(static_cast<Index>(i)));
        }
        ++i;
      }
    }
    CostVector c;
    const double work =
        static_cast<double>(old_nnz) + static_cast<double>(idx.size()) +
        merge_sort_cost(static_cast<Index>(idx.size())).get(
            CostKind::kCpuOps) /
            120.0;  // sort of the incoming batch, tight-loop variant
    c.add(CostKind::kCpuOps, kAssignBulkOps * work);
    c.add(CostKind::kStreamBytes, 32.0 * work);
    ctx.parallel_region(c);

    la = SparseVec<T>::from_sorted(la.capacity(), std::move(merged_idx),
                                   std::move(merged_val));
  });
  grid.barrier_all();
}

/// Z[k] = A[I[k]] for every k where A has an entry at I[k]; Z has
/// capacity |I|. The dual routing pattern: each requested index is pulled
/// from its owner — per-element round trips (kFine), one request/response
/// batch per source (kBulk, default), or capacity-sized SrcAggregator
/// flushes (kAggregated).
template <typename T>
DistSparseVec<T> extract_indexed(const DistSparseVec<T>& a,
                                 const std::vector<Index>& index_map,
                                 CommMode comm = CommMode::kBulk,
                                 std::int64_t agg_capacity = kAggCapacity) {
  auto& grid = a.grid();
  const int nloc = grid.num_locales();
  grid.metrics().counter("kernel.calls", {{"kernel", "extract_indexed"}}).inc();
  PGB_TRACE_SPAN(grid, "extract.indexed");
  const Index zcap = static_cast<Index>(index_map.size());
  DistSparseVec<T> z(grid, zcap);

  // A read-only pull site — the natural home of kReplicate: ship each
  // pulled-from block once per reader host, serve every pull as a local
  // binary search, and let repeated extracts against an unchanged A hit
  // the replica cache outright. The content fingerprint evicts a replica
  // when A changes; a membership remap flushes them all.
  CommSite site(
      grid,
      {.name = "extract.indexed",
       .shape = SiteShape::kPull,
       .bytes_each = 24,  // 8 request + 16 response per pull
       .read_only = true},
      comm, agg_capacity, [&](SiteFootprint& fp) {
        std::int64_t a_nnz = 0;
        for (int o = 0; o < nloc; ++o) a_nnz += a.local(o).nnz();
        fp.chain_rts =
            remote_search_rts(static_cast<double>(a_nnz) / std::max(1, nloc));
        for (int l = 0; l < nloc; ++l) {
          fp.add_initiator(nloc - 1, z.dist().local_size(l));
        }
        // Replicating ships whole blocks the pulls only probe.
        fp.block_bytes = 24 * a_nnz;
      });

  // For each output position k (owned by Z's distribution), look up
  // A[I[k]] at its owner.
  struct Req {
    Index k;
    Index src;
  };
  std::vector<std::vector<Index>> z_idx(static_cast<std::size_t>(nloc));
  std::vector<std::vector<T>> z_val(static_cast<std::size_t>(nloc));
  grid.coforall_locales([&](LocaleCtx& ctx) {
    const int l = ctx.locale();
    auto& zi = z_idx[static_cast<std::size_t>(l)];
    auto& zv = z_val[static_cast<std::size_t>(l)];
    auto pulls = site.pull<Req>(ctx, [&](int o, const Req& r) {
      const T* v = a.local(o).find(r.src);
      if (v != nullptr) {
        zi.push_back(r.k);
        zv.push_back(*v);
      }
    });
    for (Index k = z.dist().lo(l); k < z.dist().hi(l); ++k) {
      const Index src = index_map[static_cast<std::size_t>(k)];
      PGB_REQUIRE(src >= 0 && src < a.capacity(),
                  "extract_indexed: index map out of range");
      pulls.get(a.owner(src), Req{k, src});
    }
    const Index span = z.dist().local_size(l);
    CostVector c;
    c.add(CostKind::kCpuOps, kAssignLookupOps * static_cast<double>(span));
    c.add(CostKind::kStreamBytes, 24.0 * static_cast<double>(span));
    pulls.finish(c, [&](int o) -> const SparseVec<T>& { return a.local(o); });
    // Aggregated responses arrive batched per owner.
    sort_pairs_by_index(zi, zv);
  });
  grid.barrier_all();
  site.end_wave();

  for (int l = 0; l < nloc; ++l) {
    z.local(l) = SparseVec<T>::from_sorted(
        z.dist().local_size(l), std::move(z_idx[static_cast<std::size_t>(l)]),
        std::move(z_val[static_cast<std::size_t>(l)]));
  }
  return z;
}

}  // namespace pgb
