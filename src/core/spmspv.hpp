// Sparse matrix - sparse vector multiplication, y <- x A, on a semiring
// (paper Section III-D, Listings 7 and 8).
//
// Shared memory (spmspv_shm): the SPA algorithm of Gilbert-Moler-Schreiber:
//   1. SPA:    for every nonzero x[r], merge row A[r,:] into the sparse
//              accumulator (dense values + isthere flags + touched count),
//              walking the row as a flat range of the block's arrays;
//   2. Sort:   sort the accumulated output indices (Chapel merge sort by
//              default — the step the paper finds dominant — or the radix
//              sort it suggests as future work). This step is charged,
//              not run: the host reads the same ascending order off the
//              SPA's isthere flags in step 3, which costs less than
//              building the SPA did;
//   3. Output: build the sorted output vector from the SPA.
//
// Distributed memory (spmspv_dist), on the 2-D block distribution:
//   1. Gather:  every locale (R, C) assembles the x entries for row-block
//               R from the pc owners along its processor row. The paper's
//               Listing 8 copies these *element by element* — the
//               fine-grained traffic that ends up dominating (Figs 8-9).
//               opts.comm picks the schedule: kBulk makes one bulk get
//               per piece (the paper's suggested bulk-synchronous
//               remedy), kAggregated and kAuto as in runtime/
//               comm_site.hpp. Each locale is charged its gather; the
//               host builds a row's input once and the row's locales
//               share it.
//   2. Local:   spmspv_shm on the local block.
//   3. Scatter: partial outputs are accumulated into the 1-D distributed
//               result; the paper writes one element at a time into a
//               global atomic "isthere" array. opts.comm picks the
//               schedule here too (kBulk batches per destination; kAuto
//               binds this site apart from the gather). Each initiator
//               is charged its elements; on the host every owner then
//               adds the runs bound for it, in initiator order
//               (runtime/comm_site.hpp).
//
// spmspv_dist_multi runs the same three phases for k frontier lanes at
// once (one wave, detail::spmspv_wave): the lanes share each phase's
// schedule, and each lane's compute reads that lane's data alone.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/descriptor.hpp"
#include "core/kernel_costs.hpp"
#include "machine/cost.hpp"
#include "obs/span.hpp"
#include "runtime/aggregator.hpp"
#include "runtime/collectives.hpp"
#include "runtime/comm_site.hpp"
#include "runtime/locale_grid.hpp"
#include "sparse/dist_csr.hpp"
#include "sparse/dist_dense_vec.hpp"
#include "sparse/dist_sparse_vec.hpp"
#include "sparse/spa.hpp"

namespace pgb {

/// The sort a kSpaSort SpMSpV is charged for. It picks only the modeled
/// cost; the host reads the sorted output off the SPA either way.
enum class SortAlgo {
  kMerge,  ///< Chapel's parallel merge sort (paper default)
  kRadix,  ///< LSD radix sort (paper's suggested improvement [9])
};

enum class SpmspvAlgo {
  /// The paper's Listing 7: one SPA over the whole column range, then
  /// sort the touched indices.
  kSpaSort,
  /// The work-efficient algorithm of the paper's reference [9] (Azad &
  /// Buluç, IPDPS 2017): route nonzeros into cache-resident column
  /// buckets, accumulate per bucket, and emit bucket-by-bucket — output
  /// comes out sorted with *no* global sort step.
  kBucket,
};

struct SpmspvOptions {
  SpmspvAlgo algo = SpmspvAlgo::kSpaSort;
  SortAlgo sort = SortAlgo::kMerge;  ///< sort kSpaSort is charged for
  /// Communication schedule for gather and scatter: fine-grained
  /// element-by-element (the paper's Listing 8), one hand-rolled bulk
  /// transfer per peer, conveyor-style aggregation (per-peer buffers
  /// flushed as capacity-sized bulks; see runtime/aggregator.hpp), or
  /// the inspector's choice, made for each phase on its own.
  CommMode comm = CommMode::kFine;
  /// Elements per aggregator flush when comm == CommMode::kAggregated.
  std::int64_t agg_capacity = kAggCapacity;
  /// Use tree collectives (allgather along processor rows for the input,
  /// reduce-scatter along processor columns for the output) instead of
  /// point-to-point transfers — the facility the paper's Section IV asks
  /// Chapel to provide. Overrides every other comm setting.
  bool use_collectives = false;
  /// Straggler work-shedding (opt-in, 0 disables): when a locale's host
  /// has been flagged a barrier straggler (LocaleGrid straggler
  /// detection), this fraction of its local-multiply time is shed to the
  /// fastest non-straggler locale in the same processor row. The helper
  /// pays the shed compute time *and* pulls the shed share of the
  /// gathered inputs (thief-pays work stealing). Results are unchanged —
  /// only modeled charging moves between clocks.
  double straggler_shed = 0.0;

  /// Convenience for sweeps: this options set with another schedule.
  SpmspvOptions with_comm(CommMode m) const {
    SpmspvOptions o = *this;
    o.comm = m;
    return o;
  }
};


namespace detail {

/// Bucket SpMSpV (SpmspvAlgo::kBucket). Buckets are sized to stay
/// cache-resident (~4K columns each); routing is a streaming pass and
/// per-bucket accumulation is a dense scan of a small slice, so the
/// global sort of the SPA algorithm disappears entirely.
template <typename TA, typename T, typename SR>
SparseVec<T> spmspv_shm_bucket(LocaleCtx& ctx, const Csr<TA>& a,
                               Index row_lo, const SparseVec<T>& x,
                               Index col_lo, Index col_hi, const SR& sr,
                               Trace* trace) {
  constexpr Index kBucketWidth = 4096;
  const Index ncols = col_hi - col_lo;
  const Index nbuckets = std::max<Index>(1, (ncols + kBucketWidth - 1) /
                                                kBucketWidth);

  // ---- Step 1: route (column, value) pairs into buckets ----
  obs::LocaleSpan route_span(ctx, "spmspv.route");
  double t0 = ctx.clock().now();
  std::vector<std::vector<std::pair<Index, T>>> buckets(
      static_cast<std::size_t>(nbuckets));
  Index visited = 0;
  for (Index p = 0; p < x.nnz(); ++p) {
    const Index r = x.index_at(p) - row_lo;
    PGB_ASSERT(r >= 0 && r < a.nrows(), "spmspv: x index out of row range");
    const T& xv = x.value_at(p);
    auto cols = a.row_colids(r);
    auto vals = a.row_values(r);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const Index b = (cols[k] - col_lo) / kBucketWidth;
      buckets[static_cast<std::size_t>(b)].emplace_back(
          cols[k], sr.multiply(xv, static_cast<T>(vals[k])));
    }
    visited += static_cast<Index>(cols.size());
  }
  {
    CostVector c;
    // Streaming read of the selected rows plus a mostly-sequential append
    // per nonzero (per-thread sub-buckets: no atomics). Routing touches
    // nbuckets append cursors — cache-resident.
    c.add(CostKind::kRandAccess, 2.0 * static_cast<double>(x.nnz()));
    c.add(CostKind::kCpuOps, kSpaOpsPerRow * static_cast<double>(x.nnz()));
    c.add(CostKind::kStreamBytes, 32.0 * static_cast<double>(visited));
    c.add(CostKind::kCpuOps, 25.0 * static_cast<double>(visited));
    ctx.parallel_region(c);
  }
  route_span.end();
  if (trace) trace->add("spa", ctx.clock().now() - t0);
  if (trace) trace->add("sort", 0.0);  // there is no sort step

  // ---- Step 2: per-bucket dense accumulation, emitted in order ----
  obs::LocaleSpan emit_span(ctx, "spmspv.emit");
  t0 = ctx.clock().now();
  std::vector<Index> idx;
  std::vector<T> val;
  std::vector<T> slot(static_cast<std::size_t>(
      std::min<Index>(kBucketWidth, ncols)));
  BitVector there(std::min<Index>(kBucketWidth, ncols));
  double scanned_bytes = 0.0;
  for (Index b = 0; b < nbuckets; ++b) {
    auto& bucket = buckets[static_cast<std::size_t>(b)];
    if (bucket.empty()) continue;
    const Index blo = col_lo + b * kBucketWidth;
    const Index bhi = std::min(col_hi, blo + kBucketWidth);
    for (const auto& [j, v] : bucket) {
      const Index off = j - blo;
      if (there.test_and_set(off)) {
        slot[static_cast<std::size_t>(off)] = v;
      } else {
        slot[static_cast<std::size_t>(off)] =
            sr.combine(slot[static_cast<std::size_t>(off)], v);
      }
    }
    for (Index j = blo; j < bhi; ++j) {
      if (there.get(j - blo)) {
        idx.push_back(j);
        val.push_back(slot[static_cast<std::size_t>(j - blo)]);
        there.clear(j - blo);
      }
    }
    scanned_bytes += static_cast<double>(bhi - blo);
  }
  {
    CostVector c;
    // Accumulation hits a cache-resident slice (cheap "random" access)
    // and the emit pass streams each touched bucket's range once.
    c.add(CostKind::kCpuOps, 14.0 * static_cast<double>(visited));
    c.add(CostKind::kStreamBytes, 16.0 * static_cast<double>(visited) +
                                      scanned_bytes +
                                      24.0 * static_cast<double>(idx.size()));
    c.add(CostKind::kCpuOps, 6.0 * static_cast<double>(idx.size()));
    ctx.parallel_region(c);
  }
  if (trace) trace->add("output", ctx.clock().now() - t0);

  return SparseVec<T>::from_sorted(col_hi - col_lo, std::move(idx),
                                   std::move(val));
}

}  // namespace detail

/// Shared-memory SpMSpV over one CSR block.
///
/// x's indices are global row ids in [row_lo, row_lo + a.nrows()); a's
/// column ids are global within [col_lo, col_hi). The result's indices
/// are global column ids; its capacity is col_hi - col_lo.
///
/// If `trace` is given, phase times are recorded under "spa", "sort",
/// "output" (Fig 7's components).
template <typename TA, typename T, typename SR>
SparseVec<T> spmspv_shm(LocaleCtx& ctx, const Csr<TA>& a, Index row_lo,
                        const SparseVec<T>& x, Index col_lo, Index col_hi,
                        const SR& sr, const SpmspvOptions& opt = {},
                        Trace* trace = nullptr) {
  PGB_REQUIRE_SHAPE(x.capacity() >= a.nrows(),
                    "spmspv: x capacity must cover the matrix rows");
  if (opt.algo == SpmspvAlgo::kBucket) {
    return detail::spmspv_shm_bucket(ctx, a, row_lo, x, col_lo, col_hi, sr,
                                     trace);
  }
  // ---- Step 1: SPA merge of the selected rows ----
  obs::LocaleSpan spa_span(ctx, "spmspv.spa");
  double t0 = ctx.clock().now();
  Spa<T> spa(col_lo, col_hi);
  Index visited = 0;
  const Index* rowptr = a.rowptr().data();
  const Index* colids = a.colids().data();
  const TA* avals = a.values().data();
  for (Index p = 0; p < x.nnz(); ++p) {
    const Index r = x.index_at(p) - row_lo;
    PGB_ASSERT(r >= 0 && r < a.nrows(), "spmspv: x index out of row range");
    const T xv = x.value_at(p);
    const Index begin = rowptr[r];
    const Index end = rowptr[r + 1];
    for (Index k = begin; k < end; ++k) {
      spa.accumulate(colids[k], sr.multiply(xv, static_cast<T>(avals[k])),
                     sr.add);
    }
    visited += end - begin;
  }
  const Index out_nnz = spa.nnz();
  {
    CostVector c;
    // SPA allocation/first touch (Chapel allocates isthere/localy per
    // call), row-pointer fetches, then per visited nonzero: colid+value
    // stream, isthere test-and-set, k.fetchAdd per fresh index.
    c.add(CostKind::kStreamBytes,
          9.0 * static_cast<double>(col_hi - col_lo));
    c.add(CostKind::kRandAccess, 2.0 * static_cast<double>(x.nnz()));
    c.add(CostKind::kCpuOps, kSpaOpsPerRow * static_cast<double>(x.nnz()));
    c.add(CostKind::kStreamBytes, 16.0 * static_cast<double>(visited));
    c.add(CostKind::kCpuOps, kSpaOpsPerNnz * static_cast<double>(visited));
    c.add(CostKind::kAtomicDistinct, static_cast<double>(visited));
    c.add(CostKind::kAtomicContended, static_cast<double>(out_nnz));
    c.add(CostKind::kStreamBytes, 8.0 * static_cast<double>(out_nnz));
    ctx.parallel_region(c);
  }
  spa_span.end();
  if (trace) trace->add("spa", ctx.clock().now() - t0);

  // ---- Step 2: sort the output indices (charged only) ----
  obs::LocaleSpan sort_span(ctx, "spmspv.sort");
  t0 = ctx.clock().now();
  const CostVector sc = opt.sort == SortAlgo::kMerge
                            ? merge_sort_cost(out_nnz)
                            : radix_sort_cost(out_nnz, col_hi);
  // Final merge passes limit parallelism: ~8% of the sort is serial.
  ctx.parallel_region(sc.scaled(0.92));
  ctx.serial_region(sc.scaled(0.08));
  sort_span.end();
  if (trace) trace->add("sort", ctx.clock().now() - t0);

  // ---- Step 3: populate the output vector in ascending index order ----
  obs::LocaleSpan output_span(ctx, "spmspv.output");
  t0 = ctx.clock().now();
  std::vector<Index> idx;
  std::vector<T> val;
  idx.reserve(static_cast<std::size_t>(out_nnz));
  val.reserve(static_cast<std::size_t>(out_nnz));
  spa.for_each_sorted([&](Index j) {
    idx.push_back(j);
    val.push_back(spa.value(j));
  });
  {
    CostVector c;
    c.add(CostKind::kCpuOps, kSpmspvOutputOps * static_cast<double>(out_nnz));
    c.add(CostKind::kRandAccess, static_cast<double>(out_nnz));
    c.add(CostKind::kStreamBytes, 24.0 * static_cast<double>(out_nnz));
    ctx.parallel_region(c);
  }
  if (trace) trace->add("output", ctx.clock().now() - t0);

  return SparseVec<T>::from_sorted(col_hi - col_lo, std::move(idx),
                                   std::move(val));
}

namespace detail {

/// Picks the helper locale for straggler shedding: the processor-row
/// peer with the smallest clock whose host has a clean straggler record.
/// Returns -1 (no shedding) when shedding is off, this locale's host was
/// never flagged, or no clean peer exists. Deterministic: ties resolve
/// to the lowest locale id, and the decision depends only on simulated
/// clocks, so two same-seed runs shed identically.
inline int shed_helper(LocaleGrid& grid, int l, int pc, double shed,
                       const RemapView& remap) {
  if (shed <= 0.0) return -1;
  const int h = remap.host(l);
  if (grid.straggler_hits(h) <= 0) return -1;
  const int prow = grid.locale(l).row;
  int best = -1;
  double best_t = 0.0;
  for (int i = 0; i < pc; ++i) {
    const int cand = prow * pc + i;
    const int ch = remap.host(cand);
    if (ch == h || grid.straggler_hits(ch) > 0) continue;
    const double t = grid.clock(ch).now();
    if (best < 0 || t < best_t) {
      best = cand;
      best_t = t;
    }
  }
  return best;
}

/// Adds every locale's gather load to `fp`: its pc - 1 processor-row
/// peers, `piece(src)` elements from each.
template <typename Piece>
void add_row_gather_load(const LocaleGrid& grid, SiteFootprint& fp,
                         Piece&& piece) {
  const int pc = grid.cols();
  for (int l = 0; l < grid.num_locales(); ++l) {
    const int prow = grid.locale(l).row;
    std::int64_t elems = 0;
    for (int i = 0; i < pc; ++i) {
      const int src = prow * pc + i;
      if (src != l) elems += piece(src);
    }
    fp.add_initiator(pc - 1, elems);
  }
}

/// Publishes one SpMSpV phase's comm traffic since `cs0` as
/// spmspv.{messages,bytes}{phase=...}.
inline void count_phase_comm(LocaleGrid& grid, const char* phase,
                             const CommStats& cs0) {
  const CommStats cs1 = grid.comm_stats();
  grid.metrics()
      .counter("spmspv.messages", {{"phase", phase}})
      .inc(cs1.messages - cs0.messages);
  grid.metrics()
      .counter("spmspv.bytes", {{"phase", phase}})
      .inc(cs1.bytes - cs0.bytes);
}

/// Processor row `prow`'s gathered input: the x pieces of its pc
/// members, concatenated in member order, as a vector of capacity
/// `rows` (the row block's height).
template <typename T>
SparseVec<T> gather_row(const DistSparseVec<T>& x, int prow, int pc,
                        Index rows) {
  std::vector<Index> idx;
  std::vector<T> val;
  for (int i = 0; i < pc; ++i) {
    const auto& piece = x.local(prow * pc + i);
    idx.insert(idx.end(), piece.domain().indices().begin(),
               piece.domain().indices().end());
    val.insert(val.end(), piece.values().begin(), piece.values().end());
  }
  return SparseVec<T>::from_sorted(rows, std::move(idx), std::move(val));
}

/// A solo wave's scatter element: an update of output slot `j`.
template <typename T>
struct Update {
  Index j;
  T v;
};

/// A fused wave's scatter element: lane `q`'s update of output slot `j`.
/// The lane id rides the wire (it is the column coordinate inside the
/// n x k block), so fused updates are larger than solo ones; the win is
/// amortizing messages, flushes and round trips, not bytes.
template <typename T>
struct LaneUpdate {
  Index j;
  T v;
  std::int32_t q;
};

/// One distributed SpMSpV wave over k = xs.size() frontier lanes:
/// Y <- X A for the n x k column block X. The lanes share each phase's
/// schedule: the gather reads every lane's piece of a source in one
/// transfer set (one size round trip per (reader, source) pair), and
/// the scatter ships every lane's updates in one per-destination
/// sequence. Compute is per lane: lane q's multiply, accumulate and
/// finalize read lane q's data alone, in the one-lane order, so each
/// lane's output is byte-identical to a wave of that lane alone.
///
/// The entry passes in what differs between solo and fused calls: the
/// scatter's element `Wire`, and `replicable`, which a one-lane wave
/// may set: its gather then declares x read-only and hands
/// Gather::piece each source's block, so a kAuto wave may replicate it.
/// `masks` is empty or holds one entry per lane; a null entry leaves its
/// lane unmasked.
///
/// Lane q of processor row prow's input is xr[q * pr + prow]; lane q of
/// locale l's partial output is ly[q * nloc + l].
template <typename Wire, typename TA, typename T, typename SR>
std::vector<DistSparseVec<T>> spmspv_wave(
    const DistCsr<TA>& a, std::span<const DistSparseVec<T>* const> xs,
    std::span<const DistDenseVec<std::uint8_t>* const> masks,
    MaskMode mask_mode, const SR& sr, const SpmspvOptions& opt,
    bool replicable) {
  auto& grid = a.grid();
  const int k = static_cast<int>(xs.size());
  const int pc = grid.cols();
  const int pr = grid.rows();
  const int nloc = grid.num_locales();
  const auto lanes_nnz = [&](int src) {  // every lane's piece at src
    std::int64_t elems = 0;
    for (const auto* x : xs) elems += x->local(src).nnz();
    return elems;
  };

  // ---- Step 1: gather x along each processor row ----
  // Every locale in a processor row pulls from the same pc sources at
  // once, so each source serves pc requesters. Tree collectives override
  // every schedule, kAuto included.
  CommSite gather_site(
      grid,
      {.name = "spmspv.gather",
       .shape = SiteShape::kGather,
       .bytes_each = 16,
       .fanout = pc,
       .read_only = replicable,
       .chain_rts = kRemoteElemRts + 1.0,
       .lanes = k,
       .collective = opt.use_collectives},
      opt.comm, opt.agg_capacity,
      [&](SiteFootprint& fp) { add_row_gather_load(grid, fp, lanes_nnz); });
  obs::GridSpan gather_span(grid, "spmspv.gather");
  CommStats cs0 = grid.comm_stats();
  // Every member of a processor row gathers the same pieces, so the
  // row's input is built once, by its first member, and shared by the
  // local phase; each member still charges its own gather.
  std::vector<SparseVec<T>> xr(static_cast<std::size_t>(k * pr));
  gather_site.coforall([&](LocaleCtx& ctx) {
    const int l = ctx.locale();
    const int prow = grid.locale(l).row;
    auto in = gather_site.gather(ctx);
    for (int i = 0; i < pc; ++i) {
      const int src = prow * pc + i;
      if (replicable) {
        in.piece(src, lanes_nnz(src), xs[0]->local(src));
      } else {
        in.piece(src, lanes_nnz(src));
      }
    }
    in.finish();
    if (l == prow * pc) {
      const auto& blk = a.block(l);
      for (int q = 0; q < k; ++q) {
        xr[q * pr + prow] = gather_row(*xs[q], prow, pc, blk.rhi - blk.rlo);
      }
    }
  });
  if (opt.use_collectives) {
    for (int r = 0; r < pr; ++r) {
      std::int64_t max_piece = 0;
      for (int m : row_members(grid, r)) {
        max_piece = std::max(max_piece, 16 * lanes_nnz(m));
      }
      allgather(grid, row_members(grid, r), max_piece,
                CollectiveAlgo::kTree);
    }
    grid.barrier_all();
  }
  gather_span.end();
  count_phase_comm(grid, "gather", cs0);
  grid.trace().add("gather", gather_site.end_wave());

  // ---- Step 2: local multiply, lane by lane ----
  obs::GridSpan local_span(grid, "spmspv.local");
  double t0 = grid.time();
  RemapView remap(grid.membership());
  std::vector<SparseVec<T>> ly(static_cast<std::size_t>(k * nloc));
  // A shedding body also charges a helper's clock, so shedding keeps the
  // serial loop; otherwise each body only computes on its own block.
  const auto dispatch = opt.straggler_shed > 0.0
                            ? &LocaleGrid::coforall_locales
                            : &LocaleGrid::coforall_compute;
  (grid.*dispatch)([&](LocaleCtx& ctx) {
    const int l = ctx.locale();
    const auto& blk = a.block(l);
    const int prow = grid.locale(l).row;
    const auto multiply = [&] {
      for (int q = 0; q < k; ++q) {
        ly[q * nloc + l] = spmspv_shm(ctx, blk.csr, blk.rlo,
                                      xr[q * pr + prow], blk.clo, blk.chi,
                                      sr, opt);
      }
    };
    // Straggler shedding (opt-in): if barrier detection flagged this
    // locale's host, move opt.straggler_shed of the multiply's modeled
    // time to the fastest clean locale in this processor row. The real
    // compute still runs here (results are untouched); the helper's
    // clock pays the shed fraction plus the thief-pays input pull.
    const int helper = shed_helper(grid, l, pc, opt.straggler_shed, remap);
    if (helper < 0) {
      multiply();
      return;
    }
    const double shed = opt.straggler_shed;
    const double before = ctx.clock().now();
    ctx.set_charge_scale(1.0 - shed);
    multiply();
    ctx.set_charge_scale(1.0);
    const double charged = ctx.clock().now() - before;
    // The helper executes the shed share: it re-pays the time the
    // straggler saved (charged is (1-shed) of the full cost) and pulls
    // its share of the gathered inputs.
    std::int64_t pulled = 0;
    for (int q = 0; q < k; ++q) pulled += xr[q * pr + prow].nnz();
    LocaleCtx hctx(grid, helper);
    hctx.remote_bulk(l, static_cast<std::int64_t>(
                            16.0 * static_cast<double>(pulled) * shed));
    grid.clock(remap.host(helper)).advance(charged / (1.0 - shed) * shed);
    grid.metrics().counter("spmspv.rebalanced").inc();
    auto* session = grid.trace_session();
    if (session != nullptr) {
      session->instant(remap.host(l), "spmspv.shed", ctx.clock().now(),
                       {{"helper", std::to_string(helper)},
                        {"fraction", std::to_string(shed)}});
    }
  });
  local_span.end();
  grid.trace().add("local", grid.time() - t0);

  // ---- Step 3: scatter/accumulate into the k 1-D distributed outputs ----
  // Each initiator sprays its partial outputs across the ~pr owners of
  // its column range, and every owner drains the pr locales of one
  // processor column at once.
  const auto wire_bytes = static_cast<std::int64_t>(sizeof(Wire));
  CommSite scatter_site(
      grid,
      {.name = "spmspv.scatter",
       .shape = SiteShape::kAccumulate,
       .bytes_each = wire_bytes,
       .fanout = pr,
       .collective = opt.use_collectives},
      opt.comm, opt.agg_capacity, [&](SiteFootprint& fp) {
        const std::int64_t pairs = std::min<std::int64_t>(nloc - 1, pr);
        for (int l = 0; l < nloc; ++l) {
          std::int64_t elems = 0;
          for (int q = 0; q < k; ++q) elems += ly[q * nloc + l].nnz();
          fp.add_initiator(pairs, elems);
        }
      });
  obs::GridSpan scatter_span(grid, "spmspv.scatter");
  cs0 = grid.comm_stats();
  std::vector<DistSparseVec<T>> y;
  y.reserve(static_cast<std::size_t>(k));
  for (int q = 0; q < k; ++q) y.emplace_back(grid, a.ncols());
  // Lanes are charged lane-major, as per-element pushes would be; every
  // lane's runs share the per-destination sequence.
  scatter_site.coforall([&](LocaleCtx& ctx) {
    const int l = ctx.locale();
    auto out = scatter_site.scatter<Wire>(ctx);
    for (int q = 0; q < k; ++q) {
      out.push_sorted(q, ly[q * nloc + l].domain().indices(), y[q].dist());
    }
    out.finish();
  });
  if (opt.use_collectives) {
    for (int c = 0; c < pc; ++c) {
      std::int64_t volume = 0;
      for (int m : col_members(grid, c)) {
        for (int q = 0; q < k; ++q) {
          volume += wire_bytes * ly[q * nloc + m].nnz();
        }
      }
      reduce_scatter(grid, col_members(grid, c), volume,
                     CollectiveAlgo::kTree);
    }
    grid.barrier_all();
  }
  // Each owner takes one lane at a time. It adds the runs bound for it
  // into one SPA in initiator order, so each slot sees the adds
  // per-element delivery made, in the same order. It then scans the SPA
  // into its sorted piece of the result (the paper's denseToSparse),
  // dropping entries that fail the lane's mask.
  scatter_site.group_runs();
  grid.coforall_compute([&](LocaleCtx& ctx) {
    const int o = ctx.locale();
    for (int q = 0; q < k; ++q) {
      const auto& dist = y[q].dist();
      Spa<T> spa(dist.lo(o), dist.hi(o));
      for (const AccumRun& r : scatter_site.runs_to(o)) {
        if (r.lane != q) continue;
        const SparseVec<T>& v = ly[q * nloc + r.from];
        for (Index p = r.begin; p < r.end; ++p) {
          spa.accumulate(v.index_at(p), v.value_at(p), sr.add);
        }
      }
      const DistDenseVec<std::uint8_t>* mask =
          masks.empty() ? nullptr : masks[q];
      std::vector<Index> idx;
      std::vector<T> val;
      idx.reserve(static_cast<std::size_t>(spa.nnz()));
      val.reserve(static_cast<std::size_t>(spa.nnz()));
      spa.for_each_sorted([&](Index j) {
        if (mask != nullptr && mask_mode != MaskMode::kNone) {
          const bool set = mask->local(o)[j] != 0;
          if (mask_mode == MaskMode::kMask ? !set : set) return;
        }
        idx.push_back(j);
        val.push_back(spa.value(j));
      });
      CostVector c;
      if (mask != nullptr) {
        c.add(CostKind::kRandAccess, 0.25 * static_cast<double>(spa.nnz()));
      }
      c.add(CostKind::kStreamBytes,
            1.0 * static_cast<double>(dist.local_size(o)));
      c.add(CostKind::kStreamBytes, 24.0 * static_cast<double>(idx.size()));
      c.add(CostKind::kCpuOps, 8.0 * static_cast<double>(idx.size()));
      ctx.parallel_region(c);
      y[q].local(o) = SparseVec<T>::from_sorted(
          dist.local_size(o), std::move(idx), std::move(val));
    }
  });
  scatter_span.end();
  count_phase_comm(grid, "scatter", cs0);
  grid.trace().add("scatter", scatter_site.end_wave());
  return y;
}

/// The solo entries' wave: checks, counts the call and runs one lane,
/// whose read-only input a kAuto gather may replicate.
template <typename TA, typename T, typename SR>
DistSparseVec<T> spmspv_solo(const DistCsr<TA>& a, const DistSparseVec<T>& x,
                             const SR& sr, const SpmspvOptions& opt,
                             const DistDenseVec<std::uint8_t>* mask,
                             MaskMode mask_mode) {
  PGB_REQUIRE_SHAPE(x.capacity() == a.nrows(),
                    "spmspv: x capacity must equal matrix rows");
  PGB_REQUIRE_SHAPE(&x.grid() == &a.grid(),
                    "spmspv: operands live on different grids");
  PGB_REQUIRE(opt.straggler_shed >= 0.0 && opt.straggler_shed < 1.0,
              "spmspv: straggler_shed must be in [0, 1)");
  a.grid().metrics().counter("kernel.calls", {{"kernel", "spmspv_dist"}})
      .inc();
  const DistSparseVec<T>* xs[] = {&x};
  auto y = spmspv_wave<Update<T>, TA, T>(a, xs, {&mask, 1}, mask_mode, sr,
                                         opt, /*replicable=*/true);
  return std::move(y.front());
}

}  // namespace detail

/// Distributed SpMSpV: y <- x A over the 2-D block distribution.
/// Phase times are recorded in the grid's trace under "gather", "local",
/// "scatter" (Figs 8-9's components).
/// TA (matrix) and T (vector) may differ; matrix values are cast to T
/// before the semiring multiply.
template <typename TA, typename T, typename SR>
DistSparseVec<T> spmspv_dist(const DistCsr<TA>& a,
                             const DistSparseVec<T>& x, const SR& sr,
                             const SpmspvOptions& opt = {}) {
  return detail::spmspv_solo(a, x, sr, opt, nullptr, MaskMode::kNone);
}

/// Distributed SpMSpV with a fused dense Boolean mask (optionally
/// complemented): output entries failing the mask are dropped at their
/// owner, inside the finalize step, before the result vector is built —
/// the fused masked vxm of the GraphBLAS spec, which the paper's
/// conclusion singles out as unexplored in distributed memory. Fusing
/// saves materializing the unmasked result and a full extra pass
/// (compare apply_mask).
template <typename TA, typename T, typename SR>
DistSparseVec<T> spmspv_dist_masked(const DistCsr<TA>& a,
                                    const DistSparseVec<T>& x,
                                    const DistDenseVec<std::uint8_t>& mask,
                                    MaskMode mode, const SR& sr,
                                    const SpmspvOptions& opt = {}) {
  PGB_REQUIRE_SHAPE(mask.size() == a.ncols(),
                    "spmspv: mask size must equal matrix columns");
  return detail::spmspv_solo(a, x, sr, opt, &mask, mode);
}

/// Fused multi-source SpMSpV: Y <- X A for k frontier lanes on one
/// matrix, in one wave whose schedule is priced and paid once for all
/// lanes (CombBLAS 2.0's fused multi-vector traversals, and LAGraph's
/// batched BC). `xs` holds the lanes (all with capacity == a.nrows(),
/// all on a's grid); `masks` is empty (no masking) or holds one entry
/// per lane, where a null entry leaves its lane unmasked and a non-null
/// one filters it per `mask_mode` as spmspv_dist_masked does.
///
/// Returns one output per lane, each byte-identical to the solo
/// spmspv_dist[_masked] of that lane under any comm schedule. Tree
/// collectives and straggler shedding are solo-only.
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
  grid.metrics()
      .counter("kernel.calls", {{"kernel", "spmspv_dist_multi"}})
      .inc();
  grid.metrics().histogram("spmspv.multi.width").observe(k);
  return detail::spmspv_wave<detail::LaneUpdate<T>, TA, T>(
      a, xs, masks, mask_mode, sr, opt, /*replicable=*/false);
}

}  // namespace pgb
