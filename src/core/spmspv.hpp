// Sparse matrix - sparse vector multiplication, y <- x A, on a semiring
// (paper Section III-D, Listings 7 and 8).
//
// Shared memory (spmspv_shm): the SPA algorithm of Gilbert-Moler-Schreiber:
//   1. SPA:    for every nonzero x[r], merge row A[r,:] into the sparse
//              accumulator (dense values + isthere flags + nzinds list);
//   2. Sort:   sort the accumulated output indices (Chapel merge sort by
//              default — the step the paper finds dominant — or the radix
//              sort it suggests as future work);
//   3. Output: build the sorted output vector from the SPA.
//
// Distributed memory (spmspv_dist), on the 2-D block distribution:
//   1. Gather:  every locale (R, C) assembles the x entries for row-block
//               R from the pc owners along its processor row. The paper's
//               Listing 8 copies these *element by element* — the
//               fine-grained traffic that ends up dominating (Figs 8-9).
//               opts.bulk_gather switches to one bulk get per piece
//               (the paper's suggested bulk-synchronous remedy).
//   2. Local:   spmspv_shm on the local block.
//   3. Scatter: partial outputs are accumulated into the 1-D distributed
//               result; the paper writes one element at a time into a
//               global atomic "isthere" array. opts.bulk_scatter batches
//               per destination instead.
#pragma once

#include <vector>

#include "core/descriptor.hpp"
#include "core/kernel_costs.hpp"
#include "machine/cost.hpp"
#include "obs/span.hpp"
#include "runtime/aggregator.hpp"
#include "runtime/collectives.hpp"
#include "runtime/locale_grid.hpp"
#include "sparse/dist_csr.hpp"
#include "sparse/dist_dense_vec.hpp"
#include "sparse/dist_sparse_vec.hpp"
#include "sparse/spa.hpp"
#include "util/sorting.hpp"

namespace pgb {

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
  SortAlgo sort = SortAlgo::kMerge;  ///< sort used by kSpaSort
  /// Communication schedule for gather and scatter: fine-grained
  /// element-by-element (the paper's Listing 8), one hand-rolled bulk
  /// transfer per peer, or conveyor-style aggregation (per-peer buffers
  /// flushed as capacity-sized bulks; see runtime/aggregator.hpp).
  CommMode comm = CommMode::kFine;
  /// Buffering parameters when comm == CommMode::kAggregated.
  AggConfig agg;
  bool bulk_gather = false;   ///< legacy flag: batch the gather
  bool bulk_scatter = false;  ///< legacy flag: batch the scatter
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

  bool aggregated() const { return comm == CommMode::kAggregated; }
  bool gather_is_bulk() const {
    return bulk_gather || comm == CommMode::kBulk;
  }
  bool scatter_is_bulk() const {
    return bulk_scatter || comm == CommMode::kBulk;
  }

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
  for (Index p = 0; p < x.nnz(); ++p) {
    const Index r = x.index_at(p) - row_lo;
    PGB_ASSERT(r >= 0 && r < a.nrows(), "spmspv: x index out of row range");
    const T& xv = x.value_at(p);
    auto cols = a.row_colids(r);
    auto vals = a.row_values(r);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      spa.accumulate(cols[k], sr.multiply(xv, static_cast<T>(vals[k])),
                     sr.add);
    }
    visited += static_cast<Index>(cols.size());
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

  // ---- Step 2: sort the output indices ----
  obs::LocaleSpan sort_span(ctx, "spmspv.sort");
  t0 = ctx.clock().now();
  std::vector<Index>& nzinds = spa.nzinds();
  const CostVector sc = opt.sort == SortAlgo::kMerge
                            ? merge_sort_cost(out_nnz)
                            : radix_sort_cost(out_nnz, col_hi);
  if (opt.sort == SortAlgo::kMerge) {
    merge_sort(nzinds);
  } else {
    radix_sort(nzinds);
  }
  // Final merge passes limit parallelism: ~8% of the sort is serial.
  ctx.parallel_region(sc.scaled(0.92));
  ctx.serial_region(sc.scaled(0.08));
  sort_span.end();
  if (trace) trace->add("sort", ctx.clock().now() - t0);

  // ---- Step 3: populate the output vector ----
  obs::LocaleSpan output_span(ctx, "spmspv.output");
  t0 = ctx.clock().now();
  std::vector<Index> idx(nzinds.begin(), nzinds.end());
  std::vector<T> val;
  val.reserve(idx.size());
  for (Index j : idx) val.push_back(spa.value(j));
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

/// Distributed SpMSpV: y <- x A over the 2-D block distribution.
/// Phase times are recorded in the grid's trace under "gather", "local",
/// "scatter" (Figs 8-9's components).
/// TA (matrix) and T (vector) may differ; matrix values are cast to T
/// before the semiring multiply.
///
/// `mask` (optional) filters the output *inside* the owner-side finalize
/// step — the fused masked vxm of the GraphBLAS spec, which the paper's
/// conclusion singles out as unexplored in distributed memory. Fusing
/// saves materializing the unmasked result and a full extra pass
/// (compare apply_mask).
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
  PGB_REQUIRE(shed < 1.0, "spmspv: straggler_shed must be in [0, 1)");
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

/// Per-owner element counts of one locale's scatter. Locale l's partial
/// output lies in its column block [clo, chi), whose 1-D output owners
/// form one contiguous window of about pr locales, so the counts cover
/// that window instead of all num_locales() owners. Walking
/// [first(), end()) visits owners in ascending order.
class OwnerCounts {
 public:
  OwnerCounts(const BlockDist1D& d, Index clo, Index chi)
      : first_(clo < chi ? d.owner(clo) : 0),
        n_(clo < chi ? static_cast<std::size_t>(d.owner(chi - 1) - first_ + 1)
                     : 0,
           0) {}

  void add(int owner) { ++n_[static_cast<std::size_t>(owner - first_)]; }

  /// Elements bound for `owner`; 0 outside the window.
  std::int64_t operator[](int owner) const {
    const int i = owner - first_;
    return i >= 0 && i < static_cast<int>(n_.size())
               ? n_[static_cast<std::size_t>(i)]
               : 0;
  }

  int first() const { return first_; }
  int end() const { return first_ + static_cast<int>(n_.size()); }

 private:
  int first_;
  std::vector<std::int64_t> n_;
};

template <typename TA, typename T, typename SR>
DistSparseVec<T> spmspv_dist_impl(const DistCsr<TA>& a,
                                  const DistSparseVec<T>& x, const SR& sr,
                                  const SpmspvOptions& opt,
                                  const DistDenseVec<std::uint8_t>* mask,
                                  MaskMode mask_mode) {
  PGB_REQUIRE_SHAPE(x.capacity() == a.nrows(),
                    "spmspv: x capacity must equal matrix rows");
  PGB_REQUIRE_SHAPE(&x.grid() == &a.grid(),
                    "spmspv: operands live on different grids");
  auto& grid = a.grid();
  const int pc = grid.cols();
  const int pr = grid.rows();
  const int nloc = grid.num_locales();
  grid.metrics().counter("kernel.calls", {{"kernel", "spmspv_dist"}}).inc();

  // Logical->physical host view: after a degraded-mode remap a peer may
  // be co-hosted with us, turning its "remote" pieces into local memory
  // reads. Under the identity mapping remapped() is false and every
  // branch below reduces to the original formulas bit-for-bit.
  RemapView remap(grid.membership());

  // Inspector–executor (CommMode::kAuto): each comm site records its
  // wave's remote footprint up front and is bound to the cheapest
  // predicted schedule; manual modes keep their hardcoded schedule
  // (insp stays null). Collectives override every schedule, auto
  // included. Data movement is identical either way — only charging
  // differs — so auto's outputs are byte-identical to every manual mode.
  Inspector* insp = (opt.comm == CommMode::kAuto && !opt.use_collectives)
                        ? &grid.inspector()
                        : nullptr;
  SiteDecision gather_dec;
  if (insp != nullptr) {
    SiteFootprint fp;
    fp.bytes_each = 16;
    fp.fanout = static_cast<double>(pc);  // pc readers hit each source
    fp.chain_rts = kRemoteElemRts + 1.0;
    fp.read_only = true;  // x is immutable for the whole wave
    fp.gather = true;
    for (int l = 0; l < nloc; ++l) {
      const int prow = grid.locale(l).row;
      std::int64_t elems = 0;
      std::int64_t pairs = 0;
      for (int i = 0; i < pc; ++i) {
        const int src = prow * pc + i;
        if (src == l) continue;
        ++pairs;
        elems += x.local(src).nnz();
      }
      fp.pairs += pairs;
      fp.elements += elems;
      if (elems > fp.max_initiator_elements) {
        fp.max_initiator_elements = elems;
        fp.max_initiator_pairs = pairs;
      }
    }
    fp.block_bytes = 16 * fp.max_initiator_elements;
    gather_dec = insp->decide("spmspv.gather", fp);
  }
  const SiteStrategy gather_strat =
      insp != nullptr          ? gather_dec.strategy
      : opt.aggregated()       ? SiteStrategy::kAggregated
      : opt.gather_is_bulk()   ? SiteStrategy::kBulk
                               : SiteStrategy::kFine;

  // ---- Step 1: gather x along each processor row ----
  obs::GridSpan gather_span(grid, "spmspv.gather");
  CommStats cs0 = grid.comm_stats();
  double t0 = grid.time();
  std::vector<SparseVec<T>> xr(nloc);
  grid.coforall_locales([&](LocaleCtx& ctx) {
    const int l = ctx.locale();
    const auto& blk = a.block(l);
    const int prow = grid.locale(l).row;
    std::vector<Index> idx;
    std::vector<T> val;
    // Aggregated mode: the known-size remote pieces are pulled as
    // capacity-sized chunks through a double-buffered channel, so chunk
    // transfers from the pc sources overlap one another.
    AggConfig gather_cfg = opt.agg;
    gather_cfg.contention = static_cast<double>(pc);
    if (insp != nullptr) gather_cfg.capacity = gather_dec.agg_capacity;
    AggChannel chan(ctx, gather_cfg);
    // Per-wave cached host view: this locale's host is resolved once
    // here, and per-source hosts go through the RemapView's cached
    // table — no per-element grid.host_of() walks.
    const int self_host = remap.host(l);
    for (int i = 0; i < pc; ++i) {
      const int src = prow * pc + i;
      const auto& piece = x.local(src);
      idx.insert(idx.end(), piece.domain().indices().begin(),
                 piece.domain().indices().end());
      val.insert(val.end(), piece.values().begin(), piece.values().end());
      const bool co_hosted = remap.remapped() && remap.host(src) == self_host;
      if (src != l && !co_hosted && !opt.use_collectives) {
        if (gather_strat == SiteStrategy::kReplicate) {
          // Selective read-only replication: the source piece is shipped
          // once per reader host through a binomial broadcast tree
          // (depth ceil(log2(pc)) instead of pc serialized serves) and
          // stays resident; while its content fingerprint and the
          // membership epoch both hold, later waves read the replica for
          // free (inspector.cache.hits). A remap flushes every replica.
          const std::uint64_t tag = piece.fingerprint();
          if (!insp->cache_lookup("spmspv.gather", src, self_host, tag)) {
            const std::int64_t bytes = 16 * piece.nnz();
            ctx.remote_rt(src, 8);
            ctx.remote_bulk(src, bytes);
            const int depth =
                replication_tree_depth(static_cast<double>(pc));
            if (depth > 1) {
              const bool intra =
                  grid.same_node(self_host, remap.host(src));
              ctx.clock().advance(
                  static_cast<double>(depth - 1) *
                  grid.net().bulk(bytes, intra, grid.colocated()));
            }
            insp->cache_install("spmspv.gather", src, self_host, tag,
                                bytes);
          }
          continue;
        }
        // Domain-size query, then the element copies. Every locale in
        // this processor row pulls from the same pc sources at once, so
        // each source's AM handler serves pc requesters (contention).
        ctx.remote_rt(src, 8);
        if (gather_strat == SiteStrategy::kAggregated) {
          chan.get_elems(src, piece.nnz(), 16);
        } else if (gather_strat == SiteStrategy::kBulk) {
          // The source serves one bulk copy to each of the pc locales in
          // this processor row, serially (no broadcast tree in the
          // paper's runtime): receiver-side contention scales the
          // effective transfer.
          ctx.remote_bulk(src, 16 * piece.nnz() * pc);
        } else {
          ctx.remote_chain(src, piece.nnz(), kRemoteElemRts + 1.0, 16,
                           /*contention=*/static_cast<double>(pc));
        }
      }
    }
    chan.drain();
    xr[l] = SparseVec<T>::from_sorted(blk.rhi - blk.rlo, std::move(idx),
                                      std::move(val));
  });
  if (opt.use_collectives) {
    for (int r = 0; r < pr; ++r) {
      std::int64_t max_piece = 0;
      for (int m : row_members(grid, r)) {
        max_piece = std::max(max_piece, 16 * x.local(m).nnz());
      }
      allgather(grid, row_members(grid, r), max_piece,
                CollectiveAlgo::kTree);
    }
    grid.barrier_all();
  }
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

  // ---- Step 2: local multiply ----
  obs::GridSpan local_span(grid, "spmspv.local");
  t0 = grid.time();
  std::vector<SparseVec<T>> ly(nloc);
  grid.coforall_locales([&](LocaleCtx& ctx) {
    const int l = ctx.locale();
    const auto& blk = a.block(l);
    // Straggler shedding (opt-in): if barrier detection flagged this
    // locale's host, move opt.straggler_shed of the multiply's modeled
    // time to the fastest clean locale in this processor row. The real
    // compute still runs here (results are untouched); the helper's
    // clock pays the shed fraction plus the thief-pays input pull.
    const int helper =
        detail::shed_helper(grid, l, pc, opt.straggler_shed, remap);
    if (helper < 0) {
      ly[l] = spmspv_shm(ctx, blk.csr, blk.rlo, xr[l], blk.clo, blk.chi, sr,
                         opt);
      return;
    }
    const double shed = opt.straggler_shed;
    const double before = ctx.clock().now();
    ctx.set_charge_scale(1.0 - shed);
    ly[l] = spmspv_shm(ctx, blk.csr, blk.rlo, xr[l], blk.clo, blk.chi, sr,
                       opt);
    ctx.set_charge_scale(1.0);
    const double charged = ctx.clock().now() - before;
    // The helper executes the shed share: it re-pays the time the
    // straggler saved (charged is (1-shed) of the full cost) and pulls
    // its share of the gathered input.
    LocaleCtx hctx(grid, helper);
    hctx.remote_bulk(l, static_cast<std::int64_t>(
                            16.0 * static_cast<double>(xr[l].nnz()) * shed));
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

  // Scatter-site inspection: the partial outputs are known after the
  // local phase; each initiator sprays its elements across ~pr owners
  // (the owners of its column range), so pr is both the pair estimate
  // per initiator and the receiver-side fan-in. Writes can't replicate.
  SiteDecision scatter_dec;
  if (insp != nullptr) {
    SiteFootprint fp;
    fp.bytes_each = 16;
    fp.fanout = static_cast<double>(pr);
    fp.gather = false;
    // The bulk branch below spawns one packing region per destination;
    // that task-spawn floor is what it costs over fine/agg per pair.
    fp.bulk_pair_overhead = grid.region_floor();
    for (int l = 0; l < nloc; ++l) {
      const std::int64_t elems = ly[l].nnz();
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
      insp != nullptr          ? scatter_dec.strategy
      : opt.aggregated()       ? SiteStrategy::kAggregated
      : opt.scatter_is_bulk()  ? SiteStrategy::kBulk
                               : SiteStrategy::kFine;

  // ---- Step 3: scatter/accumulate into the 1-D distributed output ----
  obs::GridSpan scatter_span(grid, "spmspv.scatter");
  cs0 = grid.comm_stats();
  t0 = grid.time();
  DistSparseVec<T> y(grid, a.ncols());
  std::vector<Spa<T>> yspa;
  yspa.reserve(nloc);
  for (int o = 0; o < nloc; ++o) {
    yspa.emplace_back(y.dist().lo(o), y.dist().hi(o));
  }
  grid.coforall_locales([&](LocaleCtx& ctx) {
    const int l = ctx.locale();
    const auto& part = ly[l];
    const auto& blk = a.block(l);
    // Per-wave cached host view (same hoist as the gather).
    const int self_host = remap.host(l);
    OwnerCounts count_to(y.dist(), blk.clo, blk.chi);
    if (scatter_strat == SiteStrategy::kAggregated && !opt.use_collectives) {
      // Conveyor schedule: accumulate-at-owner requests ride per-peer
      // buffers; every flush is one bulk (plus header) instead of a
      // message per element. Per-peer FIFO delivery keeps the per-slot
      // accumulation order of the fine-grained path, so results are
      // bit-identical.
      struct Update {
        Index j;
        T v;
      };
      AggConfig cfg = opt.agg;
      cfg.contention = static_cast<double>(pr);
      if (insp != nullptr) cfg.capacity = scatter_dec.agg_capacity;
      DstAggregator<Update> agg(
          ctx,
          [&](int peer, std::vector<Update>& batch) {
            for (const auto& u : batch) {
              yspa[peer].accumulate(u.j, u.v, sr.add);
            }
          },
          cfg);
      for (Index p = 0; p < part.nnz(); ++p) {
        const Index j = part.index_at(p);
        const int o = y.dist().owner(j);
        agg.push(o, Update{j, part.value_at(p)});
        count_to.add(o);
      }
      agg.flush_all();
      CostVector c;  // local accumulation + packing of the remote batches
      c.add(CostKind::kRandAccess, static_cast<double>(count_to[l]));
      c.add(CostKind::kCpuOps, 20.0 * static_cast<double>(count_to[l]));
      for (int o = count_to.first(); o < count_to.end(); ++o) {
        if (o == l || count_to[o] == 0) continue;
        if (remap.remapped() && remap.host(o) == self_host) {
          // Co-hosted owner after a degraded remap: straight local
          // accumulation, nothing to pack.
          c.add(CostKind::kRandAccess, static_cast<double>(count_to[o]));
          c.add(CostKind::kCpuOps, 20.0 * static_cast<double>(count_to[o]));
          continue;
        }
        c.add(CostKind::kCpuOps, 10.0 * static_cast<double>(count_to[o]));
        c.add(CostKind::kStreamBytes, 16.0 * static_cast<double>(count_to[o]));
      }
      ctx.parallel_region(c);
      return;
    }
    for (Index p = 0; p < part.nnz(); ++p) {
      const Index j = part.index_at(p);
      const int o = y.dist().owner(j);
      yspa[o].accumulate(j, part.value_at(p), sr.add);
      count_to.add(o);
    }
    for (int o = count_to.first(); o < count_to.end(); ++o) {
      if (count_to[o] == 0) continue;
      if (opt.use_collectives && o != l) {
        continue;  // charged below as a reduce-scatter per column
      }
      // Co-hosted owners (degraded remap) accumulate locally; identity
      // mapping reduces this to the plain o == l test.
      const bool local_dst =
          o == l || (remap.remapped() && remap.host(o) == self_host);
      if (local_dst) {
        CostVector c;
        c.add(CostKind::kRandAccess, static_cast<double>(count_to[o]));
        c.add(CostKind::kCpuOps, 20.0 * static_cast<double>(count_to[o]));
        ctx.parallel_region(c);
      } else if (scatter_strat == SiteStrategy::kBulk) {
        CostVector c;  // pack the destination's batch
        c.add(CostKind::kCpuOps, 10.0 * static_cast<double>(count_to[o]));
        c.add(CostKind::kStreamBytes, 16.0 * static_cast<double>(count_to[o]));
        ctx.parallel_region(c);
        // Every destination drains batches from the pr locales of one
        // processor column, serially: receiver-side contention.
        ctx.remote_bulk(o, 16 * count_to[o] * pr);
      } else {
        // One remote atomic write per element (paper Listing 8 step 3);
        // each destination is hammered by the pr locales of one
        // processor column at once.
        ctx.remote_msgs(o, count_to[o], 16,
                        /*contention=*/static_cast<double>(pr));
      }
    }
  });
  if (opt.use_collectives) {
    for (int c = 0; c < pc; ++c) {
      std::int64_t volume = 0;
      for (int m : col_members(grid, c)) volume += 16 * ly[m].nnz();
      reduce_scatter(grid, col_members(grid, c), volume,
                     CollectiveAlgo::kTree);
    }
    grid.barrier_all();
  }
  // Finalize: every output owner converts its dense accumulator to the
  // sparse result (the paper's denseToSparse scan).
  grid.coforall_locales([&](LocaleCtx& ctx) {
    const int o = ctx.locale();
    auto& spa = yspa[o];
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
          1.0 * static_cast<double>(y.dist().local_size(o)));
    c.add(CostKind::kStreamBytes, 24.0 * static_cast<double>(idx.size()));
    c.add(CostKind::kCpuOps, 8.0 * static_cast<double>(idx.size()));
    ctx.parallel_region(c);
    y.local(o) = SparseVec<T>::from_sorted(y.dist().local_size(o),
                                           std::move(idx), std::move(val));
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

}  // namespace detail

/// Distributed SpMSpV, unmasked.
template <typename TA, typename T, typename SR>
DistSparseVec<T> spmspv_dist(const DistCsr<TA>& a,
                             const DistSparseVec<T>& x, const SR& sr,
                             const SpmspvOptions& opt = {}) {
  return detail::spmspv_dist_impl(a, x, sr, opt, nullptr, MaskMode::kNone);
}

/// Distributed SpMSpV with a fused dense Boolean mask (optionally
/// complemented): output entries failing the mask are dropped at their
/// owner before the result vector is built.
template <typename TA, typename T, typename SR>
DistSparseVec<T> spmspv_dist_masked(const DistCsr<TA>& a,
                                    const DistSparseVec<T>& x,
                                    const DistDenseVec<std::uint8_t>& mask,
                                    MaskMode mode, const SR& sr,
                                    const SpmspvOptions& opt = {}) {
  PGB_REQUIRE_SHAPE(mask.size() == a.ncols(),
                    "spmspv: mask size must equal matrix columns");
  return detail::spmspv_dist_impl(a, x, sr, opt, &mask, mode);
}

}  // namespace pgb
