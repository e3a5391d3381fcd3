// IngestStream: crash-consistent streaming ingestion against an
// epoch-versioned GraphStore handle.
//
// The write path composes three existing pieces into one loop:
//
//   route    a MutationBatch's deltas travel to their owner locales
//            through the aggregation layer (runtime/aggregator.hpp) —
//            batched conveyor flushes, never fine-grained RPCs;
//   log      each owner appends its slice as one checksummed page to a
//            per-locale DeltaLog, and mirrors the page frame to its
//            PR-5 buddy (fault/replica.hpp's placement) *before* the
//            batch is acknowledged — the write-ahead contract: an acked
//            batch is replayable from the surviving mirror;
//   publish  queries keep reading their pinned snapshot until publish()
//            folds the acked pages into per-block overlays
//            (sparse/csr_overlay.hpp, deltas kept on dirty rows only)
//            and installs the materialized result as the handle's next
//            epoch. Once the pending overlay reaches `compact_every`
//            entries, the published matrix becomes the new base: logs
//            truncate and the base re-replicates to the buddies.
//
// Fold and materialize are LocaleGrid::coforall_compute bodies, which
// run on the host thread pool, and base replication serializes and
// checksums its blocks there too; every clock, counter, trace event and
// graph hash is the serial loop's, at any thread count.
//
// Every stage (apply, each publish stage, compaction) is idempotent and
// runs as a stateless one-round loop under the resilient driver
// (fault/recovery.hpp) in degraded mode. A locale kill inside a stage
// (LocaleFailed from the fault plane) remaps the dead logical locale
// onto its buddy's host and calls recover(): the dead locale's base
// block is restored from the buddy's checksummed copy, and the buddy's
// mirrored log pages are replayed past the last durable (acknowledged)
// sequence number. Torn or corrupt tail frames are detected by checksum
// and exactly the unacknowledged suffix is discarded; then the stage
// re-runs. Both the replayed pages and the re-run stage are
// bit-identical to the fault-free run, so the post-recovery published
// graph hashes equal.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fault/checkpoint.hpp"
#include "fault/fault.hpp"
#include "fault/recovery.hpp"
#include "fault/replica.hpp"
#include "ingest/delta_log.hpp"
#include "obs/span.hpp"
#include "runtime/aggregator.hpp"
#include "runtime/host_pool.hpp"
#include "runtime/locale_grid.hpp"
#include "service/event_log.hpp"
#include "service/handle.hpp"
#include "sparse/csr_overlay.hpp"
#include "sparse/dist_csr.hpp"
#include "util/fnv.hpp"

namespace pgb {

/// Serializes one CSR block to bytes (the base-replica wire format):
/// [nrows][ncols][nnz][rowptr][colids][vals], all host-layout int64 /
/// double. Appends serialized_csr_bytes(m) bytes to `out`.
inline void serialize_csr(const Csr<double>& m,
                          std::vector<unsigned char>* out) {
  const auto put = [out](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    out->insert(out->end(), b, b + n);
  };
  const Index nr = m.nrows(), nc = m.ncols(), nnz = m.nnz();
  put(&nr, sizeof(nr));
  put(&nc, sizeof(nc));
  put(&nnz, sizeof(nnz));
  put(m.rowptr().data(), m.rowptr().size() * sizeof(Index));
  put(m.colids().data(), m.colids().size() * sizeof(Index));
  put(m.values().data(), m.values().size() * sizeof(double));
}

inline std::size_t serialized_csr_bytes(const Csr<double>& m) {
  return 3 * sizeof(Index) + m.rowptr().size() * sizeof(Index) +
         m.colids().size() * sizeof(Index) +
         m.values().size() * sizeof(double);
}

inline Csr<double> deserialize_csr(const unsigned char* p, std::size_t n) {
  std::size_t off = 0;
  const auto get = [&](void* out, std::size_t len) {
    PGB_REQUIRE(off + len <= n, "ingest: truncated base-replica block");
    if (len == 0) return;  // an empty array: `out` may be null
    std::memcpy(out, p + off, len);
    off += len;
  };
  Index nr = 0, nc = 0, nnz = 0;
  get(&nr, sizeof(nr));
  get(&nc, sizeof(nc));
  get(&nnz, sizeof(nnz));
  std::vector<Index> rowptr(static_cast<std::size_t>(nr) + 1);
  std::vector<Index> colids(static_cast<std::size_t>(nnz));
  std::vector<double> vals(static_cast<std::size_t>(nnz));
  get(rowptr.data(), rowptr.size() * sizeof(Index));
  get(colids.data(), colids.size() * sizeof(Index));
  get(vals.data(), vals.size() * sizeof(double));
  return Csr<double>::from_parts(nr, nc, std::move(rowptr), std::move(colids),
                                 std::move(vals));
}

/// Deterministic content hash of a distributed matrix (FNV-1a over
/// shape + every block's arrays, in locale order). Two graphs hash
/// equal iff their distributed representations are bit-identical — the
/// CI gate for kill-run vs fault-free-run equality.
inline std::uint64_t ingest_graph_hash(const DistCsr<double>& g) {
  const Index nr = g.nrows(), nc = g.ncols();
  std::uint64_t h = fnv1a_extend(kPgbFnvBasis, &nr, sizeof(nr));
  h = fnv1a_extend(h, &nc, sizeof(nc));
  for (int l = 0; l < g.grid().num_locales(); ++l) {
    const auto& csr = g.block(l).csr;
    h = fnv1a_extend(h, csr.rowptr().data(),
                     csr.rowptr().size() * sizeof(Index));
    h = fnv1a_extend(h, csr.colids().data(),
                     csr.colids().size() * sizeof(Index));
    h = fnv1a_extend(h, csr.values().data(),
                     csr.values().size() * sizeof(double));
  }
  return h;
}

struct IngestOptions {
  /// Pending overlay entries (summed over locales) that trigger
  /// compaction into a fresh base at the next publish.
  std::int64_t compact_every = 8192;
};

struct IngestStats {
  std::int64_t batches = 0;      ///< acknowledged batches
  std::int64_t deltas = 0;       ///< mutations applied (routed + logged)
  std::int64_t inserts = 0;
  std::int64_t deletes = 0;
  std::int64_t publishes = 0;
  std::int64_t compactions = 0;
  std::int64_t replays = 0;          ///< recoveries that replayed a mirror
  std::int64_t pages_replayed = 0;   ///< durable pages restored from mirrors
  std::int64_t pages_discarded = 0;  ///< unacked/torn frames dropped
  std::int64_t log_bytes = 0;        ///< page frame bytes shipped to buddies
  std::int64_t base_bytes = 0;       ///< base-replica bytes shipped
};

class IngestStream {
 public:
  /// Wraps handle `h` of `store` (already loaded with `base`). The
  /// constructor replicates the base blocks to the buddy locales —
  /// a comm phase charged like ReplicaStore's static setup.
  IngestStream(LocaleGrid& grid, GraphStore& store, GraphStore::HandleId h,
               const DistCsr<double>& base, IngestOptions opt = {},
               ServiceEventLog* elog = nullptr)
      : grid_(grid), store_(store), h_(h), base_(base), opt_(opt),
        elog_(elog) {
    PGB_REQUIRE(grid.num_locales() >= 2,
                "ingest: need at least two locales for buddy mirroring");
    PGB_REQUIRE(opt_.compact_every >= 1,
                "ingest: compact_every must be >= 1");
    const int n = grid_.num_locales();
    logs_.resize(static_cast<std::size_t>(n));
    mirror_.resize(static_cast<std::size_t>(n));
    base_mirror_.resize(static_cast<std::size_t>(n));
    overlays_.reserve(static_cast<std::size_t>(n));
    for (int l = 0; l < n; ++l) {
      overlays_.emplace_back(&base_.block(l).csr);
    }
    replicate_base();
  }

  IngestStream(const IngestStream&) = delete;
  IngestStream& operator=(const IngestStream&) = delete;

  /// Applies one batch end to end: verify, route to owners through the
  /// aggregation layer, append one page per locale, mirror each page to
  /// the buddy, then acknowledge. A kill mid-batch recovers in place
  /// (degraded remap + base restore + mirror replay) and the batch
  /// re-applies — ack only ever covers fully mirrored pages.
  void apply(const MutationBatch& batch) {
    PGB_REQUIRE(batch.valid(), "ingest: mutation batch failed its checksum");
    PGB_REQUIRE(batch.seq == acked_seq_ + 1,
                "ingest: batch " + std::to_string(batch.seq) +
                    " out of order (acked " + std::to_string(acked_seq_) +
                    ")");
    PGB_TRACE_SPAN(grid_, "ingest.apply",
                   {{"seq", std::to_string(batch.seq)},
                    {"deltas", std::to_string(batch.deltas.size())}});
    run_stage([&] { route_and_append(batch); });
    acked_seq_ = batch.seq;
    ++stats_.batches;
    std::int64_t ins = 0, del = 0;
    for (const EdgeDelta& d : batch.deltas) {
      (d.op == DeltaOp::kInsert ? ins : del) += 1;
    }
    stats_.deltas += static_cast<std::int64_t>(batch.deltas.size());
    stats_.inserts += ins;
    stats_.deletes += del;
    auto& mx = grid_.metrics();
    mx.counter("ingest.batches").inc();
    mx.counter("ingest.deltas")
        .inc(static_cast<std::int64_t>(batch.deltas.size()));
    if (elog_ != nullptr) {
      elog_->emit(grid_.time(), "ingest.batch",
                  {{"seq", ev_int(batch.seq)},
                   {"deltas",
                    ev_int(static_cast<std::int64_t>(batch.deltas.size()))},
                   {"inserts", ev_int(ins)},
                   {"deletes", ev_int(del)},
                   {"log_bytes", ev_int(stats_.log_bytes)}});
    }
  }

  /// Atomic epoch publish: folds the acked-but-unapplied pages into the
  /// per-block overlays, materializes base + overlay into a fresh
  /// DistCsr (in a dirty block each run of clean rows is block-copied
  /// and only dirty rows merge; a clean block is one run), and installs
  /// it under the handle. Fold and materialize are coforall_compute
  /// bodies, so the locales run them at once on the host pool; every new
  /// block's arrays are reserved on the calling thread first, so the
  /// epoch lives in its malloc arena rather than in each pool thread's.
  /// Snapshots taken before the publish keep the prior version — readers
  /// never observe a torn batch. Compacts once the pending overlay
  /// crosses the threshold.
  std::uint64_t publish() {
    PGB_TRACE_SPAN(grid_, "ingest.publish",
                   {{"seq", std::to_string(acked_seq_)}});
    const int n = grid_.num_locales();
    // Every stage below is individually idempotent (folds are last-write-
    // wins over already-identical prefixes; materialize overwrites), so a
    // kill inside any of them recovers and re-runs just that stage.
    run_stage([&] {
      grid_.coforall_compute([&](LocaleCtx& ctx) {
        const int l = ctx.locale();
        std::int64_t folded = 0;
        for (const DeltaLogPage& p :
             logs_[static_cast<std::size_t>(l)].pages()) {
          if (p.seq <= applied_seq_ || p.seq > acked_seq_) continue;
          for (const EdgeDelta& d : p.decode()) {
            overlays_[static_cast<std::size_t>(l)].apply(
                d.row - base_.block(l).rlo, d.col, d.val,
                d.op == DeltaOp::kInsert);
            ++folded;
          }
        }
        CostVector c;
        c.add(CostKind::kCpuOps, 24.0 * static_cast<double>(folded));
        c.add(CostKind::kRandAccess, static_cast<double>(folded));
        ctx.parallel_region(c);
      });
    });
    applied_seq_ = acked_seq_;

    auto g = std::make_shared<DistCsr<double>>(
        DistCsr<double>::shell(grid_, base_.nrows(), base_.ncols()));
    run_stage([&] {
      std::vector<BlockArrays> arrays(static_cast<std::size_t>(n));
      for (int l = 0; l < n; ++l) {
        const auto& ov = overlays_[static_cast<std::size_t>(l)];
        auto& a = arrays[static_cast<std::size_t>(l)];
        a.rowptr.reserve(base_.block(l).csr.rowptr().size());
        a.colids.reserve(ov.max_nnz());
        a.vals.reserve(ov.max_nnz());
      }
      grid_.coforall_compute([&](LocaleCtx& ctx) {
        const int l = ctx.locale();
        const auto& ov = overlays_[static_cast<std::size_t>(l)];
        auto& a = arrays[static_cast<std::size_t>(l)];
        std::int64_t touched = 0;
        g->block(l).csr = ov.materialize(std::move(a.rowptr),
                                         std::move(a.colids),
                                         std::move(a.vals), &touched);
        // A clean block is modeled as sharing the base bytes, so nothing
        // is charged; the host copies it.
        if (ov.pending() == 0) return;
        CostVector c;
        c.add(CostKind::kStreamBytes, 16.0 * static_cast<double>(touched));
        c.add(CostKind::kCpuOps, 8.0 * static_cast<double>(touched));
        ctx.parallel_region(c);
      });
    });
    const std::int64_t pending = pending_deltas();
    const std::uint64_t epoch = store_.publish(h_, g);
    ++stats_.publishes;
    grid_.metrics().counter("ingest.publishes").inc();
    bool compacted = false;
    if (pending >= opt_.compact_every) {
      run_stage([&] { compact(*g); });
      compacted = true;
    }
    if (elog_ != nullptr) {
      elog_->emit(grid_.time(), "ingest.publish",
                  {{"epoch", ev_int(static_cast<std::int64_t>(epoch))},
                   {"seq", ev_int(acked_seq_)},
                   {"pending", ev_int(pending)},
                   {"compacted", ev_int(compacted ? 1 : 0)}});
    }
    return epoch;
  }

  /// Recovery entry point for kills that land *outside* an ingest stage
  /// (a query batch under run_resilient): the driver has already
  /// remapped the logical locale; this restores the ingest state it
  /// carried — base block from the buddy's checksummed copy, log pages
  /// from the buddy's mirror. Wire it through
  /// GraphService::set_rebuild_hook.
  void recover_after_rebuild(int logical) { recover(logical); }

  const IngestStats& stats() const { return stats_; }
  std::int64_t acked_seq() const { return acked_seq_; }
  std::int64_t applied_seq() const { return applied_seq_; }
  std::int64_t log_bytes() const {
    std::int64_t b = 0;
    for (const auto& l : logs_) b += l.bytes();
    return b;
  }
  std::int64_t pending_deltas() const {
    std::int64_t p = 0;
    for (const auto& ov : overlays_) p += ov.pending();
    return p;
  }
  const DeltaLog& log(int l) const {
    return logs_[static_cast<std::size_t>(l)];
  }

  /// Test hooks: the primary copies a kill "loses". Corrupting these and
  /// proving recovery still bit-matches shows rebuilds read replica
  /// bytes, not the primaries (same convention as ReplicaStore).
  Csr<double>& base_block_for_test(int l) { return base_.block(l).csr; }
  std::vector<unsigned char>& mirror_bytes_for_test(int l) {
    return mirror_[static_cast<std::size_t>(l)];
  }

 private:
  /// One block's arrays, reserved before the materialize dispatch.
  struct BlockArrays {
    std::vector<Index> rowptr;
    std::vector<Index> colids;
    std::vector<double> vals;
  };

  /// A delta tagged with its index in the batch: owners re-sort by it,
  /// so within-batch application order is the global batch order no
  /// matter how routing interleaved the shards.
  struct RoutedDelta {
    std::int64_t idx = 0;
    EdgeDelta d;
  };

  /// Runs one idempotent stage to completion, surviving locale kills: a
  /// stateless one-round loop under the resilient driver in degraded
  /// mode, with membership kept (the stream lives across many stages)
  /// and recover() as the failover hook. Rethrows past the failure
  /// budget, without a fault plan, or when the buddy is dead too.
  template <typename Fn>
  void run_stage(Fn&& fn) {
    RecoverableLoop<bool> stage;
    stage.init = [] { return false; };
    stage.step = [&fn](bool& done) {
      fn();
      done = true;
    };
    stage.done = [](const bool& done) { return done; };
    stage.result = [](bool& done) { return done; };
    ResilienceOptions opt;
    opt.policy = RecoveryPolicy::kDegraded;
    opt.retry = grid_.retry_policy();
    opt.keep_membership = true;
    opt.on_rebuild = [this](int logical) { recover(logical); };
    run_resilient(grid_, grid_.fault_plan(), stage, opt);
  }

  /// Serializes and checksums every base block on the host pool (no
  /// simulated time), each into a buffer reserved here at its exact
  /// size, then reships the changed blocks to their buddies.
  void replicate_base() {
    const int n = grid_.num_locales();
    std::vector<CheckpointBlock> fresh(static_cast<std::size_t>(n));
    for (int l = 0; l < n; ++l) {
      auto& blk = fresh[static_cast<std::size_t>(l)];
      blk.locale = l;
      blk.bytes.reserve(serialized_csr_bytes(base_.block(l).csr));
    }
    HostPool::instance().run(n, [&](int l) {
      auto& blk = fresh[static_cast<std::size_t>(l)];
      serialize_csr(base_.block(l).csr, &blk.bytes);
      blk.stamp();
    });
    std::int64_t shipped = 0;
    std::vector<std::int64_t> ship(static_cast<std::size_t>(n), 0);
    for (int l = 0; l < n; ++l) {
      CheckpointBlock& blk = fresh[static_cast<std::size_t>(l)];
      auto& cur = base_mirror_[static_cast<std::size_t>(l)];
      if (cur.bytes.empty() || cur.checksum != blk.checksum) {
        // Dirty block (first replication, or changed by compaction):
        // reship to the buddy.
        ship[static_cast<std::size_t>(l)] =
            static_cast<std::int64_t>(blk.bytes.size());
        shipped += ship[static_cast<std::size_t>(l)];
        cur = std::move(blk);
      }
    }
    if (shipped == 0) return;
    PGB_TRACE_SPAN(grid_, "ingest.replicate_base",
                   {{"bytes", std::to_string(shipped)}});
    const double bw = grid_.model().node.bw_core;
    grid_.coforall_locales([&](LocaleCtx& ctx) {
      const int l = ctx.locale();
      const std::int64_t b = ship[static_cast<std::size_t>(l)];
      if (b == 0) return;
      ctx.clock().advance(static_cast<double>(b) / bw);  // serialize
      ctx.remote_bulk(replica_buddy_of(l, grid_.num_locales()), b);
    });
    stats_.base_bytes += shipped;
    grid_.metrics().counter("ingest.base_bytes").inc(shipped);
  }

  void route_and_append(const MutationBatch& batch) {
    const int n = grid_.num_locales();
    staged_.assign(static_cast<std::size_t>(n), {});
    // Phase 1 — route: each locale takes a round-robin shard of the
    // batch and pushes every delta to its owner through a conveyor
    // aggregator (capacity-triggered bulk flushes, charged to the
    // simulated clocks). Delivery appends into the owner's staging.
    grid_.coforall_locales([&](LocaleCtx& ctx) {
      const int l = ctx.locale();
      DstAggregator<RoutedDelta> agg(
          ctx,
          [&](int peer, std::vector<RoutedDelta>& b) {
            auto& s = staged_[static_cast<std::size_t>(peer)];
            s.insert(s.end(), b.begin(), b.end());
          });
      std::int64_t mine = 0;
      for (std::size_t i = static_cast<std::size_t>(l);
           i < batch.deltas.size(); i += static_cast<std::size_t>(n)) {
        const EdgeDelta& d = batch.deltas[i];
        PGB_REQUIRE(d.row >= 0 && d.row < base_.nrows() && d.col >= 0 &&
                        d.col < base_.ncols(),
                    "ingest: delta coordinate out of range");
        agg.push(base_.dist().locale_of(d.row, d.col),
                 RoutedDelta{static_cast<std::int64_t>(i), d});
        ++mine;
      }
      agg.flush_all();
      CostVector c;
      c.add(CostKind::kCpuOps, 8.0 * static_cast<double>(mine));
      c.add(CostKind::kStreamBytes,
            static_cast<double>(kEdgeDeltaBytes) *
                static_cast<double>(mine));
      ctx.parallel_region(c);
    });
    // Phase 2 — log + mirror (the write-ahead step): each owner cuts
    // one page from its staged slice and ships the frame to its buddy
    // before anything is acknowledged. A kill at locale k's dispatch
    // leaves locales < k mirrored and >= k absent — exactly the torn
    // tail the replay path is built to discard.
    grid_.coforall_locales([&](LocaleCtx& ctx) {
      const int l = ctx.locale();
      auto& s = staged_[static_cast<std::size_t>(l)];
      std::sort(s.begin(), s.end(),
                [](const RoutedDelta& a, const RoutedDelta& b) {
                  return a.idx < b.idx;
                });
      std::vector<EdgeDelta> ds;
      ds.reserve(s.size());
      for (const RoutedDelta& rd : s) ds.push_back(rd.d);
      DeltaLogPage p = DeltaLogPage::encode(batch.seq, ds);
      const std::int64_t fb = p.frame_bytes();
      frame_append(mirror_[static_cast<std::size_t>(l)], p);
      ctx.remote_bulk(replica_buddy_of(l, grid_.num_locales()), fb);
      logs_[static_cast<std::size_t>(l)].append(std::move(p));
      stats_.log_bytes += fb;
      grid_.metrics().counter("ingest.log_bytes").inc(fb);
      CostVector c;
      c.add(CostKind::kStreamBytes, 2.0 * static_cast<double>(fb));
      ctx.parallel_region(c);
    });
  }

  /// Restores the dead locale's ingest state from its buddy and rolls
  /// every locale's log back to the durable (acked) boundary.
  void recover(int logical) {
    const int n = grid_.num_locales();
    const int buddy = replica_buddy_of(logical, n);
    // 1. Base block: the buddy's checksummed copy replaces the lost
    //    primary. A corrupt copy fails closed — better no recovery than
    //    a silently wrong graph.
    const CheckpointBlock& mb = base_mirror_[static_cast<std::size_t>(logical)];
    if (!mb.valid()) {
      throw Error("ingest: base replica of locale " +
                  std::to_string(logical) + " failed its checksum");
    }
    base_.block(logical).csr = deserialize_csr(mb.bytes.data(),
                                               mb.bytes.size());
    // 2. Delta log: replay the buddy's mirror up to the durable
    //    sequence number; torn/corrupt tail frames and intact-but-
    //    unacked frames are the discarded suffix.
    auto& mbytes = mirror_[static_cast<std::size_t>(logical)];
    ReplayResult rr =
        replay_log_bytes(mbytes.data(), mbytes.size(), acked_seq_);
    auto& dead_log = logs_[static_cast<std::size_t>(logical)];
    dead_log.clear();
    std::int64_t replayed_bytes = 0;
    for (DeltaLogPage& p : rr.pages) {
      replayed_bytes += p.frame_bytes();
      dead_log.append(std::move(p));
    }
    mbytes.resize(static_cast<std::size_t>(rr.bytes_consumed));
    // 3. Survivors roll back their own unacked suffix: those pages were
    //    never acknowledged, and the re-apply will regenerate them.
    for (int l = 0; l < n; ++l) {
      if (l == logical) continue;
      auto& lg = logs_[static_cast<std::size_t>(l)];
      if (lg.last_seq() > acked_seq_) {
        lg.truncate_after(acked_seq_);
        mirror_[static_cast<std::size_t>(l)] = lg.serialize();
      }
    }
    // 4. The dead locale's overlay died with it: refold the already-
    //    applied prefix of the restored log over the restored base.
    overlays_[static_cast<std::size_t>(logical)]
        .rebase(&base_.block(logical).csr);
    std::int64_t refolded = 0;
    for (const DeltaLogPage& p : dead_log.pages()) {
      if (p.seq > applied_seq_) break;
      for (const EdgeDelta& d : p.decode()) {
        overlays_[static_cast<std::size_t>(logical)].apply(
            d.row - base_.block(logical).rlo, d.col, d.val,
            d.op == DeltaOp::kInsert);
        ++refolded;
      }
    }
    // 5. Charge the restore: the adopted host pulls the base block and
    //    the mirror bytes from the buddy (a local read after a degraded
    //    remap — the point of degrading onto the buddy) and streams the
    //    refold.
    const std::int64_t pulled =
        static_cast<std::int64_t>(mb.bytes.size()) + replayed_bytes;
    PGB_TRACE_SPAN(grid_, "ingest.replay",
                   {{"locale", std::to_string(logical)},
                    {"pages", std::to_string(rr.pages.size())},
                    {"bytes", std::to_string(pulled)}});
    grid_.coforall_locales([&](LocaleCtx& ctx) {
      if (ctx.locale() != logical) return;
      ctx.remote_bulk(buddy, pulled);
      CostVector c;
      c.add(CostKind::kStreamBytes, static_cast<double>(pulled));
      c.add(CostKind::kCpuOps, 24.0 * static_cast<double>(refolded));
      ctx.parallel_region(c);
    });
    ++stats_.replays;
    stats_.pages_replayed += static_cast<std::int64_t>(rr.pages.size());
    stats_.pages_discarded += rr.pages_discarded;
    auto& mx = grid_.metrics();
    mx.counter("ingest.replays").inc();
    mx.counter("ingest.pages_replayed")
        .inc(static_cast<std::int64_t>(rr.pages.size()));
    mx.counter("ingest.pages_discarded").inc(rr.pages_discarded);
    if (elog_ != nullptr) {
      elog_->emit(grid_.time(), "ingest.replay",
                  {{"locale", ev_int(logical)},
                   {"pages", ev_int(static_cast<std::int64_t>(rr.pages.size()))},
                   {"discarded_pages", ev_int(rr.pages_discarded)},
                   {"discarded_bytes", ev_int(rr.bytes_discarded)},
                   {"torn", ev_int(rr.torn_tail ? 1 : 0)},
                   {"durable_seq", ev_int(acked_seq_)}});
    }
  }

  /// Swaps the base to the just-published matrix, truncates the folded
  /// log prefix (and the mirrors with it), and re-replicates the
  /// changed base blocks to the buddies.
  void compact(const DistCsr<double>& g) {
    const int n = grid_.num_locales();
    PGB_TRACE_SPAN(grid_, "ingest.compact",
                   {{"seq", std::to_string(acked_seq_)}});
    base_ = g;
    for (int l = 0; l < n; ++l) {
      overlays_[static_cast<std::size_t>(l)].rebase(&base_.block(l).csr);
      logs_[static_cast<std::size_t>(l)].truncate_through(acked_seq_);
      mirror_[static_cast<std::size_t>(l)] =
          logs_[static_cast<std::size_t>(l)].serialize();
    }
    replicate_base();
    ++stats_.compactions;
    grid_.metrics().counter("ingest.compactions").inc();
  }

  LocaleGrid& grid_;
  GraphStore& store_;
  GraphStore::HandleId h_;
  DistCsr<double> base_;  ///< last compacted base (the primary copy)
  IngestOptions opt_;
  ServiceEventLog* elog_ = nullptr;

  std::vector<CsrOverlay<double>> overlays_;  ///< pending deltas per block
  std::vector<DeltaLog> logs_;                ///< primary per-locale logs
  /// Buddy-held mirror of each locale's log (flat frame bytes,
  /// physically distinct from the primary pages — replay parses these).
  std::vector<std::vector<unsigned char>> mirror_;
  /// Buddy-held checksummed copy of each locale's base block.
  std::vector<CheckpointBlock> base_mirror_;
  std::vector<std::vector<RoutedDelta>> staged_;  ///< per-apply scratch

  std::int64_t acked_seq_ = 0;    ///< last durable (acknowledged) batch
  std::int64_t applied_seq_ = 0;  ///< last batch folded into the overlays
  IngestStats stats_;
};

}  // namespace pgb
