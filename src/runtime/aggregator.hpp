// Conveyor-style communication aggregation for the locale-grid runtime.
//
// The paper's distributed figures (8-9) show fine-grained element-by-
// element access dominating SpMSpV and Assign; its conclusion names a
// bulk-synchronous schedule as the remedy. Bale/conveyors and Chapel's
// SrcAggregator/DstAggregator implement that remedy as a reusable layer:
// each task keeps a small buffer per destination locale, appends elements
// locally, and ships a whole buffer as one bulk transfer when it fills
// (or on an explicit flush). This header is that layer for pgas-graphblas:
//
//   DstAggregator<T>  buffered remote puts/accumulations — push(peer, t)
//                     appends to the peer's buffer; a full buffer is
//                     delivered to the caller's sink in one flush.
//   SrcAggregator<T>  buffered remote gets — get(peer, req) queues a
//                     request; a flush ships the request batch and the
//                     response batch as two bulks.
//   PutCounts         DstAggregator's charging without its buffers, for
//                     callers whose receivers read the data themselves:
//                     push(peer, n) charges the flushes n single pushes
//                     would.
//   AggChannel        the shared flush pipeline: charges the machine
//                     model (one remote_bulk per flush plus a small
//                     header round trip), models double-buffered overlap
//                     of transfers with ongoing buffering, and counts
//                     per-aggregator stats.
//
// The data really moves: deliver callbacks run for real, so results are
// bit-identical to the fine-grained schedule (per-peer FIFO order keeps
// even floating-point accumulation order unchanged). Only the *charging*
// differs — N fine-grained messages collapse into ceil(N/capacity) bulk
// flushes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runtime/locale_grid.hpp"

namespace pgb {

/// Communication schedule for distributed kernels with a gather/scatter
/// structure. kFine is the paper's element-by-element code; kBulk is one
/// hand-rolled transfer per peer; kAggregated is the conveyor schedule
/// above (per-peer buffers, capacity-triggered bulk flushes). kAuto
/// defers the choice to the grid's inspector–executor (runtime/
/// inspector.hpp), which prices fine/bulk/agg — plus read-only
/// replication with epoch-cached reads — per call site per wave and
/// binds the cheapest; outputs stay byte-identical either way.
enum class CommMode {
  kFine,
  kBulk,
  kAggregated,
  kAuto,
};

const char* to_string(CommMode m);

/// Parses "fine" | "bulk" | "agg" (or "aggregated") | "auto"; throws
/// InvalidArgument (enumerating the accepted modes) otherwise.
CommMode parse_comm_mode(const std::string& s);

/// Bytes of an aggregator flush's header (count + base address).
inline constexpr std::int64_t kAggHeaderBytes = 8;

/// Elements an aggregator buffers per peer before a capacity-triggered
/// flush, unless its caller says otherwise.
inline constexpr std::int64_t kAggCapacity = 2048;

/// Per-aggregator counters, reported by benches as the message-count
/// reduction of aggregation. Self-peer traffic never reaches the network
/// and is counted separately.
struct AggregatorStats {
  std::int64_t pushed = 0;        ///< elements routed through the aggregator
  std::int64_t flushes = 0;       ///< buffer drains that hit the network
  std::int64_t local_flushes = 0; ///< self-peer buffer drains (no comm)
  std::int64_t messages = 0;      ///< modeled one-way network messages
  std::int64_t bytes = 0;         ///< payload + request bytes moved
  std::int64_t resends = 0;       ///< flush re-sends forced by the fault plan
};

/// The flush pipeline shared by both aggregator directions. Usable on its
/// own for "chunked bulk" patterns where the remote range is known and no
/// per-element request payload is needed (e.g. the SpMSpV gather of whole
/// input-vector pieces).
///
/// Delivery guarantees: every flush carries a per-channel sequence
/// number and its header round trip doubles as the ack. When the grid
/// has a fault plan attached, a dropped or corrupted flush is re-sent
/// (with the same sequence number) per the grid's RetryPolicy — resends
/// re-pay the transfer through the network model and occupy the
/// double-buffered injection channel — and a duplicated flush is
/// deduplicated by sequence number at the receiver, so the caller's
/// deliver callback always runs exactly once per flush, in per-peer
/// FIFO order. That keeps the byte-identity invariant of the
/// aggregated schedule even under chaos.
class AggChannel {
 public:
  /// Flushes at most `capacity` elements at a time. `contention` models
  /// receiver-side serialization: each transfer's cost is scaled by it
  /// when several locales converge on one peer (the same convention as
  /// the hand-rolled bulk paths).
  AggChannel(LocaleCtx& ctx, std::int64_t capacity, double contention = 1.0);

  std::int64_t capacity() const { return capacity_; }
  const AggregatorStats& stats() const { return stats_; }
  LocaleCtx& ctx() { return ctx_; }

  void count_push(std::int64_t n = 1) { stats_.pushed += n; }

  /// One buffered-put flush: header round trip + one bulk of `bytes` to
  /// `peer`. No-op (beyond stats) for the self peer. `elems` (when >= 0)
  /// is the batch's element count, observed into the occupancy
  /// histogram (`agg.occupancy{dir=put}`).
  void flush_put(int peer, std::int64_t bytes, std::int64_t elems = -1);

  /// One buffered-get flush: header round trip + request bulk out +
  /// response bulk back.
  void flush_get(int peer, std::int64_t req_bytes, std::int64_t resp_bytes,
                 std::int64_t elems = -1);

  /// Chunked read of `count` remote elements whose location is already
  /// known to the target (no request payload): capacity-sized flush_gets.
  void get_elems(int peer, std::int64_t count, std::int64_t bytes_each);

  /// Joins the in-flight transfer (double buffering). Call after the last
  /// flush; flush_all() of the aggregators does this for you.
  void drain();

 private:
  void issue(int peer, double cost, std::int64_t msgs, std::int64_t bytes,
             bool is_get, std::int64_t elems);

  LocaleCtx& ctx_;
  std::int64_t capacity_;
  double contention_;
  AggregatorStats stats_;
  double inflight_end_ = 0.0;  ///< sim time the queued transfers complete
  /// Epoch guard: a channel constructed before a grid.reset() must not
  /// charge clocks or stats into the new epoch when a destructor flush
  /// drains it afterwards (the data is still delivered — only the
  /// modeled charging goes quiet).
  std::uint64_t epoch_ = 0;
  std::int64_t next_seq_ = 0;  ///< per-channel flush sequence number
};

/// Per-peer state of one initiator, kept only over the span of peers it
/// touched: storage covers [lowest, highest] peer seen so far, not
/// num_locales(), so a scatter that talks to ~pr owners holds ~pr
/// entries and one initiator per locale body stays O(L) per coforall
/// instead of O(L²). The span grows geometrically at either end, so any
/// access order is amortized O(1) per peer.
template <typename V>
class PeerSpan {
 public:
  /// `peer`'s entry, widening the span to cover it.
  V& at(int peer) {
    const int n = static_cast<int>(vals_.size());
    if (n == 0) {
      lo_ = peer;
    } else if (peer < lo_) {
      // Doubling toward peer 0 (never below it) keeps a descending push
      // order from shifting the whole span on every new peer.
      const int grow = std::max(lo_ - peer, std::min(lo_, n));
      vals_.insert(vals_.begin(), static_cast<std::size_t>(grow), V{});
      lo_ -= grow;
    }
    if (peer - lo_ >= static_cast<int>(vals_.size())) {
      vals_.resize(static_cast<std::size_t>(peer - lo_ + 1));
    }
    return vals_[static_cast<std::size_t>(peer - lo_)];
  }

  /// `peer`'s entry, or nullptr when the peer lies outside the span.
  V* find(int peer) {
    const int i = peer - lo_;
    if (i < 0 || i >= static_cast<int>(vals_.size())) return nullptr;
    return &vals_[static_cast<std::size_t>(i)];
  }

  /// `peer`'s entry, or V{} when the peer lies outside the span.
  V value(int peer) const {
    const int i = peer - lo_;
    return i >= 0 && i < static_cast<int>(vals_.size())
               ? vals_[static_cast<std::size_t>(i)]
               : V{};
  }

  /// Peers the span covers, ascending: [first(), end()).
  int first() const { return lo_; }
  int end() const { return lo_ + static_cast<int>(vals_.size()); }

 private:
  int lo_ = 0;
  std::vector<V> vals_;
};

/// Per-peer buffers of one aggregator.
template <typename T>
using PeerBuffers = PeerSpan<std::vector<T>>;

/// Buffered remote puts/accumulations. `deliver(peer, batch)` performs
/// the real write on the destination's data; it runs once per flush, in
/// per-peer FIFO order, and must not push into the same aggregator.
template <typename T>
class DstAggregator {
 public:
  using DeliverFn = std::function<void(int peer, std::vector<T>& batch)>;

  DstAggregator(LocaleCtx& ctx, DeliverFn deliver,
                std::int64_t capacity = kAggCapacity)
      : chan_(ctx, capacity), deliver_(std::move(deliver)) {}

  DstAggregator(const DstAggregator&) = delete;
  DstAggregator& operator=(const DstAggregator&) = delete;

  ~DstAggregator() { flush_all(); }

  void push(int peer, T item) {
    chan_.count_push();
    auto& b = buf_.at(peer);
    b.push_back(std::move(item));
    if (static_cast<std::int64_t>(b.size()) >= chan_.capacity()) {
      flush(peer);
    }
  }

  /// Ships `peer`'s buffer now, regardless of fill level.
  void flush(int peer) {
    auto* b = buf_.find(peer);
    if (b == nullptr || b->empty()) return;
    chan_.flush_put(peer, static_cast<std::int64_t>(b->size() * sizeof(T)),
                    static_cast<std::int64_t>(b->size()));
    deliver_(peer, *b);
    b->clear();
  }

  /// Ships every non-empty buffer, in ascending peer order, and joins
  /// the in-flight transfer.
  void flush_all() {
    for (int p = buf_.first(); p < buf_.end(); ++p) flush(p);
    chan_.drain();
  }

  const AggregatorStats& stats() const { return chan_.stats(); }

 private:
  AggChannel chan_;
  DeliverFn deliver_;
  PeerBuffers<T> buf_;
};

/// The flushes of a DstAggregator of `elem_bytes`-byte elements, for a
/// caller that moves the data some other way: push(peer, n) charges and
/// counts exactly what n single DstAggregator pushes to `peer` would, and
/// so does flush_all().
class PutCounts {
 public:
  PutCounts(LocaleCtx& ctx, std::int64_t capacity, double contention,
            std::int64_t elem_bytes)
      : chan_(ctx, capacity, contention), elem_bytes_(elem_bytes) {}

  PutCounts(const PutCounts&) = delete;
  PutCounts& operator=(const PutCounts&) = delete;

  ~PutCounts() { flush_all(); }

  void push(int peer, std::int64_t n) {
    chan_.count_push(n);
    std::int64_t& fill = fill_.at(peer);
    fill += n;
    // A buffer ships the moment it reaches capacity.
    const std::int64_t cap = chan_.capacity();
    for (; fill >= cap; fill -= cap) flush_put(peer, cap);
  }

  /// Ships every non-empty buffer, in ascending peer order, and joins
  /// the in-flight transfer.
  void flush_all() {
    for (int p = fill_.first(); p < fill_.end(); ++p) {
      std::int64_t& fill = *fill_.find(p);
      if (fill == 0) continue;
      flush_put(p, fill);
      fill = 0;
    }
    chan_.drain();
  }

  const AggregatorStats& stats() const { return chan_.stats(); }

 private:
  void flush_put(int peer, std::int64_t n) {
    chan_.flush_put(peer, n * elem_bytes_, n);
  }

  AggChannel chan_;
  std::int64_t elem_bytes_;
  PeerSpan<std::int64_t> fill_;
};

/// Buffered remote gets. `T` is the request record (e.g. {output slot,
/// remote index}); `deliver(peer, batch)` resolves a request batch
/// against the peer's data and stores the results — the response payload
/// is modeled as `resp_bytes_each` per request.
template <typename T>
class SrcAggregator {
 public:
  using DeliverFn = std::function<void(int peer, std::vector<T>& batch)>;

  SrcAggregator(LocaleCtx& ctx, DeliverFn deliver,
                std::int64_t capacity = kAggCapacity, double contention = 1.0,
                std::int64_t resp_bytes_each = 8)
      : chan_(ctx, capacity, contention),
        deliver_(std::move(deliver)),
        resp_bytes_each_(resp_bytes_each) {}

  SrcAggregator(const SrcAggregator&) = delete;
  SrcAggregator& operator=(const SrcAggregator&) = delete;

  ~SrcAggregator() { flush_all(); }

  void get(int peer, T request) {
    chan_.count_push();
    auto& b = buf_.at(peer);
    b.push_back(std::move(request));
    if (static_cast<std::int64_t>(b.size()) >= chan_.capacity()) {
      flush(peer);
    }
  }

  void flush(int peer) {
    auto* b = buf_.find(peer);
    if (b == nullptr || b->empty()) return;
    const auto n = static_cast<std::int64_t>(b->size());
    chan_.flush_get(peer, n * static_cast<std::int64_t>(sizeof(T)),
                    n * resp_bytes_each_, n);
    deliver_(peer, *b);
    b->clear();
  }

  void flush_all() {
    for (int p = buf_.first(); p < buf_.end(); ++p) flush(p);
    chan_.drain();
  }

  const AggregatorStats& stats() const { return chan_.stats(); }

 private:
  AggChannel chan_;
  DeliverFn deliver_;
  std::int64_t resp_bytes_each_;
  PeerBuffers<T> buf_;
};

}  // namespace pgb
