// Replicated, checksummed delta log for streaming graph ingestion.
//
// A MutationBatch is a sequence-numbered block of edge inserts/deletes
// guarded by an FNV-1a checksum (util/fnv.hpp). Owner
// locales append their slice of each batch to a per-locale DeltaLog as
// one *page* — a framed, self-checksummed record — and mirror the frame
// bytes to the PR-5 buddy locale before the batch is acknowledged.
// The write-ahead contract: once a batch is acked, every page it wrote
// is replayable from the buddy's mirror; before the ack, a kill may
// leave a torn tail, and replay must detect it by checksum and discard
// exactly the unacknowledged suffix.
//
// Frame format (little-endian host layout, 32-byte header):
//   [seq:i64][count:i64][len:i64][checksum:u64][payload: len bytes]
// The checksum covers seq, count, and the payload, so a frame spliced
// from two writes (torn mid-page) or bit-flipped in flight fails closed.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "fault/checkpoint.hpp"
#include "runtime/dist.hpp"
#include "util/error.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"

namespace pgb {

enum class DeltaOp : std::int32_t {
  kInsert = 0,  ///< insert or overwrite the edge's value
  kDelete = 1,  ///< remove the edge (no-op when absent)
};

/// One edge mutation against the global graph.
struct EdgeDelta {
  Index row = 0;
  Index col = 0;
  double val = 0.0;
  DeltaOp op = DeltaOp::kInsert;
};

/// Serialized size of one delta (explicit per-field layout: no struct
/// padding leaks into checksums or mirrors).
inline constexpr std::int64_t kEdgeDeltaBytes = 8 + 8 + 8 + 4;

inline void delta_append(std::vector<unsigned char>& out, const EdgeDelta& d) {
  const auto put = [&out](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    out.insert(out.end(), b, b + n);
  };
  put(&d.row, sizeof(d.row));
  put(&d.col, sizeof(d.col));
  put(&d.val, sizeof(d.val));
  const std::int32_t op = static_cast<std::int32_t>(d.op);
  put(&op, sizeof(op));
}

inline EdgeDelta delta_read(const unsigned char* p) {
  EdgeDelta d;
  std::memcpy(&d.row, p, 8);
  std::memcpy(&d.col, p + 8, 8);
  std::memcpy(&d.val, p + 16, 8);
  std::int32_t op = 0;
  std::memcpy(&op, p + 24, 4);
  d.op = static_cast<DeltaOp>(op);
  return d;
}

/// A sequence-numbered batch of mutations with a whole-batch checksum.
/// The producer stamps it; routing re-verifies before any page is cut.
struct MutationBatch {
  std::int64_t seq = 0;
  std::vector<EdgeDelta> deltas;
  std::uint64_t checksum = 0;

  std::uint64_t compute_checksum() const {
    std::uint64_t h = fnv1a_extend(kPgbFnvBasis, &seq, sizeof(seq));
    std::vector<unsigned char> buf;
    buf.reserve(static_cast<std::size_t>(kEdgeDeltaBytes));
    for (const EdgeDelta& d : deltas) {
      buf.clear();
      delta_append(buf, d);
      h = fnv1a_extend(h, buf.data(), buf.size());
    }
    return h;
  }
  void stamp() { checksum = compute_checksum(); }
  bool valid() const { return checksum == compute_checksum(); }
};

/// One framed page of a per-locale delta log: the slice of one batch
/// owned by one locale. Pages are what travel to the buddy mirror and
/// what replay verifies.
struct DeltaLogPage {
  std::int64_t seq = -1;
  std::int64_t count = 0;
  std::vector<unsigned char> payload;  ///< count serialized EdgeDeltas
  std::uint64_t checksum = 0;

  static DeltaLogPage encode(std::int64_t seq,
                             const std::vector<EdgeDelta>& deltas) {
    DeltaLogPage p;
    p.seq = seq;
    p.count = static_cast<std::int64_t>(deltas.size());
    p.payload.reserve(deltas.size() *
                      static_cast<std::size_t>(kEdgeDeltaBytes));
    for (const EdgeDelta& d : deltas) delta_append(p.payload, d);
    p.stamp();
    return p;
  }

  std::uint64_t compute_checksum() const {
    std::uint64_t h = fnv1a_extend(kPgbFnvBasis, &seq, sizeof(seq));
    h = fnv1a_extend(h, &count, sizeof(count));
    h = fnv1a_extend(h, payload.data(), payload.size());
    return h;
  }
  void stamp() { checksum = compute_checksum(); }
  /// Checksum matches and the payload holds exactly `count` deltas
  /// (compared by division: `count` is untrusted wire data).
  bool valid() const {
    const auto n = static_cast<std::int64_t>(payload.size());
    return checksum == compute_checksum() && n % kEdgeDeltaBytes == 0 &&
           count == n / kEdgeDeltaBytes;
  }

  std::vector<EdgeDelta> decode() const {
    PGB_REQUIRE(valid(), "delta log: decode of an invalid page");
    std::vector<EdgeDelta> out;
    out.reserve(static_cast<std::size_t>(count));
    for (std::int64_t i = 0; i < count; ++i) {
      out.push_back(delta_read(payload.data() + i * kEdgeDeltaBytes));
    }
    return out;
  }

  /// Bytes of the page as framed on the wire / in the mirror.
  std::int64_t frame_bytes() const {
    return 32 + static_cast<std::int64_t>(payload.size());
  }
};

inline constexpr std::int64_t kPageHeaderBytes = 32;

/// Appends a page's frame to a flat byte stream (the mirror format).
inline void frame_append(std::vector<unsigned char>& out,
                         const DeltaLogPage& p) {
  const auto put = [&out](const void* q, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(q);
    out.insert(out.end(), b, b + n);
  };
  const std::int64_t len = static_cast<std::int64_t>(p.payload.size());
  put(&p.seq, sizeof(p.seq));
  put(&p.count, sizeof(p.count));
  put(&len, sizeof(len));
  put(&p.checksum, sizeof(p.checksum));
  out.insert(out.end(), p.payload.begin(), p.payload.end());
}

/// One locale's delta log: pages in ascending batch-sequence order.
class DeltaLog {
 public:
  void append(DeltaLogPage p) {
    PGB_REQUIRE(pages_.empty() || p.seq > pages_.back().seq,
                "delta log: page sequence numbers must increase");
    bytes_ += p.frame_bytes();
    pages_.push_back(std::move(p));
  }

  /// Drops every page with seq > `seq` (rollback of an unacked suffix).
  void truncate_after(std::int64_t seq) {
    while (!pages_.empty() && pages_.back().seq > seq) {
      bytes_ -= pages_.back().frame_bytes();
      pages_.pop_back();
    }
  }

  /// Drops every page with seq <= `seq` (compaction of the folded
  /// prefix).
  void truncate_through(std::int64_t seq) {
    std::size_t n = 0;
    while (n < pages_.size() && pages_[n].seq <= seq) {
      bytes_ -= pages_[n].frame_bytes();
      ++n;
    }
    pages_.erase(pages_.begin(), pages_.begin() + static_cast<std::ptrdiff_t>(n));
  }

  void clear() {
    pages_.clear();
    bytes_ = 0;
  }

  const std::vector<DeltaLogPage>& pages() const { return pages_; }
  std::int64_t size() const { return static_cast<std::int64_t>(pages_.size()); }
  std::int64_t bytes() const { return bytes_; }
  std::int64_t last_seq() const {
    return pages_.empty() ? -1 : pages_.back().seq;
  }

  /// The mirror wire format: every page's frame, concatenated.
  std::vector<unsigned char> serialize() const {
    std::vector<unsigned char> out;
    out.reserve(static_cast<std::size_t>(bytes_));
    for (const DeltaLogPage& p : pages_) frame_append(out, p);
    return out;
  }

 private:
  std::vector<DeltaLogPage> pages_;
  std::int64_t bytes_ = 0;
};

/// Outcome of replaying a mirrored log byte stream.
struct ReplayResult {
  std::vector<DeltaLogPage> pages;    ///< intact, durable pages in order
  std::int64_t bytes_consumed = 0;    ///< prefix accepted
  std::int64_t bytes_discarded = 0;   ///< torn/corrupt/unacked suffix dropped
  std::int64_t pages_discarded = 0;   ///< parseable frames dropped (unacked)
  std::int64_t last_seq = -1;         ///< highest replayed sequence number
  bool torn_tail = false;  ///< stopped on a truncated or corrupt frame
                           ///< (vs a clean stop at the durable boundary)
};

/// Walks a mirrored log byte stream and returns the replayable prefix:
/// frames are accepted in order while (a) the frame is complete, (b) its
/// checksum verifies, (c) its sequence number is non-negative and above
/// the previous frame's, and (d) it is <= `durable_seq` (the last
/// acknowledged batch). The first violation stops the walk —
/// everything after is the discarded suffix. Never throws: a torn or
/// corrupt tail is an expected artifact of a kill mid-batch, not a
/// programming error.
inline ReplayResult replay_log_bytes(const unsigned char* data, std::size_t n,
                                     std::int64_t durable_seq) {
  ReplayResult r;
  std::size_t off = 0;
  bool stopped = false;
  while (off + static_cast<std::size_t>(kPageHeaderBytes) <= n) {
    DeltaLogPage p;
    std::int64_t len = 0;
    std::memcpy(&p.seq, data + off, 8);
    std::memcpy(&p.count, data + off + 8, 8);
    std::memcpy(&len, data + off + 16, 8);
    std::memcpy(&p.checksum, data + off + 24, 8);
    if (len < 0 || p.count < 0 ||
        off + static_cast<std::size_t>(kPageHeaderBytes) +
                static_cast<std::size_t>(len) > n) {
      r.torn_tail = true;  // truncated frame: a torn tail write
      stopped = true;
      break;
    }
    p.payload.assign(data + off + kPageHeaderBytes,
                     data + off + kPageHeaderBytes + len);
    if (!p.valid() || p.seq <= r.last_seq) {
      r.torn_tail = true;  // checksum mismatch or out of order: corrupt
      stopped = true;
      break;
    }
    if (p.seq > durable_seq) {
      // Intact but never acknowledged: the write-ahead contract only
      // covers acked batches, so the suffix is dropped wholesale.
      ++r.pages_discarded;
      stopped = true;
      break;
    }
    off += static_cast<std::size_t>(p.frame_bytes());
    r.last_seq = p.seq;
    r.pages.push_back(std::move(p));
  }
  // Trailing bytes too short to even hold a frame header are a torn
  // partial write, same as a frame cut mid-payload.
  if (!stopped && off < n) r.torn_tail = true;
  r.bytes_consumed = static_cast<std::int64_t>(off);
  r.bytes_discarded = static_cast<std::int64_t>(n - off);
  return r;
}

/// Relative weights of inserts and deletes in a mutation stream.
struct IngestMix {
  std::int64_t insert = 1;
  std::int64_t erase = 0;
  std::int64_t total() const { return insert + erase; }
};

/// Seeded mutation-stream generator: the batch stream is a pure function
/// of the seed, so fault-free and kill runs ingest identical deltas.
using MutationRng = SplitMix64;

/// Draws one batch of `count` mutations over an n-vertex graph. With
/// `symmetric`, each drawn edge contributes both (r, c) and (c, r) —
/// the undirected update model the incremental CC path needs.
inline MutationBatch make_mutation_batch(MutationRng& rng, Index n, int count,
                                         const IngestMix& mix,
                                         std::int64_t seq,
                                         bool symmetric = false) {
  PGB_REQUIRE(n > 0, "ingest: mutation stream needs a non-empty graph");
  PGB_REQUIRE(count >= 1, "ingest: batch size must be >= 1");
  PGB_REQUIRE(mix.insert >= 0 && mix.erase >= 0 && mix.total() > 0,
              "ingest: mix weights must be >= 0 with positive total");
  MutationBatch b;
  b.seq = seq;
  b.deltas.reserve(static_cast<std::size_t>(count) * (symmetric ? 2 : 1));
  for (int i = 0; i < count; ++i) {
    EdgeDelta d;
    d.row = static_cast<Index>(rng.next() % static_cast<std::uint64_t>(n));
    d.col = static_cast<Index>(rng.next() % static_cast<std::uint64_t>(n));
    const std::int64_t w = static_cast<std::int64_t>(
        rng.next() % static_cast<std::uint64_t>(mix.total()));
    d.op = w < mix.insert ? DeltaOp::kInsert : DeltaOp::kDelete;
    // Quantized weight in (0, 1]: bit-stable across platforms.
    d.val = static_cast<double>(1 + rng.next() % 1000) / 1000.0;
    b.deltas.push_back(d);
    if (symmetric && d.row != d.col) {
      EdgeDelta m = d;
      m.row = d.col;
      m.col = d.row;
      b.deltas.push_back(m);
    }
  }
  b.stamp();
  return b;
}

}  // namespace pgb
