// In-memory block replication for degraded-mode recovery (header-only,
// like checkpoint.hpp; sits above runtime/sparse in the layering).
//
// Where checkpoint.hpp models a *stable store* (every locale ships its
// blocks out at burst-buffer bandwidth, restores are global), the
// ReplicaStore keeps each locale's registered state blocks mirrored in
// the *memory of a deterministic buddy locale* (or XOR-folded into a
// parity group for lower memory overhead). Replicas are kept fresh by
// incremental update-log shipping: at every phase boundary the staged
// snapshot is diffed chunk-by-chunk against the last flushed copy and
// only dirty chunks travel, through the normal LocaleCtx::transfer()
// path, so replication traffic is charged to the simulated clocks,
// rides any attached fault plan, and shows up in traces
// (`replica.bytes`, `replica.flushes`, `replica.flush` spans).
//
// The replica bytes are real: the mirror (or parity fold) holds
// physically distinct buffers, a buddy rebuild reads them back, and a
// parity rebuild recomputes the lost block as parity XOR surviving
// members — checksum-verified. Tests corrupt the primary copy of a
// "dead" locale and prove the rebuilt state still comes out right.
//
// Failure tolerance: one locale at a time (the classic single-fault
// model). A second failure is survivable as long as it does not take
// out the buddy (or a parity-group peer) of an unrecovered locale —
// the resilient driver (recovery.hpp) rethrows LocaleFailed when it does.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/checkpoint.hpp"
#include "obs/span.hpp"
#include "runtime/locale_grid.hpp"
#include "util/error.hpp"

namespace pgb {

enum class ReplicaScheme {
  kBuddy,   ///< full mirror at a deterministic buddy locale (2x memory)
  kParity,  ///< RAID-5-style XOR fold per parity group (n/G extra memory)
};

inline const char* to_string(ReplicaScheme s) {
  return s == ReplicaScheme::kBuddy ? "buddy" : "parity";
}

struct ReplicaOptions {
  ReplicaScheme scheme = ReplicaScheme::kBuddy;
  /// Locales per XOR parity group (kParity). Must satisfy
  /// 2 <= parity_group < num_locales so a group's parity can live
  /// outside the group (otherwise one death loses data + parity).
  int parity_group = 4;
  /// Dirty-tracking granularity of the incremental update log: a flush
  /// ships only the chunks whose bytes changed since the last flush,
  /// plus a kChunkHeaderBytes header per chunk.
  std::int64_t chunk_bytes = 4096;
};

/// Modeled per-chunk shipping header (offset + length + checksum).
inline constexpr std::int64_t kChunkHeaderBytes = 16;

/// Deterministic buddy assignment: the locale half the ring away, so
/// buddy pairs straddle node boundaries under every locales_per_node
/// packing and a single node loss cannot take a locale and its buddy.
inline int replica_buddy_of(int logical, int num_locales) {
  const int stride = num_locales / 2 > 0 ? num_locales / 2 : 1;
  return (logical + stride) % num_locales;
}

class ReplicaStore {
 public:
  /// `static_bytes`: unchanging state (the matrix blocks, grid total)
  /// replicated once here; a rebuilt locale re-pulls its 1/n share from
  /// its buddy instead of the stable store.
  ReplicaStore(LocaleGrid& grid, ReplicaOptions opt,
               std::int64_t static_bytes = 0)
      : grid_(grid), opt_(opt), static_bytes_(static_bytes) {
    PGB_REQUIRE(grid.num_locales() >= 2,
                "replica: need at least two locales to replicate");
    PGB_REQUIRE(opt_.chunk_bytes >= 1, "replica: chunk_bytes must be >= 1");
    if (opt_.scheme == ReplicaScheme::kParity) {
      PGB_REQUIRE(opt_.parity_group >= 2,
                  "replica: parity_group must be >= 2");
      PGB_REQUIRE(opt_.parity_group < grid.num_locales(),
                  "replica: parity_group must be < num_locales (a group's "
                  "parity must live outside the group)");
    }
    if (static_bytes_ > 0) {
      // One-time replication of the static state: each locale ships its
      // share to wherever its dynamic replicas will live.
      PGB_TRACE_SPAN(grid_, "replica.setup",
                     {{"bytes", std::to_string(static_bytes_)}});
      const std::int64_t share = static_bytes_ / grid_.num_locales();
      grid_.coforall_locales([&](LocaleCtx& ctx) {
        ctx.remote_bulk(replica_target(ctx.locale()), share);
      });
      shipped_bytes_ += static_bytes_;
      grid_.metrics().counter("replica.bytes").inc(static_bytes_);
    }
  }

  const ReplicaOptions& options() const { return opt_; }

  int buddy_of(int logical) const {
    return replica_buddy_of(logical, grid_.num_locales());
  }

  /// Where logical `l`'s replica lives: its buddy (kBuddy) or its parity
  /// group's holder (kParity) — a *logical* locale, so placement follows
  /// the membership mapping automatically after a remap.
  int replica_target(int l) const {
    if (opt_.scheme == ReplicaScheme::kBuddy) return buddy_of(l);
    return parity_holder(group_of(l));
  }

  int group_of(int l) const { return l / opt_.parity_group; }

  /// Parity of group g lives at the first member of the next group
  /// (ring order), which the parity_group < n precondition keeps outside
  /// group g — so one death never costs a group both a member block and
  /// its parity.
  int parity_holder(int g) const {
    return ((g + 1) * opt_.parity_group) % grid_.num_locales();
  }

  /// The scratch snapshot the loop serializes its state into each round
  /// (via RecoverableLoop::save) before calling flush().
  Checkpoint& staging() { return staging_; }

  /// Round of the last *completed* flush (-1: none yet). A flush
  /// interrupted by a locale kill never promotes, so rebuilds resume
  /// from the previous consistent round.
  std::int64_t protected_round() const { return protected_round_; }

  /// Total replica bytes shipped so far (setup + incremental flushes).
  std::int64_t shipped_bytes() const { return shipped_bytes_; }

  /// Phase-boundary flush: diff staging vs the last flushed copy chunk
  /// by chunk, ship dirty chunks (buddy) or XOR deltas (parity) to the
  /// replica holders through the comm layer, then atomically promote
  /// staging to the new protected snapshot. If a kill interrupts the
  /// shipping coforall, nothing is promoted: the store still holds the
  /// previous consistent round.
  void flush(std::int64_t round) {
    PGB_REQUIRE(round > protected_round_,
                "replica: flush rounds must increase");
    const int n = grid_.num_locales();
    std::vector<std::int64_t> scanned(static_cast<std::size_t>(n), 0);
    std::vector<std::int64_t> dirty(static_cast<std::size_t>(n), 0);
    std::int64_t dirty_chunks = 0;
    for (const CheckpointEntry& e : staging_.entries()) {
      const CheckpointEntry* old = primary_.find(e.key);
      for (const CheckpointBlock& blk : e.blocks) {
        const std::vector<unsigned char>* old_bytes = nullptr;
        if (old != nullptr) {
          for (const CheckpointBlock& ob : old->blocks) {
            if (ob.locale == blk.locale) {
              old_bytes = &ob.bytes;
              break;
            }
          }
        }
        scanned[static_cast<std::size_t>(blk.locale)] +=
            static_cast<std::int64_t>(blk.bytes.size());
        const std::int64_t d = dirty_bytes(old_bytes, blk.bytes);
        if (d > 0) {
          dirty[static_cast<std::size_t>(blk.locale)] += d;
          dirty_chunks += (d + opt_.chunk_bytes - 1) / opt_.chunk_bytes;
        }
      }
    }
    std::int64_t total_dirty = 0;
    for (const std::int64_t d : dirty) total_dirty += d;
    PGB_TRACE_SPAN(grid_, "replica.flush",
                   {{"round", std::to_string(round)},
                    {"bytes", std::to_string(total_dirty)}});
    // Ship first, promote after: this coforall is where a pending kill
    // surfaces, and an aborted flush must leave the previous round's
    // replicas untouched.
    const double serialize_bw = grid_.model().node.bw_core;
    grid_.coforall_locales([&](LocaleCtx& ctx) {
      const int l = ctx.locale();
      // Serialize + diff scan streams the staged bytes through memory.
      ctx.clock().advance(
          static_cast<double>(scanned[static_cast<std::size_t>(l)]) /
          serialize_bw);
      const std::int64_t d = dirty[static_cast<std::size_t>(l)];
      if (d > 0) ctx.remote_bulk(replica_target(l), d);
    });
    if (opt_.scheme == ReplicaScheme::kParity) fold_parity();
    mirror_ = staging_;
    primary_ = staging_;
    primary_.round = round;
    protected_round_ = round;
    shipped_bytes_ += total_dirty;
    grid_.metrics().counter("replica.flushes").inc();
    grid_.metrics().counter("replica.bytes").inc(total_dirty);
    grid_.metrics().counter("replica.chunks").inc(dirty_chunks);
  }

  /// Localized rebuild after logical locale `logical`'s host died:
  /// survivors reload their state from their own last-flushed copy
  /// (a local memory read), while `logical`'s blocks are re-materialized
  /// from replica bytes — the buddy's mirror, or parity XOR the
  /// surviving group members — and pulled over the wire by whichever
  /// host now carries `logical`. Returns the bytes restored for the
  /// dead locale; the full snapshot to load is in restored().
  std::int64_t rebuild(int logical) {
    PGB_REQUIRE(protected_round_ >= 0, "replica: nothing flushed yet");
    PGB_REQUIRE(logical >= 0 && logical < grid_.num_locales(),
                "replica: bad logical locale");
    std::int64_t lost_bytes = 0;
    restored_ = primary_;
    if (opt_.scheme == ReplicaScheme::kBuddy) {
      for (const CheckpointEntry& e : mirror_.entries()) {
        CheckpointEntry* dst = restored_.find_mutable(e.key);
        PGB_REQUIRE(dst != nullptr, "replica: mirror/primary key mismatch");
        for (const CheckpointBlock& blk : e.blocks) {
          if (blk.locale != logical) continue;
          if (!blk.valid()) {
            throw Error("replica: buddy copy of '" + e.key +
                        "' block for locale " + std::to_string(logical) +
                        " is corrupt");
          }
          for (CheckpointBlock& d : dst->blocks) {
            if (d.locale == logical) d = blk;
          }
          lost_bytes += static_cast<std::int64_t>(blk.bytes.size());
        }
      }
    } else {
      lost_bytes = reconstruct_from_parity(logical);
    }
    const std::int64_t static_share = static_bytes_ / grid_.num_locales();
    PGB_TRACE_SPAN(grid_, "recovery.rebuild",
                   {{"locale", std::to_string(logical)},
                    {"scheme", to_string(opt_.scheme)},
                    {"round", std::to_string(protected_round_)},
                    {"bytes", std::to_string(lost_bytes)}});
    grid_.metrics().counter("recovery.rebuilds").inc();
    grid_.metrics().counter("replica.restored_bytes")
        .inc(lost_bytes + static_share);
    const double bw = grid_.model().node.bw_core;
    grid_.coforall_locales([&](LocaleCtx& ctx) {
      const int l = ctx.locale();
      // Every locale deserializes its snapshot out of local memory.
      ctx.clock().advance(
          static_cast<double>(restored_.locale_bytes(l)) / bw);
      if (l != logical) return;
      if (opt_.scheme == ReplicaScheme::kBuddy) {
        // Pull the mirror (and the static share) from the buddy. After
        // a degraded-mode remap the buddy host *is* this host, so the
        // pull is a free local read — exactly the point of degrading
        // onto the buddy.
        ctx.remote_bulk(buddy_of(l), lost_bytes + static_share);
      } else {
        // Pull every surviving member's block and the parity fold, then
        // XOR-stream them back together.
        const int g = group_of(l);
        const int lo = g * opt_.parity_group;
        const int hi = std::min(lo + opt_.parity_group, grid_.num_locales());
        for (int m = lo; m < hi; ++m) {
          if (m != l) ctx.remote_bulk(m, primary_.locale_bytes(m));
        }
        ctx.remote_bulk(parity_holder(g), lost_bytes);
        ctx.clock().advance(
            static_cast<double>(lost_bytes) *
            static_cast<double>(hi - lo) / bw);
        ctx.remote_bulk(buddy_of(l), static_share);
      }
    });
    return lost_bytes + static_share;
  }

  /// The snapshot rebuilt by rebuild(): load the loop state from it.
  const Checkpoint& restored() const { return restored_; }

  /// The last-flushed primary copies. Exposed so tests can corrupt a
  /// dead locale's primary block and prove rebuilds really read the
  /// replica bytes, not this copy.
  Checkpoint& primary_for_test() { return primary_; }

 private:
  /// Bytes a flush must ship for this block: dirty chunks (content
  /// compare against the previous copy) plus a header per dirty chunk.
  /// A missing or resized previous copy dirties the affected chunks.
  std::int64_t dirty_bytes(const std::vector<unsigned char>* old_bytes,
                           const std::vector<unsigned char>& now) const {
    const std::int64_t cb = opt_.chunk_bytes;
    const std::int64_t n = static_cast<std::int64_t>(now.size());
    const std::int64_t on =
        old_bytes == nullptr ? 0
                             : static_cast<std::int64_t>(old_bytes->size());
    std::int64_t out = 0;
    for (std::int64_t off = 0; off < std::max(n, on); off += cb) {
      const std::int64_t len = std::min(cb, n - off);
      const std::int64_t olen = std::min(cb, on - off);
      const bool same =
          len == olen && len > 0 &&
          std::memcmp(now.data() + off, old_bytes->data() + off,
                      static_cast<std::size_t>(len)) == 0;
      if (!same) out += std::max<std::int64_t>(len, 0) + kChunkHeaderBytes;
    }
    return out;
  }

  /// Folds the staged bytes into the per-group parity buffers:
  /// parity ^= old ^ new over every changed byte (growing the fold to
  /// the widest member block seen).
  void fold_parity() {
    for (const CheckpointEntry& e : staging_.entries()) {
      auto& groups = parity_[e.key];
      const int ngroups =
          (grid_.num_locales() + opt_.parity_group - 1) / opt_.parity_group;
      groups.resize(static_cast<std::size_t>(ngroups));
      const CheckpointEntry* old = primary_.find(e.key);
      for (const CheckpointBlock& blk : e.blocks) {
        const std::vector<unsigned char>* old_bytes = nullptr;
        if (old != nullptr) {
          for (const CheckpointBlock& ob : old->blocks) {
            if (ob.locale == blk.locale) {
              old_bytes = &ob.bytes;
              break;
            }
          }
        }
        auto& fold = groups[static_cast<std::size_t>(group_of(blk.locale))];
        const std::size_t need =
            std::max(fold.size(),
                     std::max(blk.bytes.size(),
                              old_bytes == nullptr ? 0 : old_bytes->size()));
        fold.resize(need, 0);
        for (std::size_t i = 0; i < need; ++i) {
          const unsigned char o =
              (old_bytes != nullptr && i < old_bytes->size())
                  ? (*old_bytes)[i]
                  : 0;
          const unsigned char nw = i < blk.bytes.size() ? blk.bytes[i] : 0;
          fold[i] = static_cast<unsigned char>(fold[i] ^ o ^ nw);
        }
      }
    }
  }

  /// Reconstructs `logical`'s blocks as parity XOR the surviving group
  /// members' primary copies; checksum-verified against the manifest.
  std::int64_t reconstruct_from_parity(int logical) {
    std::int64_t lost = 0;
    const int g = group_of(logical);
    for (const CheckpointEntry& e : primary_.entries()) {
      const auto pit = parity_.find(e.key);
      PGB_REQUIRE(pit != parity_.end(),
                  "replica: no parity fold for '" + e.key + "'");
      const std::vector<unsigned char>& fold =
          pit->second[static_cast<std::size_t>(g)];
      CheckpointEntry* dst = restored_.find_mutable(e.key);
      for (CheckpointBlock& d : dst->blocks) {
        if (d.locale != logical) continue;
        std::vector<unsigned char> bytes = fold;
        for (const CheckpointBlock& m : e.blocks) {
          if (m.locale == logical || group_of(m.locale) != g) continue;
          for (std::size_t i = 0; i < m.bytes.size(); ++i) {
            bytes[i] = static_cast<unsigned char>(bytes[i] ^ m.bytes[i]);
          }
        }
        bytes.resize(d.bytes.size());  // manifest length (tiny metadata,
                                       // modeled as replicated everywhere)
        const std::uint64_t sum = fnv1a(bytes.data(), bytes.size());
        if (sum != d.checksum) {
          throw Error("replica: parity reconstruction of '" + e.key +
                      "' block for locale " + std::to_string(logical) +
                      " failed its checksum");
        }
        d.bytes = std::move(bytes);
        lost += static_cast<std::int64_t>(d.bytes.size());
      }
    }
    return lost;
  }

  LocaleGrid& grid_;
  ReplicaOptions opt_;
  std::int64_t static_bytes_ = 0;
  Checkpoint staging_;   ///< scratch the loop serializes into each round
  Checkpoint primary_;   ///< each locale's own last-flushed copy
  Checkpoint mirror_;    ///< the buddy-held copies (physically distinct)
  Checkpoint restored_;  ///< assembled by rebuild()
  std::unordered_map<std::string, std::vector<std::vector<unsigned char>>>
      parity_;  ///< per entry key, per group: XOR fold of member blocks
  std::int64_t protected_round_ = -1;
  std::int64_t shipped_bytes_ = 0;
};

}  // namespace pgb
