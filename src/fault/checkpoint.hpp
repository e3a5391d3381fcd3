// Checkpoint/restore for distributed state (header-only; sits above
// runtime and sparse in the layering, like obs/span.hpp).
//
// A Checkpoint is an in-memory stand-in for a stable store: per-locale
// serialized blocks, each guarded by an FNV-1a checksum, plus a manifest
// (the round the snapshot was taken after). Saving and restoring charge
// the simulated clocks — serialization streams through node memory
// bandwidth, the shipped bytes pay a modeled stable-store bandwidth —
// so the abl_fault_overhead ablation can price checkpoint cadence
// against recovery time.
//
// Serialization really happens (the blocks hold the real bytes), so a
// restore reproduces the snapshot bit for bit; corruption of a block is
// caught by the checksum at restore time.
#pragma once

#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/span.hpp"
#include "runtime/locale_grid.hpp"
#include "sparse/dist_dense_vec.hpp"
#include "sparse/dist_sparse_vec.hpp"
#include "util/error.hpp"
#include "util/fnv.hpp"

namespace pgb {

/// One locale's serialized share of a checkpointed object.
struct CheckpointBlock {
  int locale = 0;
  std::vector<unsigned char> bytes;
  std::uint64_t checksum = 0;

  void stamp() { checksum = fnv1a(bytes.data(), bytes.size()); }
  bool valid() const { return checksum == fnv1a(bytes.data(), bytes.size()); }
};

/// A named checkpointed object (one block per owning locale; host-side
/// and scalar state lives in a single locale-0 block).
struct CheckpointEntry {
  std::string key;
  std::vector<CheckpointBlock> blocks;

  std::int64_t bytes() const {
    std::int64_t b = 0;
    for (const auto& blk : blocks) b += static_cast<std::int64_t>(blk.bytes.size());
    return b;
  }
};

class Checkpoint {
 public:
  /// Manifest: rounds completed when this snapshot was taken (-1: never
  /// saved).
  std::int64_t round = -1;

  void clear() {
    entries_.clear();
    index_.clear();
    round = -1;
  }

  bool has(const std::string& key) const { return find(key) != nullptr; }

  // Lookups go through a key -> slot index map rather than scanning
  // entries_: state machines with many registered blocks (k-truss) call
  // find once per key per round, and the linear scan made checkpoint
  // cadence O(entries * lookups).
  const CheckpointEntry* find(const std::string& key) const {
    const auto it = index_.find(key);
    return it == index_.end() ? nullptr : &entries_[it->second];
  }

  /// Mutable lookup — lets tests corrupt a block and assert the checksum
  /// catches it.
  CheckpointEntry* find_mutable(const std::string& key) {
    const auto it = index_.find(key);
    return it == index_.end() ? nullptr : &entries_[it->second];
  }

  /// Number of named entries (index/entry coherence checks in tests).
  std::size_t size() const { return entries_.size(); }

  /// The entries in insertion order (replication diffing walks them).
  const std::vector<CheckpointEntry>& entries() const { return entries_; }

  std::int64_t total_bytes() const {
    std::int64_t b = 0;
    for (const auto& e : entries_) b += e.bytes();
    return b;
  }

  /// Bytes owned by one locale (its share of the modeled stable-store
  /// traffic; host/scalar blocks are attributed to locale 0).
  std::int64_t locale_bytes(int locale) const {
    std::int64_t b = 0;
    for (const auto& e : entries_) {
      for (const auto& blk : e.blocks) {
        if (blk.locale == locale) b += static_cast<std::int64_t>(blk.bytes.size());
      }
    }
    return b;
  }

  /// True when every block's checksum still matches its bytes.
  bool verify() const {
    for (const auto& e : entries_) {
      for (const auto& blk : e.blocks) {
        if (!blk.valid()) return false;
      }
    }
    return true;
  }

  // -- writers (replace any previous entry under the same key) --

  template <typename T>
  void put_dense(const std::string& key, const DistDenseVec<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    CheckpointEntry e{key, {}};
    for (int l = 0; l < v.grid().num_locales(); ++l) {
      const auto raw = v.local(l).raw();
      CheckpointBlock blk{l, {}, 0};
      append(blk.bytes, raw.data(), raw.size() * sizeof(T));
      blk.stamp();
      e.blocks.push_back(std::move(blk));
    }
    replace(std::move(e));
  }

  template <typename T>
  void put_sparse(const std::string& key, const DistSparseVec<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    CheckpointEntry e{key, {}};
    for (int l = 0; l < v.grid().num_locales(); ++l) {
      const auto& lv = v.local(l);
      const std::int64_t nnz = lv.nnz();
      CheckpointBlock blk{l, {}, 0};
      append(blk.bytes, &nnz, sizeof(nnz));
      append(blk.bytes, lv.domain().indices().data(),
             static_cast<std::size_t>(nnz) * sizeof(Index));
      append(blk.bytes, lv.values().data(),
             static_cast<std::size_t>(nnz) * sizeof(T));
      blk.stamp();
      e.blocks.push_back(std::move(blk));
    }
    replace(std::move(e));
  }

  /// Host-side (replicated) array, e.g. a result's parent vector.
  template <typename T>
  void put_host(const std::string& key, const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    CheckpointEntry e{key, {}};
    CheckpointBlock blk{0, {}, 0};
    const std::int64_t n = static_cast<std::int64_t>(v.size());
    append(blk.bytes, &n, sizeof(n));
    append(blk.bytes, v.data(), v.size() * sizeof(T));
    blk.stamp();
    e.blocks.push_back(std::move(blk));
    replace(std::move(e));
  }

  template <typename T>
  void put_scalar(const std::string& key, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    CheckpointEntry e{key, {}};
    CheckpointBlock blk{0, {}, 0};
    append(blk.bytes, &v, sizeof(T));
    blk.stamp();
    e.blocks.push_back(std::move(blk));
    replace(std::move(e));
  }

  // -- readers (throw on missing keys, shape mismatch, or a failed
  //    block checksum) --

  template <typename T>
  void get_dense(const std::string& key, DistDenseVec<T>& v) const {
    const CheckpointEntry& e = require(key);
    PGB_REQUIRE(static_cast<int>(e.blocks.size()) == v.grid().num_locales(),
                "checkpoint: '" + key + "' was saved on a different grid");
    for (int l = 0; l < v.grid().num_locales(); ++l) {
      const CheckpointBlock& blk = check(e, l);
      auto raw = v.local(l).raw();
      PGB_REQUIRE(blk.bytes.size() == raw.size() * sizeof(T),
                  "checkpoint: '" + key + "' block size mismatch");
      if (!blk.bytes.empty()) {
        std::memcpy(raw.data(), blk.bytes.data(), blk.bytes.size());
      }
    }
  }

  template <typename T>
  void get_sparse(const std::string& key, DistSparseVec<T>& v) const {
    const CheckpointEntry& e = require(key);
    PGB_REQUIRE(static_cast<int>(e.blocks.size()) == v.grid().num_locales(),
                "checkpoint: '" + key + "' was saved on a different grid");
    for (int l = 0; l < v.grid().num_locales(); ++l) {
      const CheckpointBlock& blk = check(e, l);
      std::size_t off = 0;
      std::int64_t nnz = 0;
      read(blk, key, off, &nnz, sizeof(nnz));
      std::vector<Index> idx(static_cast<std::size_t>(nnz));
      std::vector<T> vals(static_cast<std::size_t>(nnz));
      read(blk, key, off, idx.data(), idx.size() * sizeof(Index));
      read(blk, key, off, vals.data(), vals.size() * sizeof(T));
      v.local(l) = SparseVec<T>::from_sorted(v.dist().local_size(l),
                                             std::move(idx), std::move(vals));
    }
  }

  template <typename T>
  std::vector<T> get_host(const std::string& key) const {
    const CheckpointEntry& e = require(key);
    const CheckpointBlock& blk = check(e, 0);
    std::size_t off = 0;
    std::int64_t n = 0;
    read(blk, key, off, &n, sizeof(n));
    std::vector<T> v(static_cast<std::size_t>(n));
    read(blk, key, off, v.data(), v.size() * sizeof(T));
    return v;
  }

  template <typename T>
  T get_scalar(const std::string& key) const {
    const CheckpointEntry& e = require(key);
    const CheckpointBlock& blk = check(e, 0);
    PGB_REQUIRE(blk.bytes.size() == sizeof(T),
                "checkpoint: '" + key + "' scalar size mismatch");
    T v;
    std::memcpy(&v, blk.bytes.data(), sizeof(T));
    return v;
  }

 private:
  static void append(std::vector<unsigned char>& out, const void* data,
                     std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    out.insert(out.end(), p, p + n);
  }

  void read(const CheckpointBlock& blk, const std::string& key,
            std::size_t& off, void* out, std::size_t n) const {
    PGB_REQUIRE(off + n <= blk.bytes.size(),
                "checkpoint: '" + key + "' block truncated");
    if (n == 0) return;  // an empty block: `out` may be null
    std::memcpy(out, blk.bytes.data() + off, n);
    off += n;
  }

  const CheckpointEntry& require(const std::string& key) const {
    const CheckpointEntry* e = find(key);
    PGB_REQUIRE(e != nullptr, "checkpoint: no entry '" + key + "'");
    return *e;
  }

  /// Block for `locale`, checksum-verified.
  const CheckpointBlock& check(const CheckpointEntry& e, int locale) const {
    for (const auto& blk : e.blocks) {
      if (blk.locale == locale) {
        if (!blk.valid()) {
          throw Error("checkpoint: checksum mismatch in '" + e.key +
                      "' block of locale " + std::to_string(locale) +
                      " (stable-store corruption)");
        }
        return blk;
      }
    }
    throw Error("checkpoint: '" + e.key + "' has no block for locale " +
                std::to_string(locale));
  }

  void replace(CheckpointEntry e) {
    const auto it = index_.find(e.key);
    if (it != index_.end()) {
      entries_[it->second] = std::move(e);
      return;
    }
    index_.emplace(e.key, entries_.size());
    entries_.push_back(std::move(e));
  }

  std::vector<CheckpointEntry> entries_;
  std::unordered_map<std::string, std::size_t> index_;
};

/// Modeled stable-store bandwidth, bytes/s (burst-buffer class).
inline constexpr double kStableStoreBw = 5e9;

/// Charges the simulated cost of writing `ckpt` to the stable store:
/// each locale streams its own blocks through node memory (serialization)
/// and ships them at kStableStoreBw, then all locales synchronize — a
/// checkpoint is only durable once every block landed. Publishes
/// ckpt.saves / ckpt.bytes and a "checkpoint" span.
inline void charge_checkpoint_save(LocaleGrid& grid, const Checkpoint& ckpt) {
  PGB_TRACE_SPAN(grid, "checkpoint",
                 {{"dir", "save"},
                  {"round", std::to_string(ckpt.round)},
                  {"bytes", std::to_string(ckpt.total_bytes())}});
  grid.metrics().counter("ckpt.saves").inc();
  grid.metrics().counter("ckpt.bytes").inc(ckpt.total_bytes());
  const double serialize_bw = grid.model().node.bw_core;
  for (int l = 0; l < grid.num_locales(); ++l) {
    const double b = static_cast<double>(ckpt.locale_bytes(l));
    grid.clock(l).advance(b / serialize_bw + b / kStableStoreBw);
  }
  grid.barrier_all();
}

/// Charges the simulated cost of restoring from `ckpt` after a locale
/// failure: every locale re-reads its blocks from the stable store, and
/// the replacement locale additionally re-ships `static_bytes` of
/// unchanging state (its matrix blocks). All clocks join at the end —
/// restart is globally synchronous. Publishes ckpt.restores.
inline void charge_checkpoint_restore(LocaleGrid& grid, const Checkpoint& ckpt,
                                      std::int64_t static_bytes) {
  PGB_TRACE_SPAN(grid, "checkpoint",
                 {{"dir", "restore"},
                  {"round", std::to_string(ckpt.round)},
                  {"bytes", std::to_string(ckpt.total_bytes())}});
  grid.metrics().counter("ckpt.restores").inc();
  const double t0 = grid.time();
  double slowest = 0.0;
  for (int l = 0; l < grid.num_locales(); ++l) {
    slowest = std::max(
        slowest, static_cast<double>(ckpt.locale_bytes(l)) / kStableStoreBw);
  }
  slowest += static_cast<double>(static_bytes) / kStableStoreBw;
  for (int l = 0; l < grid.num_locales(); ++l) {
    grid.clock(l).advance_to(t0 + slowest);
  }
  grid.barrier_all();
}

}  // namespace pgb
