// Block distributions: the analogue of Chapel's Block dmap.
//
// BlockDist1D partitions an index range [0, n) "evenly" across `parts`
// (Chapel's formula: part p owns [n*p/parts, n*(p+1)/parts)). BlockDist2D
// composes two 1-D distributions over a 2-D locale grid, which is the
// layout the paper uses for sparse matrices (Section II-B).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace pgb {

using Index = std::int64_t;

/// Live membership of a locale set: which *physical* locale currently
/// hosts each *logical* locale (block owner). Distributions keep
/// partitioning data by logical locale forever; degraded-mode recovery
/// (fault/recovery.hpp) remaps a dead locale's logical id onto a
/// surviving host and bumps the membership epoch so cached views
/// (RemapView) revalidate. Fault-free the mapping is the identity and
/// every query collapses to the obvious answer.
class Membership {
 public:
  Membership() = default;
  explicit Membership(int n) : host_(static_cast<std::size_t>(n)) {
    PGB_REQUIRE(n >= 1, "membership needs at least one locale");
    for (int l = 0; l < n; ++l) host_[static_cast<std::size_t>(l)] = l;
    active_ = n;
  }

  int size() const { return static_cast<int>(host_.size()); }

  /// Physical locale currently hosting logical locale `l`.
  int host(int l) const { return host_[static_cast<std::size_t>(l)]; }

  /// Bumped by every remap/reset; cached views compare against it.
  std::uint64_t epoch() const { return epoch_; }

  /// True once any logical locale lives away from its identity host.
  bool remapped() const { return remapped_; }

  /// Number of distinct physical hosts still carrying logical locales
  /// (the surviving N-1 after a degraded-mode remap).
  int active() const { return active_; }

  /// Rehosts logical locale `logical` onto physical locale `physical`.
  void remap(int logical, int physical) {
    PGB_REQUIRE(logical >= 0 && logical < size(), "membership: bad logical id");
    PGB_REQUIRE(physical >= 0 && physical < size(),
                "membership: bad physical id");
    host_[static_cast<std::size_t>(logical)] = physical;
    ++epoch_;
    recount();
  }

  /// Back to the identity mapping (a fresh run on the same grid).
  void reset() {
    for (int l = 0; l < size(); ++l) host_[static_cast<std::size_t>(l)] = l;
    ++epoch_;
    recount();
  }

 private:
  void recount() {
    std::vector<char> seen(host_.size(), 0);
    active_ = 0;
    remapped_ = false;
    for (int l = 0; l < size(); ++l) {
      const int h = host_[static_cast<std::size_t>(l)];
      if (h != l) remapped_ = true;
      if (!seen[static_cast<std::size_t>(h)]) {
        seen[static_cast<std::size_t>(h)] = 1;
        ++active_;
      }
    }
  }

  std::vector<int> host_;
  std::uint64_t epoch_ = 0;
  int active_ = 0;
  bool remapped_ = false;
};

///// Membership-epoch-aware cached view: hot loops (SpMSpV gather/scatter,
/// the algo state machines) resolve block owner -> physical host through
/// it; the cached table refreshes itself when the membership epoch moves
/// (a recovery remap), so steady state is one epoch compare + one vector
/// load per query.
class RemapView {
 public:
  explicit RemapView(const Membership& m) : m_(&m) { refresh(); }

  int host(int logical) const {
    if (epoch_ != m_->epoch()) refresh();
    return host_[static_cast<std::size_t>(logical)];
  }

  /// True when any logical locale is co-hosted (degraded mode).
  bool remapped() const {
    if (epoch_ != m_->epoch()) refresh();
    return remapped_;
  }

 private:
  void refresh() const {
    epoch_ = m_->epoch();
    remapped_ = m_->remapped();
    host_.resize(static_cast<std::size_t>(m_->size()));
    for (int l = 0; l < m_->size(); ++l) {
      host_[static_cast<std::size_t>(l)] = m_->host(l);
    }
  }

  const Membership* m_;
  mutable std::uint64_t epoch_ = 0;
  mutable bool remapped_ = false;
  mutable std::vector<int> host_;
};

class BlockDist1D {
 public:
  BlockDist1D() = default;
  BlockDist1D(Index n, int parts) : n_(n), parts_(parts) {
    PGB_REQUIRE(n >= 0, "negative domain size");
    PGB_REQUIRE(parts >= 1, "need at least one part");
    // lo() and hi() compute n * p for p up to parts.
    PGB_REQUIRE(n <= std::numeric_limits<Index>::max() / parts,
                "domain of " + std::to_string(n) + " indices over " +
                    std::to_string(parts) + " parts overflows its bounds");
  }

  Index n() const { return n_; }
  int parts() const { return parts_; }

  /// First index owned by part p (inclusive).
  Index lo(int p) const { return n_ * p / parts_; }
  /// One past the last index owned by part p.
  Index hi(int p) const { return n_ * (p + 1) / parts_; }
  Index local_size(int p) const { return hi(p) - lo(p); }

  /// The part owning global index i: the last p with lo(p) <= i, that
  /// is with n*p < (i+1)*parts.
  int owner(Index i) const {
    PGB_ASSERT(i >= 0 && i < n_, "index out of distributed range");
    return static_cast<int>(
        (static_cast<__int128>(i + 1) * parts_ - 1) / n_);
  }

  bool operator==(const BlockDist1D& o) const = default;

 private:
  Index n_ = 0;
  int parts_ = 1;
};

/// 2-D block distribution over a rows x cols locale grid; locale ids are
/// row-major (as the paper's Listing 8 indexes them: l(1)*pc + i).
class BlockDist2D {
 public:
  BlockDist2D() = default;
  BlockDist2D(Index nrows, Index ncols, int prows, int pcols)
      : rowd_(nrows, prows), cold_(ncols, pcols) {}

  const BlockDist1D& rowd() const { return rowd_; }
  const BlockDist1D& cold() const { return cold_; }
  int prows() const { return rowd_.parts(); }
  int pcols() const { return cold_.parts(); }

  int locale_of(Index r, Index c) const {
    return rowd_.owner(r) * pcols() + cold_.owner(c);
  }

  /// Grid coordinates of locale id.
  int prow_of(int locale) const { return locale / pcols(); }
  int pcol_of(int locale) const { return locale % pcols(); }

  bool operator==(const BlockDist2D& o) const = default;

 private:
  BlockDist1D rowd_;
  BlockDist1D cold_;
};

}  // namespace pgb
