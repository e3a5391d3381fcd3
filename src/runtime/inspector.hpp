// Inspector–executor communication optimization.
//
// Every distributed kernel in this codebase has a small number of comm
// *sites* — the SpMSpV gather of input-vector pieces, its scatter of
// partial products, the indexed assign/extract routing loops — and each
// site hardcodes one of the fine/bulk/agg schedules per call. The best
// choice is workload-dependent (dense frontiers favor bulk, sparse tails
// favor agg), which is exactly the irregular-access problem the
// inspector–executor compiler transformation solves for PGAS programs:
// inspect the access pattern once, then bind an optimized executor.
//
// This header is the runtime half of that idea. Each call site registers
// under a stable id ("spmspv.gather", "extract.indexed", ...). Before a
// communication wave the site's CommSite (runtime/comm_site.hpp) hands
// the inspector the wave's *footprint* — how many remote (initiator,
// target) pairs it will touch, how many elements, the bytes/element
// ratio, the fan-out skew, and whether the accesses are read-only — and
// the inspector prices every legal strategy through the same
// NetworkModel formulas the sites charge with, returning the argmin:
//
//   kFine        the paper's element-by-element schedule
//   kBulk        one hand-rolled transfer per peer
//   kAggregated  conveyor-style buffered flushes, with an auto-tuned
//                capacity (~4 flushes per peer so transfers overlap)
//   kReplicate   selective read-only replication: ship the remote block
//                once per reader host through a binomial broadcast tree
//                and serve every later read locally
//
// Replicated blocks live in an epoch-cached replica table keyed by
// (site, source locale, reader host) and tagged with a content
// fingerprint. Two things invalidate an entry: the content tag changing
// (the source was rewritten — the entry is re-shipped on next use), and
// the Membership epoch moving (a degraded-mode remap — the *whole* cache
// is flushed, counted in `inspector.cache.invalidations`, so a remapped
// locale can never be served stale state).
//
// Determinism and correctness: decisions are pure functions of the
// footprint and the site's own call history — no wall clock, no pointer
// identity — so same-seed runs make identical decisions. Data is always
// read and written directly in-process regardless of strategy (the
// schedules only differ in *charging*), so a mispredicted strategy or a
// fingerprint collision can only mis-model time, never corrupt results;
// outputs stay byte-identical across all schedules, auto included.
//
// Counters (all registered lazily, on first inspector use, so runs that
// never engage kAuto keep their exact metric key set):
//   inspector.sites                      distinct sites seen
//   inspector.decisions{strategy=S}      decisions per strategy
//   inspector.site.decisions{site=,strategy=}  per-site decision mix —
//       these flow into pgb --profile, so pgb_diff flags a silent
//       strategy flip between runs as a structural diff
//   inspector.replicated_bytes           bytes shipped into replicas
//   inspector.cache.hits / .installs / .invalidations
//   inspector.mispriced                  observed waves whose charged-vs-
//       predicted ratio drifted outside the 2x band around the site's
//       running ratio — the closed-loop calibration signal (see
//       Inspector::observe)
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "machine/network_model.hpp"
#include "obs/metrics.hpp"
#include "runtime/dist.hpp"

namespace pgb {

/// Executor strategy bound to one access site for one wave.
enum class SiteStrategy {
  kFine,
  kBulk,
  kAggregated,
  kReplicate,
};

const char* to_string(SiteStrategy s);

/// Depth of the binomial broadcast tree that ships a replicated block to
/// `fanout` reader hosts: ceil(log2(fanout)), at least 1 (a plain
/// point-to-point ship). Every reader is conservatively charged the full
/// depth, which keeps the charge independent of traversal order.
int replication_tree_depth(double fanout);

/// One communication wave's remote-access pattern, recorded by the
/// inspector before the wave runs. All quantities are cheaply computable
/// upper-bound estimates (piece sizes, not post-filter counts); since
/// every candidate strategy is priced from the same estimate, ranking
/// errors only matter near crossovers where the schedules tie anyway.
struct SiteFootprint {
  /// Remote (initiator, target) pairs across the whole wave.
  std::int64_t pairs = 0;
  /// Total remote elements across the whole wave.
  std::int64_t elements = 0;
  /// Heaviest single initiator's remote elements / pairs: the wave's
  /// critical path (the grid advances to the max clock at the barrier).
  std::int64_t max_initiator_elements = 0;
  std::int64_t max_initiator_pairs = 0;
  /// Payload bytes per element.
  std::int64_t bytes_each = 16;
  /// Bytes the heaviest initiator would ship if it replicated every
  /// block it reads (may exceed elements * bytes_each when only a slice
  /// of each block is actually read, e.g. indexed extract). 0 means
  /// "same as max_initiator_elements * bytes_each".
  std::int64_t block_bytes = 0;
  /// Simultaneous requesters per target (AM-handler contention — the
  /// same multiplier the hand-rolled schedules charge).
  double fanout = 1.0;
  /// Dependent round trips per element under kFine (remote binary
  /// search); 0 means the fine messages are independent/overlapped.
  double chain_rts = 0.0;
  /// Node-side fixed cost (seconds) the kernel charges per remote pair
  /// under kBulk and nowhere else — e.g. the SpMSpV scatters issue
  /// one packing parallel-region per destination, whose task-spawn floor
  /// (LocaleGrid::region_floor()) dwarfs the wire cost at small batch
  /// sizes. 0 for sites whose bulk path folds packing into a shared
  /// region.
  double bulk_pair_overhead = 0.0;
  /// Read-only gathers may replicate; scatters may not.
  bool read_only = false;
  bool gather = true;

  /// Folds one initiator's remote load into the wave: the totals, and the
  /// heaviest initiator so far (the first one wins ties).
  void add_initiator(std::int64_t initiator_pairs,
                     std::int64_t initiator_elements) {
    pairs += initiator_pairs;
    elements += initiator_elements;
    if (initiator_elements > max_initiator_elements) {
      max_initiator_elements = initiator_elements;
      max_initiator_pairs = initiator_pairs;
    }
  }

  /// Order-insensitive mix of the fields, used to detect a site being
  /// re-run with an identical footprint (temporal reuse).
  std::uint64_t signature() const;
};

/// The inspector's binding for one wave.
struct SiteDecision {
  SiteStrategy strategy = SiteStrategy::kBulk;
  /// Auto-tuned aggregator capacity (meaningful under kAggregated).
  std::int64_t agg_capacity = 2048;
  /// Modeled wave time of the chosen strategy, for reporting.
  double predicted = 0.0;
};

/// Per-site summary for `pgb --comm=auto` decision dumps.
struct SiteReport {
  std::string site;
  std::int64_t calls = 0;
  SiteStrategy last_strategy = SiteStrategy::kBulk;
  std::int64_t decisions[4] = {0, 0, 0, 0};  ///< indexed by SiteStrategy
  double last_predicted = 0.0;
  SiteFootprint last_footprint;
  /// Closed-loop calibration inputs (Inspector::observe): total charged
  /// wave time vs total predicted time over the waves that reported
  /// back, and how many of those waves were mispriced — their own
  /// ratio drifted outside the 2x band around the running
  /// observed_total/predicted_total ratio. The ratio itself carries a
  /// constant factor (prediction is remote-only; charges include local
  /// work); a *stable* ratio means the pricing still ranks waves
  /// correctly, drift means it has stopped tracking this site.
  double observed_total = 0.0;
  double predicted_total = 0.0;
  std::int64_t observed_waves = 0;
  std::int64_t mispriced_waves = 0;
};

/// Grid-wide inspector state. Owned by value by the LocaleGrid;
/// `LocaleGrid::inspector()` re-binds the registry/model/membership
/// pointers on every access so a moved grid never leaves them dangling.
///
/// Thread-safety: none needed. `coforall_compute` bodies may
/// communicate, but only a comm site touches the inspector: it decides
/// and observes on the calling thread, and the one wave whose bodies
/// read and fill the replica cache, a replicating one, keeps the serial
/// loop (CommSite::coforall).
class Inspector {
 public:
  Inspector() = default;

  /// Rebinds the collaborator pointers; called by LocaleGrid::inspector().
  void bind(obs::MetricsRegistry* mx, const NetworkModel* net,
            const Membership* membership, int colocated) {
    mx_ = mx;
    net_ = net;
    membership_ = membership;
    colocated_ = colocated;
  }

  /// Prices every legal strategy for `site`'s next wave and returns the
  /// cheapest. Registers the site on first sight and publishes the
  /// decision counters.
  SiteDecision decide(const std::string& site, const SiteFootprint& fp);

  /// Replica-cache probe for (site, source logical locale) as seen from
  /// `reader_host`. A hit (same content tag, same membership epoch)
  /// means the block is already resident: the caller charges nothing.
  /// A tag mismatch is a miss — the stale entry is dropped and the
  /// caller re-ships (cache_install overwrites).
  bool cache_lookup(const std::string& site, int src, int reader_host,
                    std::uint64_t tag);

  /// Records a freshly shipped replica of `bytes` bytes.
  void cache_install(const std::string& site, int src, int reader_host,
                     std::uint64_t tag, std::int64_t bytes);

  /// Executor feedback: the *charged* simulated time the wave actually
  /// took at `site` (the same clocks the decision priced against).
  /// Accumulates the observed/predicted totals behind the decision dump's
  /// mispricing ratio and bumps `inspector.mispriced` when this wave's
  /// ratio drifts outside the [1/2, 2] band around the site's running
  /// ratio — groundwork for feeding charges back into the pricing model
  /// (closed-loop calibration).
  void observe(const std::string& site, double observed_seconds);

  /// Live replica-cache entries (test hook).
  std::int64_t cached_blocks() const {
    return static_cast<std::int64_t>(cache_.size());
  }

  /// Distinct sites seen since the last reset.
  std::int64_t num_sites() const {
    return static_cast<std::int64_t>(sites_.size());
  }

  /// Per-site decision summaries, ordered by site id.
  std::vector<SiteReport> report() const;

  /// Forgets all sites and replicas (LocaleGrid::reset()). Nothing is
  /// counted: reset starts a new epoch of metrics anyway.
  void reset() {
    sites_.clear();
    cache_.clear();
    epoch_synced_ = false;
  }

 private:
  struct SiteState {
    std::int64_t calls = 0;
    std::uint64_t last_signature = 0;
    /// Consecutive calls with an identical footprint signature: the
    /// temporal-reuse factor that amortizes replication cost.
    std::int64_t repeat_streak = 0;
    SiteStrategy last_strategy = SiteStrategy::kBulk;
    std::int64_t decisions[4] = {0, 0, 0, 0};
    double last_predicted = 0.0;
    SiteFootprint last_footprint;
    double observed_total = 0.0;
    double predicted_total = 0.0;
    std::int64_t observed_waves = 0;
    std::int64_t mispriced_waves = 0;
    /// Replica-cache probes that found a resident entry (compulsory
    /// cold misses are excluded), and how many matched the content tag.
    /// Their ratio is the observed reuse that amortizes the predicted
    /// replication ship cost — a site whose source content churns every
    /// wave (fingerprint misses) drifts back to the other schedules
    /// automatically.
    std::int64_t cache_lookups = 0;
    std::int64_t cache_hits = 0;
  };

  struct Replica {
    std::uint64_t tag = 0;
    std::int64_t bytes = 0;
  };

  /// Membership-epoch guard shared by decide() and the cache ops: when
  /// the epoch has moved since the cache was built (a degraded-mode
  /// remap), every replica is flushed and counted — remapped locales
  /// must never be served pre-remap state.
  void sync_epoch();

  obs::MetricsRegistry* mx_ = nullptr;
  const NetworkModel* net_ = nullptr;
  const Membership* membership_ = nullptr;
  int colocated_ = 1;

  std::map<std::string, SiteState> sites_;
  std::map<std::tuple<std::string, int, int>, Replica> cache_;
  std::uint64_t cache_epoch_ = 0;
  bool epoch_synced_ = false;
};

}  // namespace pgb
