// The locale grid: pgas-graphblas's stand-in for Chapel's locales on a
// distributed machine.
//
// A LocaleGrid is a 2-D arrangement of simulated locales (the paper uses
// 2-D block distributions throughout). Each locale has its own simulated
// clock. Kernels execute for real in this process; parallel constructs
// (`coforall_locales`, per-locale parallel regions) and the comm-charging
// helpers advance the clocks according to the machine model, so
// `grid.time()` after an operation is the modeled distributed-memory
// runtime of that operation. `coforall_compute` runs bodies that charge
// only their own clock, comm included, on the host's cores, and leaves
// every clock, counter, comm-matrix cell and trace event exactly as the
// serial loop would.
//
// Placement: `locales_per_node` co-locates several locales on one modeled
// node (sharing memory bandwidth and paying AM-handler contention), which
// reproduces the paper's Fig 10 experiment.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "machine/machine_model.hpp"
#include "runtime/dist.hpp"
#include "runtime/inspector.hpp"
#include "machine/network_model.hpp"
#include "machine/parallel_model.hpp"
#include "machine/sim_clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace pgb {

struct Locale {
  int id = 0;
  int row = 0;
  int col = 0;
  int node = 0;  ///< physical node hosting this locale
};

struct GridConfig {
  int rows = 1;
  int cols = 1;
  int threads_per_locale = 1;
  int locales_per_node = 1;
  MachineModel model = MachineModel::edison();
};

/// Grid-wide tally of modeled communication events. Since the metrics
/// registry became the single bookkeeping path, this is a *view*: the
/// LocaleCtx comm helpers and the aggregation layer publish into the
/// grid's `obs::MetricsRegistry` ("comm.messages", "comm.bytes",
/// "comm.bulks", "agg.flushes"), and `grid.comm_stats()` snapshots those
/// counters into this struct. Reset together with the clocks.
struct CommStats {
  std::int64_t messages = 0;     ///< one-way network messages (a round
                                 ///< trip counts 2, a bulk counts 1)
  std::int64_t bytes = 0;        ///< payload bytes moved
  std::int64_t bulks = 0;        ///< bulk transfers among `messages`
  std::int64_t agg_flushes = 0;  ///< aggregator buffer flushes
};

/// The comm funnel's paths: which helper a wire event came through. The
/// enum indexes the grid's cached per-path counters and the comm
/// matrix; enumerator order is the matrix's export order.
enum class CommPath : int { kAgg, kBulk, kChain, kMsgs, kRt };
inline constexpr int kCommPaths = 5;

/// Exported label of a path: the `path=` value of
/// `comm.messages{path=...}`, the comm matrix's "by_path" key and the
/// `comm.<path>` detail-trace instant name.
inline const char* comm_path_name(CommPath p) {
  static const char* const kNames[kCommPaths] = {"agg", "bulk", "chain",
                                                 "msgs", "rt"};
  return kNames[static_cast<int>(p)];
}

class LocaleGrid;

/// What a LocaleGrid::coforall_compute body records instead of writing
/// grid-wide state from a pool thread: its counter increments, its
/// agg.occupancy observations and its trace events. The dispatch merges
/// the logs in locale order at the join, registering the lazily
/// registered keys a body used (comm.messages{path=...}, the agg.*
/// family) as it goes.
struct BodyLog {
  std::int64_t parallel_regions = 0;
  // The comm funnel's hot counters.
  std::int64_t messages = 0;
  std::int64_t bytes = 0;
  std::int64_t bulks = 0;
  std::int64_t logical_messages = 0;
  std::int64_t path_messages[kCommPaths] = {};
  unsigned paths = 0;  ///< bit p: path p carried an event
  // The aggregation layer's metrics (LocaleGrid::AggMetrics).
  bool agg = false;  ///< an AggChannel was built
  std::int64_t agg_flushes = 0;
  std::int64_t agg_messages = 0;
  std::int64_t agg_bytes = 0;
  std::vector<std::int64_t> occupancy[2];  ///< {dir=put}, {dir=get}
  obs::TrackLog trace;

  void count_path(CommPath p, std::int64_t msgs) {
    paths |= 1u << static_cast<int>(p);
    path_messages[static_cast<int>(p)] += msgs;
  }
};

/// Handle passed to per-locale bodies; provides cost-charging helpers.
class LocaleCtx {
 public:
  /// `log` is non-null only for a coforall_compute body.
  LocaleCtx(LocaleGrid& grid, int locale, BodyLog* log = nullptr);

  int locale() const { return locale_; }
  LocaleGrid& grid() { return grid_; }

  /// The clock of the *physical* locale hosting this logical locale:
  /// after a degraded-mode remap, work charged here lands on the buddy
  /// host that adopted the dead locale's blocks. Identity mapping makes
  /// this the locale's own clock.
  SimClock& clock();

  /// The physical host of this logical locale, cached against the
  /// membership epoch: steady state is one epoch compare instead of a
  /// grid.host_of() table walk. Every clock()/remote_* charge resolves
  /// its own side through this cache, which hoists the repeated
  /// translation out of the per-element kernel loops; a degraded-mode
  /// remap bumps the epoch and refreshes it on next use.
  int host() const;

  /// Scales the modeled time of parallel_region/serial_region charges
  /// while set (1.0 = neutral). The straggler work-shedding hook in
  /// SpMSpV uses it to move a fraction of a flagged straggler's local
  /// multiply onto a helper's clock without touching the real compute.
  void set_charge_scale(double s) {
    PGB_REQUIRE(s > 0.0 && s <= 1.0, "charge scale must be in (0, 1]");
    charge_scale_ = s;
  }
  double charge_scale() const { return charge_scale_; }

  /// Charges a forall-style parallel region executed with the locale's
  /// threads; includes the task-spawn burden.
  void parallel_region(CostVector cost);

  /// Charges single-task work (no spawn).
  void serial_region(const CostVector& cost);

  /// The log of a coforall_compute body, which takes the body's registry
  /// and trace writes; nullptr everywhere else (they go to the grid).
  BodyLog* body_log() { return log_; }

  /// The trace buffer of a coforall_compute body, where LocaleSpan
  /// records; nullptr everywhere else (spans go to the session).
  obs::TrackLog* trace_log() {
    return log_ != nullptr ? &log_->trace : nullptr;
  }

  /// Records an instant on this locale's track at its clock: into the
  /// body log inside a coforall_compute body, else into the attached
  /// session (no-op without one).
  void trace_instant(std::string name, obs::TraceArgs args = {});

  // -- communication charges (data itself is read/written directly by the
  //    caller; these advance this locale's clock per the network model) --

  /// Element-wise access to `count` remote elements, each needing
  /// `rts_per_elem` dependent round trips (e.g. remote binary search).
  /// `contention` multiplies the time when several locales hammer the
  /// same source simultaneously (its AM handler serializes them).
  void remote_chain(int peer, std::int64_t count, double rts_per_elem,
                    std::int64_t bytes_each, double contention = 1.0);

  /// `count` independent small messages to `peer` (overlapped).
  void remote_msgs(int peer, std::int64_t count, std::int64_t bytes_each,
                   double contention = 1.0);

  /// One bulk transfer.
  void remote_bulk(int peer, std::int64_t bytes);

  /// One blocking round trip (e.g. reading a remote scalar such as a
  /// domain's size).
  void remote_rt(int peer, std::int64_t bytes_back);

 private:
  /// Publishes one comm event to the grid's metrics (totals + the
  /// per-path counter family; the body log's, inside a coforall_compute
  /// body) and the comm matrix and, when a detail-level trace session is
  /// attached, records an instant event on this locale's track.
  void comm_event(CommPath path, int peer, std::int64_t msgs,
                  std::int64_t bytes, std::int64_t bulks);

  /// The delivery funnel every remote_* helper ends in: counts the
  /// logical intent, and — when a fault plan is attached — runs the
  /// transfer through it, charging each wire attempt (retries re-pay
  /// `cost` through the network model, failed attempts add the ack
  /// timeout, backoffs wait in between) and publishing retry/timeout/
  /// injection counters. Without a plan it is exactly one comm_event
  /// plus one clock advance.
  void transfer(CommPath path, int peer, std::int64_t msgs,
                std::int64_t bytes, std::int64_t bulks, double cost);

  LocaleGrid& grid_;
  int locale_;
  BodyLog* log_;
  double charge_scale_ = 1.0;
  /// host() cache; ~0 epoch forces the first lookup.
  mutable std::uint64_t host_epoch_ = ~std::uint64_t{0};
  mutable int host_ = -1;
};

class LocaleGrid {
 public:
  explicit LocaleGrid(GridConfig cfg);

  /// Single-locale (shared-memory) grid with `threads` threads.
  static LocaleGrid single(int threads,
                           MachineModel model = MachineModel::edison());

  /// A near-square prows x pcols grid over `nlocales` (prows <= pcols),
  /// matching how the paper lays out locales for 2-D distributions.
  static LocaleGrid square(int nlocales, int threads_per_locale,
                           int locales_per_node = 1,
                           MachineModel model = MachineModel::edison());

  int num_locales() const { return static_cast<int>(locales_.size()); }
  int rows() const { return cfg_.rows; }
  int cols() const { return cfg_.cols; }
  int threads() const { return cfg_.threads_per_locale; }

  /// Change the per-locale thread count (benches sweep threads over one
  /// generated workload; data placement is unaffected). The value is
  /// re-validated against the machine model: the parallel model prices
  /// moderate oversubscription (threads beyond a core's share earn only
  /// `oversubscribe_gain`), but a request beyond kOversubscribeCap times
  /// this locale's core share is a sweep bug — it is clamped with a
  /// warning instead of silently modeling thousands of phantom threads.
  void set_threads(int threads);

  /// Largest accepted threads-per-locale multiplier over the locale's
  /// core share (model cores / locales per node).
  static constexpr int kOversubscribeCap = 4;

  /// The clamp bound set_threads enforces for this grid's model and
  /// placement.
  int max_threads() const {
    const int share =
        std::max(1, cfg_.model.node.cores / cfg_.locales_per_node);
    return kOversubscribeCap * share;
  }
  int colocated() const { return cfg_.locales_per_node; }
  const Locale& locale(int id) const { return locales_[id]; }
  bool same_node(int a, int b) const {
    return locales_[a].node == locales_[b].node;
  }

  // -- membership: logical locale -> physical host -----------------------

  /// The live logical->physical mapping. Identity until degraded-mode
  /// recovery remaps a dead locale onto a survivor. Distributions and
  /// vectors keep indexing blocks by *logical* locale; every comm helper
  /// and clock charge translates through this mapping, so co-hosted
  /// logicals exchange data for free and both charge the same clock.
  const Membership& membership() const { return membership_; }

  /// Physical locale currently hosting logical locale `l`.
  int host_of(int l) const { return membership_.host(l); }
  std::uint64_t membership_epoch() const { return membership_.epoch(); }

  /// Rehosts logical locale `logical` on `physical` (degraded-mode
  /// recovery after `logical`'s identity host died). Bumps the
  /// membership epoch so RemapViews revalidate.
  void remap_locale(int logical, int physical);

  /// Back to the identity mapping (fresh run on a reused grid).
  void restore_membership() { membership_.reset(); }

  // -- straggler-aware barriers ------------------------------------------

  /// Enables straggler detection at barriers: when the clock skew
  /// (max - min over active hosts at barrier entry) exceeds `seconds`,
  /// the slowest host is flagged (`straggler.detected` counter + per-host
  /// hit count consulted by the SpMSpV shedding hook). 0 disables
  /// detection; the `barrier.skew` histogram is also recorded whenever a
  /// fault plan is attached, so chaos runs surface skew unprompted.
  void set_straggler_threshold(double seconds) {
    PGB_REQUIRE(seconds >= 0.0, "straggler threshold must be >= 0");
    straggler_threshold_ = seconds;
  }
  double straggler_threshold() const { return straggler_threshold_; }

  /// Times physical locale `phys` was flagged the slowest-at-barrier
  /// straggler since the last reset.
  std::int64_t straggler_hits(int phys) const {
    return straggler_hits_[static_cast<std::size_t>(phys)];
  }

  const MachineModel& model() const { return cfg_.model; }
  const NetworkModel& net() const { return net_; }
  SimClock& clock(int l) { return clocks_[l]; }
  Trace& trace() { return trace_; }

  /// Modeled fixed cost of one parallel region — the task-spawn floor an
  /// empty `forall` pays (LocaleCtx::parallel_region adds a
  /// kTaskSpawn(threads) term to every region). Kernels whose bulk path
  /// spawns a packing region per destination hand this to the inspector
  /// as SiteFootprint::bulk_pair_overhead; at small batch sizes this
  /// floor, not the wire transfer, is what decides bulk vs aggregated.
  double region_floor() const {
    CostVector c;
    c.add(CostKind::kTaskSpawn, threads());
    return region_time(cfg_.model.node, c, threads(), colocated());
  }

  /// Snapshot of the registry's comm counters (see CommStats).
  CommStats comm_stats() const {
    return CommStats{hot_.messages->value, hot_.bytes->value,
                     hot_.bulks->value, hot_.agg_flushes->value};
  }

  /// The grid-wide metrics registry every layer publishes into.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// The grid's inspector–executor state (CommMode::kAuto). Re-bound to
  /// this grid's registry/model/membership on every access, so the
  /// cached pointers survive a grid move; all its counters register
  /// lazily, on first kAuto use, keeping fault-free metric key sets (and
  /// the committed profile baselines) unchanged.
  Inspector& inspector() {
    inspector_.bind(&metrics_, &net_, &membership_, colocated());
    return inspector_;
  }

  /// Attach (or detach, with nullptr) a trace session; not owned. While
  /// attached, runtime constructs and instrumented kernels record spans
  /// and instants stamped with the locale clocks. The first
  /// num_locales() track ids are reserved for the locale tracks;
  /// named tracks (per-query tracks) allocate above them.
  void set_trace_session(obs::TraceSession* session) {
    trace_session_ = session;
    if (session != nullptr) session->reserve_tracks(num_locales());
  }
  obs::TraceSession* trace_session() { return trace_session_; }

  /// Samples the grid-wide comm counters into the attached trace
  /// session's counter tracks, stamped at the current simulated time
  /// (no-op without a session). Called by obs::GridSpan at phase open
  /// and close, so rate changes land exactly at span boundaries on the
  /// exported timeline. Tracks are cumulative counters, hence monotone
  /// non-decreasing within an epoch.
  void sample_counter_tracks();

  /// Attach (or detach, with nullptr) a fault plan; not owned. While
  /// attached, every comm helper and aggregator flush consults it:
  /// injected faults charge retries/timeouts per `retry_policy()`, and
  /// coforall dispatch throws LocaleFailed when a locale's kill time has
  /// passed (the resilient driver catches it; see fault/recovery.hpp).
  /// Rejects a plan that names a locale this grid does not have: its
  /// kill or filter could never fire.
  void set_fault_plan(FaultPlan* plan) {
    PGB_REQUIRE(plan == nullptr || plan->spec().max_locale() < num_locales(),
                "fault plan names locale " +
                    std::to_string(plan->spec().max_locale()) +
                    " but the grid has " + std::to_string(num_locales()) +
                    " locales");
    fault_plan_ = plan;
  }
  FaultPlan* fault_plan() { return fault_plan_; }

  /// Delivery-guarantee knobs used while a fault plan is attached.
  void set_retry_policy(const RetryPolicy& rp) {
    rp.validate();
    retry_ = rp;
  }
  const RetryPolicy& retry_policy() const { return retry_; }

  // -- comm matrix: per src->dst physical-host traffic -------------------
  //
  // When enabled, every wire message the comm funnel counts into
  // `comm.messages`/`comm.bytes` (LocaleCtx::comm_event per attempt, and
  // AggChannel::issue per wire copy) is also attributed to one
  // (src, dst) cell, keyed by *physical* hosts: the sender charges
  // through LocaleCtx::host() and the receiver through host_of(peer), so
  // after a degraded-mode remap the adopted logical locale's traffic
  // lands on its buddy host's row/column, never on the dead host's. A
  // coforall_compute body sends only from its own host, so the cells it
  // writes all lie in that host's row, apart from every other body's.
  // Co-hosted transfers never reach the funnel (they are free), so the
  // diagonal is structurally zero and the matrix totals equal the
  // registry's comm.messages/comm.bytes counters exactly — the
  // conservation invariant the tests and CI enforce. Attribution is also
  // kept per CommPath, the per-site dimension the exporter emits under
  // "by_path".

  /// Switches matrix accumulation on (lazily allocates the dense
  /// per-path matrices). Off by default so fault-free runs pay nothing.
  void enable_comm_matrix();
  bool comm_matrix_enabled() const { return comm_matrix_on_; }

  /// Adds one funnel event to cell (src, dst) of `path`'s matrix; no-op
  /// while disabled. src/dst are physical hosts.
  void comm_matrix_add(CommPath path, int src, int dst, std::int64_t msgs,
                       std::int64_t bytes) {
    if (!comm_matrix_on_) return;
    comm_matrix_add_slow(path, src, dst, msgs, bytes);
  }

  /// Cell accessors, summed over paths.
  std::int64_t comm_matrix_messages(int src, int dst) const;
  std::int64_t comm_matrix_bytes(int src, int dst) const;
  std::int64_t comm_matrix_total_messages() const;
  std::int64_t comm_matrix_total_bytes() const;

  /// Stable-format exports (see docs/ARCHITECTURE.md for the schema).
  std::string comm_matrix_json() const;
  std::string comm_matrix_csv() const;

  /// Writes the matrix to `path` (CSV when the name ends in ".csv", JSON
  /// otherwise) and publishes the registry counter family
  /// `comm.matrix.messages{dst=,src=}` / `comm.matrix.bytes{dst=,src=}`
  /// for the nonzero cells. Throws (exit 2 in the tools) on an
  /// unwritable path.
  void write_comm_matrix(const std::string& path);

  /// Publishes the nonzero cells into the metrics registry (idempotent:
  /// counters are raised to the current cell values). Lazy — only runs
  /// with the matrix enabled — so fault-free metric key sets and the
  /// committed profile baselines are unchanged.
  void publish_comm_matrix();

  /// Bumped by reset(). Charging objects that can outlive a reset (the
  /// aggregation channels) capture the epoch at construction and go
  /// quiet when it no longer matches, so late destructor flushes cannot
  /// leak modeled time or stats into the new epoch.
  std::uint64_t epoch() const { return epoch_; }

  /// Max over all locale clocks: the grid's current simulated time.
  double time() const;

  void reset() {
    for (auto& c : clocks_) c.reset();
    trace_.clear();
    metrics_.reset();
    if (trace_session_ != nullptr) trace_session_->clear();
    membership_.reset();
    inspector_.reset();
    std::fill(straggler_hits_.begin(), straggler_hits_.end(), 0);
    std::fill(cm_msgs_.begin(), cm_msgs_.end(), 0);
    std::fill(cm_bytes_.begin(), cm_bytes_.end(), 0);
    ++epoch_;
  }

  /// Chapel's `coforall loc in Locales do on loc { ... }`: the initiator
  /// (locale 0) spawns a task on every locale — serialized fork charges —
  /// then all join at a barrier. The body runs once per locale.
  void coforall_locales(const std::function<void(LocaleCtx&)>& body);

  /// coforall_locales run on the host thread pool (runtime/host_pool.hpp)
  /// for bodies that charge only their own clock. Same forks and
  /// barrier; clocks, registry, comm matrix and trace end up exactly as
  /// the serial loop leaves them. A body:
  ///   - charges only its own clock: ctx regions, remote_* helpers and
  ///     aggregation channels built on its ctx;
  ///   - writes data only where no other body reads or writes it during
  ///     the dispatch;
  ///   - uses the registry only through those ctx charges;
  ///   - traces only through its ctx (obs::LocaleSpan,
  ///     ctx.trace_instant and the comm helpers' detail instants).
  /// Its counter increments, agg.occupancy observations and trace
  /// events go to a per-locale BodyLog, merged in locale order at the
  /// join; its comm-matrix cells lie in its own host's row. If bodies
  /// throw, every body still runs and is merged, and the lowest locale's
  /// exception propagates without a barrier. Three cases run the serial
  /// loop instead: an attached fault plan (every delivery draws from its
  /// one sequential RNG, and its kill check stops the dispatch), a
  /// degraded remap (two logical locales on one host, sharing its clock),
  /// and, chosen by the caller, a gather wave that replicates
  /// (CommSite::coforall: the inspector's replica cache is shared).
  void coforall_compute(const std::function<void(LocaleCtx&)>& body);

  /// Advance every clock to the common max plus barrier cost; returns the
  /// synchronized time.
  double barrier_all();

  /// Cached handles to the hot registry counters, looked up once at
  /// construction so the per-event cost is a pointer bump.
  struct HotCounters {
    obs::Counter* messages = nullptr;
    obs::Counter* bytes = nullptr;
    obs::Counter* bulks = nullptr;
    obs::Counter* agg_flushes = nullptr;
    obs::Counter* parallel_regions = nullptr;
    obs::Counter* coforalls = nullptr;
    obs::Counter* barriers = nullptr;
    // Delivery-guarantee accounting (fault plane). comm.messages counts
    // every wire attempt; comm.logical_messages counts intents, so the
    // two are equal exactly when nothing was retried or duplicated.
    obs::Counter* logical_messages = nullptr;  ///< comm.logical_messages
    obs::Counter* retries = nullptr;           ///< comm.retries
    obs::Counter* timeouts = nullptr;          ///< comm.timeouts
    obs::Counter* injected_drop = nullptr;     ///< fault.injected{kind=drop}
    obs::Counter* injected_dup = nullptr;      ///< fault.injected{kind=dup}
    obs::Counter* injected_corrupt = nullptr;  ///< ...{kind=corrupt}
    obs::Counter* injected_stall = nullptr;    ///< ...{kind=stall}
  };
  const HotCounters& hot() const { return hot_; }

  // Lazily registered handles. Unlike HotCounters these keys only exist
  // once something used them, so each is registered on first use and
  // cached: a run's metric key set names exactly the paths it touched,
  // and the per-event cost after the first is a null check.

  /// `comm.messages{path=P}`, registered on P's first event.
  obs::Counter& path_messages(CommPath p) {
    obs::Counter*& c = path_messages_[static_cast<int>(p)];
    if (c == nullptr) {
      c = &metrics_.counter("comm.messages", {{"path", comm_path_name(p)}});
    }
    return *c;
  }

  /// The aggregation layer's metrics. AggChannel's constructor registers
  /// all six together, so a run that builds a channel exports the family
  /// even if it never flushes.
  struct AggMetrics {
    obs::Counter* messages = nullptr;       ///< agg.messages
    obs::Counter* bytes = nullptr;          ///< agg.bytes
    obs::Counter* path_messages = nullptr;  ///< comm.messages{path=agg}
    obs::Counter* resends = nullptr;        ///< agg.resends
    obs::Histogram* occ_put = nullptr;      ///< agg.occupancy{dir=put}
    obs::Histogram* occ_get = nullptr;      ///< agg.occupancy{dir=get}
  };
  const AggMetrics& agg_metrics() {
    if (agg_.messages == nullptr) register_agg_metrics();
    return agg_;
  }

  // Copies would leave the copy's cached counter handles pointing into
  // the source's registry, so forbid copying. Moves are fine: the
  // registry's node-based storage keeps every cached handle (hot, path
  // and agg alike) valid when ownership transfers.
  LocaleGrid(const LocaleGrid&) = delete;
  LocaleGrid& operator=(const LocaleGrid&) = delete;
  LocaleGrid(LocaleGrid&&) = default;
  LocaleGrid& operator=(LocaleGrid&&) = default;

 private:
  /// One coforall's serialized spawns from the initiator: the initiator's
  /// host, its clock at dispatch and the fork time charged so far.
  struct Spawn {
    int host0;
    double t0;
    double accum;
  };
  Spawn begin_spawn() const {
    const int h0 = membership_.host(0);
    return Spawn{h0, clocks_[h0].now(), 0.0};
  }
  /// Charges the fork to logical locale `l`; false when its host is dead.
  bool spawn(Spawn& s, int l);
  /// Records the dead host spawn() found for `l` and throws LocaleFailed.
  [[noreturn]] void fail_spawn(int l);
  /// Applies one coforall_compute body's log to the registry and trace.
  void merge_log(int l, BodyLog& log);

  void comm_matrix_add_slow(CommPath path, int src, int dst,
                            std::int64_t msgs, std::int64_t bytes);
  void register_agg_metrics();

  GridConfig cfg_;
  std::vector<Locale> locales_;
  std::vector<SimClock> clocks_;
  NetworkModel net_;
  Trace trace_;
  obs::MetricsRegistry metrics_;
  HotCounters hot_;
  obs::Counter* path_messages_[kCommPaths] = {};
  AggMetrics agg_;
  obs::TraceSession* trace_session_ = nullptr;
  FaultPlan* fault_plan_ = nullptr;
  RetryPolicy retry_;
  Membership membership_;
  Inspector inspector_;
  std::vector<std::int64_t> straggler_hits_;
  /// Comm matrix storage: [path][src][dst] dense, allocated on enable.
  bool comm_matrix_on_ = false;
  std::vector<std::int64_t> cm_msgs_;
  std::vector<std::int64_t> cm_bytes_;
  double straggler_threshold_ = 0.0;
  bool warned_thread_clamp_ = false;
  std::uint64_t epoch_ = 0;
};

}  // namespace pgb
