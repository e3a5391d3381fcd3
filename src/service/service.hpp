// GraphService: the long-lived serving facade tying the front end
// together — resident graphs behind epoch-versioned handles
// (handle.hpp), bounded fair admission (queue.hpp), batch formation
// (batcher.hpp), fused execution (executor.hpp), and the resilience
// layer (resilience.hpp): per-query deadlines, backpressure with
// retry-after, per-tenant quotas + circuit breakers, and a health
// surface that keeps serving through a mid-traffic locale kill.
//
// Time is simulated throughout: a query's arrival is a simulated
// timestamp, service happens on the grid's modeled clocks, and its
// end-to-end latency (completion - arrival, including queueing) lands in
// the per-tenant `service.latency.us{tenant=}` histogram in simulated
// microseconds — the numbers the SLO gate in pgb_diff checks.
//
// Deadline contract: a query with deadline_s > 0 ends in exactly one of
// kDone (result, in budget) or kDeadlineExpired (no result) — the
// service NEVER returns a late result. Expiry is enforced at three
// stages, each counted under `service.expired{tenant=,stage=}`:
//   stage=queue      lazy eviction at step start (deadline passed while
//                    queued)
//   stage=admission  the fuse gate priced the batch via the closed-loop
//                    cost model and the estimate already blows the
//                    deadline — expiring now beats serving late
//   stage=post       execution finished past the deadline (estimate was
//                    low); the result is discarded, never surfaced
//
// Tenant metric taxonomy (all under service.*):
//   service.submitted{tenant=T}          offered queries per tenant
//   service.rejected{tenant=T,reason=R}  typed rejections (AdmitCode /
//                                        throttle cause)
//   service.expired{tenant=T,stage=S}    deadline expiries by stage
//   service.queue.depth                  gauge, live queued total
//   service.retry_after.s                gauge, last suggested retry-after
//   service.batches                      batches executed
//   service.batched_queries              queries that rode a width>1 batch
//   service.batch.width                  histogram of batch widths
//   service.latency.us{tenant=T}         end-to-end simulated latency
//   service.breaker.trips{tenant=T}      circuit-breaker trips
//   service.breaker.state{tenant=T}      gauge, 0 closed / 1 open / 2 half
//   service.records.live                 gauge, retained lifecycle records
//   service.records.retired              retired (compacted) records
//   service.health.*                     gauges from health()
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "runtime/locale_grid.hpp"
#include "service/batcher.hpp"
#include "service/event_log.hpp"
#include "service/executor.hpp"
#include "service/handle.hpp"
#include "service/query.hpp"
#include "service/queue.hpp"
#include "service/resilience.hpp"

namespace pgb {

struct ServiceConfig {
  int queue_depth = 64;
  int batch_max = 16;
  SpmspvOptions spmspv;
  /// Optional fault plan + recovery policy for kill-mid-batch recovery.
  FaultPlan* plan = nullptr;
  ResilienceOptions resilience;
  /// Optional recovery telemetry sink (filled by the resilient driver).
  RecoveryReport* report = nullptr;
  /// Per-tenant admission quota and circuit breaker.
  TenantGovernorConfig governor;
  /// Floor for the suggested retry-after on queue-full (simulated s).
  double retry_floor_s = 1e-3;
  /// Compaction threshold: the released (terminal + polled) record
  /// prefix is dropped once it reaches this length, keeping the record
  /// book memory-steady under sustained traffic.
  int compact_watermark = 256;
  /// Periodic health snapshots into the service event log: every N calls
  /// to step() (0 = off). Only meaningful once set_event_log() attached
  /// a sink.
  int health_log_every = 0;
};

/// Lifecycle record of one submitted query.
struct QueryRecord {
  std::int64_t id = -1;
  int tenant = 0;
  QueryKind kind = QueryKind::kBfs;
  double arrival = 0.0;     ///< simulated submit time
  double deadline = std::numeric_limits<double>::infinity();
  double completion = 0.0;  ///< simulated completion/expiry time
  int batch_width = 0;      ///< width of the batch that served it
  QueryState state = QueryState::kQueued;
  bool polled = false;      ///< released by the client; compactable
  QueryResult result;       ///< valid only when state == kDone
};

class GraphService {
 public:
  GraphService(LocaleGrid& grid, ServiceConfig cfg)
      : grid_(grid),
        cfg_(cfg),
        queue_(static_cast<std::size_t>(cfg.queue_depth), &grid.metrics()),
        governor_(cfg.governor) {
    PGB_REQUIRE(cfg.queue_depth >= 1, "service: queue_depth must be >= 1");
    PGB_REQUIRE(cfg.batch_max >= 1, "service: batch_max must be >= 1");
    PGB_REQUIRE(cfg.governor.quota_qps >= 0.0,
                "service: tenant_quota_qps must be >= 0");
    PGB_REQUIRE(cfg.governor.quota_burst >= 1.0,
                "service: tenant_quota_burst must be >= 1");
    PGB_REQUIRE(cfg.governor.breaker_k >= 0,
                "service: breaker_k must be >= 0");
    PGB_REQUIRE(cfg.governor.breaker_cooldown_s > 0.0,
                "service: breaker_cooldown_s must be > 0");
    PGB_REQUIRE(cfg.retry_floor_s > 0.0,
                "service: retry_floor_s must be > 0");
    PGB_REQUIRE(cfg.compact_watermark >= 1,
                "service: compact_watermark must be >= 1");
    PGB_REQUIRE(cfg.health_log_every >= 0,
                "service: health_log_every must be >= 0");
    last_membership_epoch_ = grid.membership_epoch();
  }

  GraphStore& store() { return store_; }

  /// Attaches the structured event-log sink. Every lifecycle decision
  /// from here on — admits, typed rejections, expiries by stage, breaker
  /// transitions, store publishes, degrade/rebuild, periodic health —
  /// appends one simulated-time-stamped JSONL line (event_log.hpp).
  void set_event_log(ServiceEventLog* log) {
    elog_ = log;
    if (log != nullptr) {
      store_.set_change_hook([this](const char* op, GraphStore::HandleId h,
                                    std::uint64_t epoch) {
        if (elog_ == nullptr) return;
        elog_->emit(grid_.time(), op,
                    {{"handle", ev_int(h)},
                     {"epoch", ev_int(static_cast<std::int64_t>(epoch))}});
      });
    } else {
      store_.set_change_hook(nullptr);
    }
  }
  ServiceEventLog* event_log() { return elog_; }

  /// Installs the failover hook of the resilient driver: called with the
  /// dead logical locale after a degraded remap, before the interrupted
  /// query batch resumes. The ingest stream registers its replay here so
  /// a kill landing inside a *query* batch still restores the delta log
  /// and base mirror it carried (a kill inside an ingest stage reaches
  /// the same replay through the stream's own driver call).
  void set_rebuild_hook(std::function<void(int logical)> hook) {
    cfg_.resilience.on_rebuild = std::move(hook);
  }

  struct Submitted {
    AdmitCode code = AdmitCode::kAdmitted;
    std::int64_t id = -1;  ///< valid only when admitted
    /// Suggested simulated retry-after, filled on kQueueFull: the time
    /// to drain the backlog at the observed service rate (floored).
    double retry_after_s = 0.0;
  };

  /// Offers a query against handle `h` at simulated time `arrival`.
  /// `expected_epoch` (0 = don't care) pins the epoch the client
  /// believes is current: a mismatch is a typed kStaleHandle rejection.
  /// Unknown/closed handles throw InvalidHandleError (a programming
  /// error, not load shedding).
  Submitted submit(GraphStore::HandleId h, const QuerySpec& spec,
                   double arrival, std::uint64_t expected_epoch = 0) {
    auto& mx = grid_.metrics();
    mx.counter("service.submitted", tenant_labels(spec.tenant)).inc();
    GraphSnapshot snap = store_.snapshot(h);
    if (expected_epoch != 0 && expected_epoch != snap.epoch) {
      return reject(spec, AdmitCode::kStaleHandle, arrival);
    }
    if (spec.source < 0 || spec.source >= snap.graph->nrows() ||
        spec.depth < 0 || spec.deadline_s < 0.0) {
      return reject(spec, AdmitCode::kBadQuery, arrival);
    }
    const TenantGovernor::Verdict v = governor_.admit(spec.tenant, arrival);
    if (v.code != AdmitCode::kAdmitted) {
      Submitted s = reject(spec, v.code, arrival, v.why);
      sync_breakers(arrival);
      return s;
    }
    if (queue_.size() >= queue_.capacity()) {
      // Queue full: the rejection carries a retry-after hint, and counts
      // as a service failure toward the tenant's breaker (the service,
      // not the tenant's request, was at fault — but K in a row means
      // this tenant's traffic cannot be served and should back off hard).
      // Checked *before* minting a trace context so rejected queries
      // never allocate a per-query track (span count == admitted).
      Submitted s = reject(spec, AdmitCode::kQueueFull, arrival);
      s.retry_after_s = cost_.retry_after(queue_.size(), cfg_.retry_floor_s);
      mx.gauge("service.retry_after.s").set(s.retry_after_s);
      note_failure(spec.tenant, arrival);
      sync_breakers(arrival);
      return s;
    }
    PendingQuery q;
    q.id = base_ + static_cast<std::int64_t>(records_.size());
    q.spec = spec;
    q.snap = std::move(snap);
    q.arrival = arrival;
    if (spec.deadline_s > 0.0) q.deadline = arrival + spec.deadline_s;
    const double deadline = q.deadline;
    obs::TraceSession* ts = grid_.trace_session();
    if (ts != nullptr) {
      // Mint the query's trace context: a dedicated named track above the
      // locale tracks, with the queued span opened at arrival. The span
      // chain queued -> admitted -> fused shares boundary timestamps, so
      // the track's depth-0 spans cover arrival -> terminal gaplessly.
      q.trace.id = q.id;
      q.trace.tenant = spec.tenant;
      q.trace.epoch = q.snap.epoch;
      q.trace.grid_epoch = grid_.epoch();
      q.trace.track = ts->alloc_named_track(
          "query " + std::to_string(q.id) + " (tenant " +
          std::to_string(spec.tenant) + ")");
      ts->begin_span(q.trace.track, "query.queued", arrival,
                     {{"id", std::to_string(q.id)},
                      {"tenant", std::to_string(spec.tenant)},
                      {"kind", to_string(spec.kind)},
                      {"epoch", std::to_string(q.trace.epoch)}});
    }
    if (elog_ != nullptr) {
      elog_->emit(arrival, "admit",
                  {{"id", ev_int(q.id)},
                   {"tenant", ev_int(spec.tenant)},
                   {"kind", ev_str(to_string(spec.kind))},
                   {"epoch", ev_int(static_cast<std::int64_t>(q.snap.epoch))},
                   {"deadline_s", ev_num(spec.deadline_s)}});
    }
    const AdmitCode code = queue_.offer(std::move(q));
    PGB_ASSERT(code == AdmitCode::kAdmitted,
               "service: offer failed after capacity pre-check");
    QueryRecord rec;
    rec.id = base_ + static_cast<std::int64_t>(records_.size());
    rec.tenant = spec.tenant;
    rec.kind = spec.kind;
    rec.arrival = arrival;
    rec.deadline = deadline;
    records_.push_back(std::move(rec));
    return Submitted{AdmitCode::kAdmitted, records_.back().id, 0.0};
  }

  /// submit() that turns rejections into typed exceptions — the C API's
  /// path, so GrB codes flow from map_exception.
  Submitted submit_strict(GraphStore::HandleId h, const QuerySpec& spec,
                          double arrival, std::uint64_t expected_epoch = 0) {
    Submitted s = submit(h, spec, arrival, expected_epoch);
    if (s.code == AdmitCode::kQueueFull) {
      throw ServiceOverloaded("service: admission queue full (depth " +
                              std::to_string(queue_.capacity()) + ")");
    }
    if (s.code == AdmitCode::kStaleHandle) {
      throw InvalidHandleError("service: stale epoch " +
                               std::to_string(expected_epoch) + " for handle " +
                               std::to_string(h));
    }
    if (s.code == AdmitCode::kTenantThrottled) {
      throw TenantThrottled("service: tenant " + std::to_string(spec.tenant) +
                            " throttled (quota or breaker)");
    }
    return s;
  }

  /// Serves one scheduling round: evicts queued queries whose deadline
  /// already passed, forms a batch through the deadline fuse gate, and
  /// executes it. Returns false only when nothing was left to do —
  /// a round that only expired queries still returns true.
  bool step() {
    const double now = grid_.time();
    ++steps_;
    maybe_log_health(now);
    const bool evicted = finalize_expired(queue_.take_expired(now), "queue");
    if (queue_.empty()) {
      sync_breakers(now);
      return evicted;
    }
    // The fuse gate prices the candidate batch with the closed-loop cost
    // model: refuse to fuse a query whose deadline the estimate already
    // blows (waiting can only make it later). Uncalibrated kinds price
    // at 0 — optimistically admitted until the first batch lands.
    const auto gate = [this, now](const PendingQuery& p, int width) {
      if (std::isinf(p.deadline)) return true;
      const double start = std::max(now, p.arrival);
      return p.deadline >= start + cost_.estimate(p.spec.kind, width);
    };
    std::vector<PendingQuery> refused;
    std::vector<PendingQuery> batch =
        form_batch(queue_, cfg_.batch_max, gate, &refused);
    finalize_expired(refused, "admission");
    if (batch.empty()) {
      sync_breakers(now);
      return true;  // the gate refused every seed
    }
    double start = now;
    for (const auto& q : batch) start = std::max(start, q.arrival);
    for (int l = 0; l < grid_.num_locales(); ++l) {
      grid_.clock(l).advance_to(start);
    }
    // Per-query spans: close queued at max(now, arrival), bridge with an
    // admitted span to the batch start, then open the fused span the
    // execution's per-level spans nest inside. Shared boundary times keep
    // each track's depth-0 coverage gapless from arrival to terminal.
    ++batch_seq_;
    {
      obs::TraceSession* ts = grid_.trace_session();
      const std::string b = std::to_string(batch_seq_);
      const std::string w = std::to_string(batch.size());
      for (const auto& q : batch) {
        if (ts == nullptr || !trace_live(q.trace)) continue;
        const double qend = std::max(now, q.arrival);
        ts->end_span(q.trace.track, qend);
        ts->begin_span(q.trace.track, "query.admitted", qend);
        ts->end_span(q.trace.track, start);
        ts->begin_span(q.trace.track, "query.fused", start,
                       {{"batch", b}, {"width", w}});
      }
    }
    ExecOptions eopt;
    eopt.spmspv = cfg_.spmspv;
    eopt.plan = cfg_.plan;
    eopt.resilience = cfg_.resilience;
    eopt.report = cfg_.report;
    std::vector<QueryResult> results = execute_batch(batch, eopt);
    const double end = grid_.time();
    for (const auto& q : batch) {
      obs::TraceSession* ts = grid_.trace_session();
      if (ts != nullptr && trace_live(q.trace)) {
        ts->end_span(q.trace.track, end);  // close query.fused
      }
    }
    cost_.observe_batch(batch.front().spec.kind,
                        static_cast<int>(batch.size()), end - start);
    auto& mx = grid_.metrics();
    mx.counter("service.batches").inc();
    if (batch.size() > 1) {
      mx.counter("service.batched_queries")
          .inc(static_cast<std::int64_t>(batch.size()));
    }
    mx.histogram("service.batch.width")
        .observe(static_cast<std::int64_t>(batch.size()));
    obs::TraceSession* ts = grid_.trace_session();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      QueryRecord& rec = record_mut(batch[i].id);
      rec.completion = end;
      rec.batch_width = static_cast<int>(batch.size());
      const bool traced = ts != nullptr && trace_live(batch[i].trace);
      if (end > batch[i].deadline) {
        // Late result: the estimate undershot. Discard — the deadline
        // contract ("never a silent late result") outranks the work done.
        rec.state = QueryState::kDeadlineExpired;
        mx.counter("service.expired", expired_labels(rec.tenant, "post"))
            .inc();
        note_failure(rec.tenant, end);
        if (traced) {
          ts->instant(batch[i].trace.track, "query.expired", end,
                      {{"stage", "post"}});
        }
        if (elog_ != nullptr) {
          elog_->emit(end, "expire",
                      {{"id", ev_int(rec.id)},
                       {"tenant", ev_int(rec.tenant)},
                       {"stage", ev_str("post")}});
        }
        continue;
      }
      rec.state = QueryState::kDone;
      rec.result = std::move(results[i]);
      governor_.on_success(rec.tenant, end);
      const double lat_us = (end - rec.arrival) * 1e6;
      mx.histogram("service.latency.us", tenant_labels(rec.tenant))
          .observe(static_cast<std::int64_t>(std::llround(lat_us)));
      if (traced) {
        ts->instant(batch[i].trace.track, "query.done", end,
                    {{"latency_us", ev_num(lat_us)}});
      }
      if (elog_ != nullptr) {
        elog_->emit(end, "done",
                    {{"id", ev_int(rec.id)},
                     {"tenant", ev_int(rec.tenant)},
                     {"width", ev_int(rec.batch_width)},
                     {"latency_us", ev_num(lat_us)}});
      }
    }
    note_grid_events(end);
    sync_breakers(end);
    return true;
  }

  /// Serves until the queue drains.
  void drain() {
    while (step()) {
    }
  }

  std::size_t queue_size() const { return queue_.size(); }

  const QueryRecord& record(std::int64_t id) const {
    PGB_REQUIRE(id >= base_, "service: query id already retired");
    PGB_REQUIRE(id - base_ < static_cast<std::int64_t>(records_.size()),
                "service: unknown query id");
    return records_[static_cast<std::size_t>(id - base_)];
  }

  /// Marks a terminal record as consumed by the client, making it
  /// eligible for compaction. Queued queries cannot be released.
  void release(std::int64_t id) {
    QueryRecord& rec = record_mut(id);
    PGB_REQUIRE(rec.state != QueryState::kQueued,
                "service: release of a still-queued query");
    rec.polled = true;
    compact();
  }

  /// Records still retained (post-compaction window).
  const std::deque<QueryRecord>& records() const { return records_; }

  std::int64_t records_live() const {
    return static_cast<std::int64_t>(records_.size());
  }
  std::int64_t records_retired() const { return base_; }

  const ServiceCostModel& cost_model() const { return cost_; }
  TenantGovernor& governor() { return governor_; }

  /// Builds the health surface and publishes it as gauges, so profiles
  /// (and the pgb_diff gates over them) see mode flips, breaker state,
  /// and load at snapshot time.
  ServiceHealth health() {
    const Membership& m = grid_.membership();
    ServiceHealth h;
    int degraded = 0;
    for (int l = 0; l < m.size(); ++l) degraded += m.host(l) != l ? 1 : 0;
    h.mode = m.remapped() ? "degraded" : "normal";
    h.degraded_locales = degraded;
    h.active_hosts = m.active();
    h.queue_depth = queue_.size();
    h.records_live = records_live();
    h.service_rate = cost_.service_rate();
    const double now = grid_.time();
    for (int t : governor_.tenants()) {
      h.tenants.push_back(
          TenantHealth{t, governor_.state(t, now), governor_.trips(t)});
    }
    auto& mx = grid_.metrics();
    mx.gauge("service.health.mode_degraded").set(m.remapped() ? 1.0 : 0.0);
    mx.gauge("service.health.degraded_locales")
        .set(static_cast<double>(degraded));
    mx.gauge("service.health.active_hosts")
        .set(static_cast<double>(h.active_hosts));
    mx.gauge("service.records.live").set(static_cast<double>(records_live()));
    for (const auto& t : h.tenants) {
      mx.gauge("service.breaker.state", tenant_labels(t.tenant))
          .set(t.breaker == BreakerState::kClosed   ? 0.0
               : t.breaker == BreakerState::kOpen   ? 1.0
                                                    : 2.0);
    }
    return h;
  }

 private:
  static obs::Labels tenant_labels(int tenant) {
    return {{"tenant", std::to_string(tenant)}};
  }

  static obs::Labels expired_labels(int tenant, const char* stage) {
    return {{"tenant", std::to_string(tenant)}, {"stage", stage}};
  }

  QueryRecord& record_mut(std::int64_t id) {
    PGB_REQUIRE(id >= base_, "service: query id already retired");
    PGB_REQUIRE(id - base_ < static_cast<std::int64_t>(records_.size()),
                "service: unknown query id");
    return records_[static_cast<std::size_t>(id - base_)];
  }

  Submitted reject(const QuerySpec& spec, AdmitCode code, double t,
                   const char* why = nullptr) {
    const char* reason = why != nullptr ? why : to_string(code);
    grid_.metrics()
        .counter("service.rejected", {{"tenant", std::to_string(spec.tenant)},
                                      {"reason", reason}})
        .inc();
    // Rejected queries never mint a per-query track: the rejection is an
    // instant on locale track 0, so per-query track count == admitted.
    obs::TraceSession* ts = grid_.trace_session();
    if (ts != nullptr) {
      ts->instant(0, "query.rejected", t,
                  {{"tenant", std::to_string(spec.tenant)},
                   {"kind", to_string(spec.kind)},
                   {"reason", reason}});
    }
    if (elog_ != nullptr) {
      elog_->emit(t, "reject",
                  {{"tenant", ev_int(spec.tenant)},
                   {"kind", ev_str(to_string(spec.kind))},
                   {"reason", ev_str(reason)}});
    }
    return Submitted{code, -1, 0.0};
  }

  /// True when this query's spans may be stamped: a context was minted
  /// and the grid has not been reset since (a reset clears the session,
  /// so an old context's track id points into a dead trace).
  bool trace_live(const QueryTraceContext& tc) const {
    return tc.traced() && tc.grid_epoch == grid_.epoch();
  }

  /// Diffs every tenant's breaker state against the last observation and
  /// logs one "breaker" event per transition (including the time-driven
  /// open -> half_open cooldown edge, stamped when the service sees it).
  void sync_breakers(double now) {
    for (int t : governor_.tenants()) {
      const BreakerState s = governor_.state(t, now);
      auto it = breaker_seen_.find(t);
      const BreakerState prev =
          it == breaker_seen_.end() ? BreakerState::kClosed : it->second;
      if (s != prev && elog_ != nullptr) {
        elog_->emit(now, "breaker",
                    {{"tenant", ev_int(t)},
                     {"from", ev_str(to_string(prev))},
                     {"to", ev_str(to_string(s))}});
      }
      breaker_seen_[t] = s;
    }
  }

  /// Logs membership remaps (degrade/recover) and localized rebuilds by
  /// diffing the grid's membership epoch and the recovery report against
  /// the last step's view.
  void note_grid_events(double t) {
    const std::uint64_t me = grid_.membership_epoch();
    if (me != last_membership_epoch_) {
      last_membership_epoch_ = me;
      if (elog_ != nullptr) {
        const Membership& m = grid_.membership();
        int degraded = 0;
        for (int l = 0; l < m.size(); ++l) degraded += m.host(l) != l ? 1 : 0;
        elog_->emit(t, "degrade",
                    {{"mode", ev_str(m.remapped() ? "degraded" : "normal")},
                     {"membership_epoch",
                      ev_int(static_cast<std::int64_t>(me))},
                     {"degraded_locales", ev_int(degraded)},
                     {"active_hosts", ev_int(m.active())}});
      }
    }
    if (cfg_.report != nullptr) {
      if (cfg_.report->rebuilds > last_rebuilds_ && elog_ != nullptr) {
        elog_->emit(t, "rebuild",
                    {{"rebuilds", ev_int(cfg_.report->rebuilds)},
                     {"rounds_replayed", ev_int(cfg_.report->rounds_replayed)},
                     {"bytes_restored", ev_int(cfg_.report->bytes_restored)}});
      }
      last_rebuilds_ = cfg_.report->rebuilds;
    }
  }

  /// Periodic health snapshot into the event log (cfg.health_log_every
  /// steps; also publishes the health gauges as a side effect).
  void maybe_log_health(double t) {
    if (elog_ == nullptr || cfg_.health_log_every <= 0) return;
    if (steps_ % cfg_.health_log_every != 0) return;
    const ServiceHealth hh = health();
    elog_->emit(t, "health",
                {{"mode", ev_str(hh.mode)},
                 {"degraded_locales", ev_int(hh.degraded_locales)},
                 {"active_hosts", ev_int(hh.active_hosts)},
                 {"queue_depth",
                  ev_int(static_cast<std::int64_t>(hh.queue_depth))},
                 {"records_live", ev_int(hh.records_live)},
                 {"service_rate", ev_num(hh.service_rate)},
                 {"open_breakers", ev_int(hh.open_breakers())}});
  }

  /// Feeds one failure into the tenant's breaker; counts a trip.
  void note_failure(int tenant, double now) {
    if (governor_.on_failure(tenant, now)) {
      grid_.metrics()
          .counter("service.breaker.trips", tenant_labels(tenant))
          .inc();
    }
  }

  /// Moves evicted/refused queries into the kDeadlineExpired terminal
  /// state; returns whether anything expired.
  bool finalize_expired(std::vector<PendingQuery> expired, const char* stage) {
    if (expired.empty()) return false;
    const double now = grid_.time();
    auto& mx = grid_.metrics();
    obs::TraceSession* ts = grid_.trace_session();
    for (auto& q : expired) {
      QueryRecord& rec = record_mut(q.id);
      rec.state = QueryState::kDeadlineExpired;
      rec.completion = std::max(now, q.arrival);
      mx.counter("service.expired", expired_labels(rec.tenant, stage)).inc();
      note_failure(rec.tenant, rec.completion);
      if (ts != nullptr && trace_live(q.trace)) {
        ts->end_span(q.trace.track, rec.completion);  // close query.queued
        ts->instant(q.trace.track, "query.expired", rec.completion,
                    {{"stage", stage}});
      }
      if (elog_ != nullptr) {
        elog_->emit(rec.completion, "expire",
                    {{"id", ev_int(q.id)},
                     {"tenant", ev_int(rec.tenant)},
                     {"stage", ev_str(stage)}});
      }
    }
    return true;
  }

  /// Drops the released prefix of the record book once it reaches the
  /// watermark. Only a *prefix* retires — ids stay dense and record(id)
  /// stays O(1) via the base_ offset.
  void compact() {
    std::size_t n = 0;
    while (n < records_.size() && records_[n].polled) ++n;
    if (n < static_cast<std::size_t>(cfg_.compact_watermark)) return;
    records_.erase(records_.begin(),
                   records_.begin() + static_cast<std::ptrdiff_t>(n));
    base_ += static_cast<std::int64_t>(n);
    auto& mx = grid_.metrics();
    mx.counter("service.records.retired").inc(static_cast<std::int64_t>(n));
    mx.gauge("service.records.live").set(static_cast<double>(records_.size()));
  }

  LocaleGrid& grid_;
  ServiceConfig cfg_;
  GraphStore store_;
  AdmissionQueue queue_;
  TenantGovernor governor_;
  ServiceCostModel cost_;
  std::deque<QueryRecord> records_;
  std::int64_t base_ = 0;  ///< id of records_.front(); retired count
  ServiceEventLog* elog_ = nullptr;
  std::int64_t steps_ = 0;      ///< step() calls (health-log cadence)
  std::int64_t batch_seq_ = 0;  ///< executed batches (query.fused arg)
  std::map<int, BreakerState> breaker_seen_;  ///< last logged state
  std::uint64_t last_membership_epoch_ = 0;
  std::int64_t last_rebuilds_ = 0;
};

}  // namespace pgb
