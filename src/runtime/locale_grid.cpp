#include "runtime/locale_grid.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "runtime/host_pool.hpp"

namespace pgb {

LocaleCtx::LocaleCtx(LocaleGrid& grid, int locale, BodyLog* log)
    : grid_(grid), locale_(locale), log_(log) {
  PGB_REQUIRE(locale >= 0 && locale < grid.num_locales(),
              "locale id out of range");
}

SimClock& LocaleCtx::clock() { return grid_.clock(host()); }

int LocaleCtx::host() const {
  const std::uint64_t e = grid_.membership().epoch();
  if (host_epoch_ != e) {
    host_ = grid_.host_of(locale_);
    host_epoch_ = e;
  }
  return host_;
}

void LocaleCtx::parallel_region(CostVector cost) {
  cost.add(CostKind::kTaskSpawn, grid_.threads());
  if (log_ != nullptr) {
    ++log_->parallel_regions;
  } else {
    grid_.hot().parallel_regions->inc();
  }
  clock().advance(charge_scale_ *
                  region_time(grid_.model().node, cost, grid_.threads(),
                              grid_.colocated()));
}

void LocaleCtx::serial_region(const CostVector& cost) {
  clock().advance(charge_scale_ *
                  region_time(grid_.model().node, cost, 1, grid_.colocated()));
}

void LocaleCtx::trace_instant(std::string name, obs::TraceArgs args) {
  auto* session = grid_.trace_session();
  if (session == nullptr) return;
  const double now = clock().now();
  if (log_ != nullptr) {
    log_->trace.instant(std::move(name), now, session->wall_now_us(),
                        std::move(args));
  } else {
    session->instant(locale_, std::move(name), now, std::move(args));
  }
}

void LocaleCtx::comm_event(CommPath path, int peer, std::int64_t msgs,
                           std::int64_t bytes, std::int64_t bulks) {
  if (log_ != nullptr) {
    log_->messages += msgs;
    log_->bytes += bytes;
    log_->bulks += bulks;
    log_->count_path(path, msgs);
  } else {
    const auto& hot = grid_.hot();
    hot.messages->inc(msgs);
    hot.bytes->inc(bytes);
    hot.bulks->inc(bulks);
    grid_.path_messages(path).inc(msgs);
  }
  // Matrix attribution mirrors the counters above exactly (same msgs and
  // bytes, once per wire attempt) and keys on *physical* hosts, so the
  // matrix totals stay conserved against comm.messages/comm.bytes.
  grid_.comm_matrix_add(path, host(), grid_.host_of(peer), msgs, bytes);
  auto* session = grid_.trace_session();
  if (session != nullptr && session->detail()) {
    trace_instant(std::string("comm.") + comm_path_name(path),
                  {{"peer", std::to_string(peer)},
                   {"messages", std::to_string(msgs)},
                   {"bytes", std::to_string(bytes)}});
  }
}

void LocaleCtx::transfer(CommPath path, int peer, std::int64_t msgs,
                         std::int64_t bytes, std::int64_t bulks,
                         double cost) {
  FaultPlan* plan = grid_.fault_plan();
  if (plan == nullptr) {
    if (log_ != nullptr) {
      log_->logical_messages += msgs;
    } else {
      grid_.hot().logical_messages->inc(msgs);
    }
    comm_event(path, peer, msgs, bytes, bulks);
    clock().advance(cost);
    return;
  }
  // coforall_compute runs the serial loop while a plan is attached.
  PGB_ASSERT(log_ == nullptr, "fault plan inside a coforall_compute body");
  const auto& hot = grid_.hot();
  hot.logical_messages->inc(msgs);
  // The fault plan reasons about *physical* locales: a stall targeted at
  // locale 3 follows whatever logical work is hosted there, and a dead
  // host stays unreachable no matter which logical ids once lived on it.
  const DeliveryOutcome out =
      plan_delivery(*plan, grid_.retry_policy(), host(), grid_.host_of(peer),
                    clock().now());
  // Every wire attempt (retries and duplicates included) is real
  // traffic: it shows up in comm.messages and the per-path family.
  const int wire = out.attempts + out.duplicates;
  for (int i = 0; i < wire; ++i) {
    comm_event(path, peer, msgs, bytes, bulks);
  }
  hot.retries->inc(out.attempts - 1);
  hot.timeouts->inc(out.timeouts);
  if (out.drops > 0) hot.injected_drop->inc(out.drops);
  if (out.duplicates > 0) hot.injected_dup->inc(out.duplicates);
  if (out.corrupts > 0) hot.injected_corrupt->inc(out.corrupts);
  if (out.stalls > 0) hot.injected_stall->inc(out.stalls);
  if (!out.delivered) {
    // A dead peer (or a total drop storm) exhausted the attempts. Data
    // movement in this process is unaffected; the failure is surfaced
    // at the next coforall dispatch, where recovery can take over.
    grid_.metrics()
        .counter("comm.undeliverable", {{"path", comm_path_name(path)}})
        .inc();
  }
  // Duplicates overlap the original on the wire, so only the serialized
  // attempts, injected stalls, and retry waits charge this clock.
  clock().advance(static_cast<double>(out.attempts) * cost +
                  out.stall_time + out.wait_time);
}

void LocaleCtx::remote_chain(int peer, std::int64_t count,
                             double rts_per_elem, std::int64_t bytes_each,
                             double contention) {
  // Locality is decided by *hosts*: after a degraded-mode remap, two
  // logical locales sharing a survivor exchange data through its memory,
  // not the wire. Identity membership makes this the plain self check.
  const int self_h = host();
  const int peer_h = grid_.host_of(peer);
  if (peer_h == self_h) return;  // local access: caller charges node costs
  // Each element sends one payload message after rts_per_elem dependent
  // round trips (2 one-way messages each).
  transfer(CommPath::kChain, peer,
           count + std::llround(static_cast<double>(count) * 2.0 *
                                rts_per_elem),
           count * bytes_each, 0,
           contention *
               grid_.net().dependent_chain(
                   count, rts_per_elem, bytes_each,
                   grid_.same_node(self_h, peer_h), grid_.colocated()));
}

void LocaleCtx::remote_msgs(int peer, std::int64_t count,
                            std::int64_t bytes_each, double contention) {
  const int self_h = host();
  const int peer_h = grid_.host_of(peer);
  if (peer_h == self_h) return;
  transfer(CommPath::kMsgs, peer, count, count * bytes_each, 0,
           contention *
               grid_.net().overlapped_messages(
                   count, bytes_each, grid_.same_node(self_h, peer_h),
                   grid_.colocated()));
}

void LocaleCtx::remote_bulk(int peer, std::int64_t bytes) {
  const int self_h = host();
  const int peer_h = grid_.host_of(peer);
  if (peer_h == self_h) return;
  transfer(CommPath::kBulk, peer, 1, bytes, 1,
           grid_.net().bulk(bytes, grid_.same_node(self_h, peer_h),
                            grid_.colocated()));
}

void LocaleCtx::remote_rt(int peer, std::int64_t bytes_back) {
  const int self_h = host();
  const int peer_h = grid_.host_of(peer);
  if (peer_h == self_h) return;
  transfer(CommPath::kRt, peer, 2, bytes_back, 0,
           grid_.net().round_trip(bytes_back, grid_.same_node(self_h, peer_h),
                                  grid_.colocated()));
}

LocaleGrid::LocaleGrid(GridConfig cfg) : cfg_(cfg), net_(cfg.model.net) {
  PGB_REQUIRE(cfg.rows >= 1 && cfg.cols >= 1, "grid must be at least 1x1");
  PGB_REQUIRE(cfg.threads_per_locale >= 1, "need at least one thread");
  PGB_REQUIRE(cfg.locales_per_node >= 1, "need at least one locale per node");
  const int n = cfg.rows * cfg.cols;
  locales_.reserve(n);
  for (int id = 0; id < n; ++id) {
    locales_.push_back(Locale{.id = id,
                              .row = id / cfg.cols,
                              .col = id % cfg.cols,
                              .node = id / cfg.locales_per_node});
  }
  clocks_.resize(n);
  membership_ = Membership(n);
  straggler_hits_.assign(n, 0);
  hot_.messages = &metrics_.counter("comm.messages");
  hot_.bytes = &metrics_.counter("comm.bytes");
  hot_.bulks = &metrics_.counter("comm.bulks");
  hot_.agg_flushes = &metrics_.counter("agg.flushes");
  hot_.parallel_regions = &metrics_.counter("runtime.parallel_regions");
  hot_.coforalls = &metrics_.counter("runtime.coforalls");
  hot_.barriers = &metrics_.counter("runtime.barriers");
  hot_.logical_messages = &metrics_.counter("comm.logical_messages");
  hot_.retries = &metrics_.counter("comm.retries");
  hot_.timeouts = &metrics_.counter("comm.timeouts");
  hot_.injected_drop = &metrics_.counter("fault.injected", {{"kind", "drop"}});
  hot_.injected_dup = &metrics_.counter("fault.injected", {{"kind", "dup"}});
  hot_.injected_corrupt =
      &metrics_.counter("fault.injected", {{"kind", "corrupt"}});
  hot_.injected_stall =
      &metrics_.counter("fault.injected", {{"kind", "stall"}});
}

void LocaleGrid::set_threads(int threads) {
  PGB_REQUIRE(threads >= 1, "need at least one thread");
  const int cap = max_threads();
  if (threads > cap) {
    if (!warned_thread_clamp_) {
      std::fprintf(
          stderr,
          "pgb: warning: %d threads per locale exceeds %dx the %d modeled "
          "cores available to each locale; clamping to %d\n",
          threads, kOversubscribeCap,
          std::max(1, cfg_.model.node.cores / cfg_.locales_per_node), cap);
      warned_thread_clamp_ = true;
    }
    threads = cap;
  }
  cfg_.threads_per_locale = threads;
}

LocaleGrid LocaleGrid::single(int threads, MachineModel model) {
  return LocaleGrid(GridConfig{.rows = 1,
                               .cols = 1,
                               .threads_per_locale = threads,
                               .locales_per_node = 1,
                               .model = model});
}

LocaleGrid LocaleGrid::square(int nlocales, int threads_per_locale,
                              int locales_per_node, MachineModel model) {
  PGB_REQUIRE(nlocales >= 1, "need at least one locale");
  int rows = static_cast<int>(std::sqrt(static_cast<double>(nlocales)));
  while (rows > 1 && nlocales % rows != 0) --rows;
  const int cols = nlocales / rows;
  return LocaleGrid(GridConfig{.rows = rows,
                               .cols = cols,
                               .threads_per_locale = threads_per_locale,
                               .locales_per_node = locales_per_node,
                               .model = model});
}

void LocaleGrid::remap_locale(int logical, int physical) {
  PGB_REQUIRE(logical >= 0 && logical < num_locales(),
              "remap: logical locale out of range");
  PGB_REQUIRE(physical >= 0 && physical < num_locales(),
              "remap: physical locale out of range");
  membership_.remap(logical, physical);
  metrics_.counter("membership.remaps").inc();
  if (trace_session_ != nullptr) {
    trace_session_->instant(physical, "membership.remap",
                            clocks_[physical].now(),
                            {{"logical", std::to_string(logical)}});
  }
}

double LocaleGrid::time() const {
  double t = 0.0;
  for (const auto& c : clocks_) t = std::max(t, c.now());
  return t;
}

void LocaleGrid::register_agg_metrics() {
  agg_.messages = &metrics_.counter("agg.messages");
  agg_.bytes = &metrics_.counter("agg.bytes");
  agg_.path_messages = &path_messages(CommPath::kAgg);
  agg_.resends = &metrics_.counter("agg.resends");
  agg_.occ_put = &metrics_.histogram("agg.occupancy", {{"dir", "put"}});
  agg_.occ_get = &metrics_.histogram("agg.occupancy", {{"dir", "get"}});
}

// -- comm matrix ----------------------------------------------------------

namespace {

void append_matrix_rows(std::string& out, const std::vector<std::int64_t>& m,
                        int n, int path, int npaths, bool sum_paths) {
  out += "[";
  for (int s = 0; s < n; ++s) {
    out += s == 0 ? "[" : ",[";
    for (int d = 0; d < n; ++d) {
      std::int64_t v = 0;
      const std::size_t cell =
          static_cast<std::size_t>(s) * static_cast<std::size_t>(n) +
          static_cast<std::size_t>(d);
      if (sum_paths) {
        for (int p = 0; p < npaths; ++p) {
          v += m[static_cast<std::size_t>(p) * static_cast<std::size_t>(n) *
                     static_cast<std::size_t>(n) +
                 cell];
        }
      } else {
        v = m[static_cast<std::size_t>(path) * static_cast<std::size_t>(n) *
                  static_cast<std::size_t>(n) +
              cell];
      }
      if (d > 0) out += ",";
      out += std::to_string(v);
    }
    out += "]";
  }
  out += "]";
}

}  // namespace

void LocaleGrid::enable_comm_matrix() {
  if (comm_matrix_on_) return;
  const std::size_t cells = static_cast<std::size_t>(kCommPaths) *
                            static_cast<std::size_t>(num_locales()) *
                            static_cast<std::size_t>(num_locales());
  cm_msgs_.assign(cells, 0);
  cm_bytes_.assign(cells, 0);
  comm_matrix_on_ = true;
}

void LocaleGrid::comm_matrix_add_slow(CommPath path, int src, int dst,
                                      std::int64_t msgs, std::int64_t bytes) {
  const int p = static_cast<int>(path);
  PGB_ASSERT(src >= 0 && src < num_locales() && dst >= 0 &&
                 dst < num_locales(),
             "comm matrix: host out of range");
  const std::size_t cell =
      (static_cast<std::size_t>(p) * static_cast<std::size_t>(num_locales()) +
       static_cast<std::size_t>(src)) *
          static_cast<std::size_t>(num_locales()) +
      static_cast<std::size_t>(dst);
  cm_msgs_[cell] += msgs;
  cm_bytes_[cell] += bytes;
}

std::int64_t LocaleGrid::comm_matrix_messages(int src, int dst) const {
  if (!comm_matrix_on_) return 0;
  const int n = num_locales();
  std::int64_t v = 0;
  for (int p = 0; p < kCommPaths; ++p) {
    v += cm_msgs_[(static_cast<std::size_t>(p) * static_cast<std::size_t>(n) +
                   static_cast<std::size_t>(src)) *
                      static_cast<std::size_t>(n) +
                  static_cast<std::size_t>(dst)];
  }
  return v;
}

std::int64_t LocaleGrid::comm_matrix_bytes(int src, int dst) const {
  if (!comm_matrix_on_) return 0;
  const int n = num_locales();
  std::int64_t v = 0;
  for (int p = 0; p < kCommPaths; ++p) {
    v += cm_bytes_[(static_cast<std::size_t>(p) * static_cast<std::size_t>(n) +
                    static_cast<std::size_t>(src)) *
                       static_cast<std::size_t>(n) +
                   static_cast<std::size_t>(dst)];
  }
  return v;
}

std::int64_t LocaleGrid::comm_matrix_total_messages() const {
  std::int64_t v = 0;
  for (std::int64_t c : cm_msgs_) v += c;
  return v;
}

std::int64_t LocaleGrid::comm_matrix_total_bytes() const {
  std::int64_t v = 0;
  for (std::int64_t c : cm_bytes_) v += c;
  return v;
}

std::string LocaleGrid::comm_matrix_json() const {
  PGB_REQUIRE(comm_matrix_on_, "comm matrix: not enabled");
  const int n = num_locales();
  std::string out = "{\"schema\":\"pgb.comm_matrix.v1\",\"locales\":";
  out += std::to_string(n);
  out += ",\"total_messages\":" + std::to_string(comm_matrix_total_messages());
  out += ",\"total_bytes\":" + std::to_string(comm_matrix_total_bytes());
  out += ",\"messages\":";
  append_matrix_rows(out, cm_msgs_, n, 0, kCommPaths, /*sum_paths=*/true);
  out += ",\"bytes\":";
  append_matrix_rows(out, cm_bytes_, n, 0, kCommPaths, /*sum_paths=*/true);
  out += ",\"by_path\":{";
  bool first = true;
  for (int p = 0; p < kCommPaths; ++p) {
    std::int64_t activity = 0;
    const std::size_t base = static_cast<std::size_t>(p) *
                             static_cast<std::size_t>(n) *
                             static_cast<std::size_t>(n);
    for (std::size_t c = 0; c < static_cast<std::size_t>(n) *
                                    static_cast<std::size_t>(n);
         ++c) {
      activity += cm_msgs_[base + c] + cm_bytes_[base + c];
    }
    if (activity == 0) continue;  // quiet paths stay out of the export
    if (!first) out += ",";
    first = false;
    out += std::string("\"") + comm_path_name(static_cast<CommPath>(p)) +
           "\":{\"messages\":";
    append_matrix_rows(out, cm_msgs_, n, p, kCommPaths, /*sum_paths=*/false);
    out += ",\"bytes\":";
    append_matrix_rows(out, cm_bytes_, n, p, kCommPaths, /*sum_paths=*/false);
    out += "}";
  }
  out += "}}\n";
  return out;
}

std::string LocaleGrid::comm_matrix_csv() const {
  PGB_REQUIRE(comm_matrix_on_, "comm matrix: not enabled");
  const int n = num_locales();
  std::string out = "src,dst,messages,bytes\n";
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) {
      const std::int64_t m = comm_matrix_messages(s, d);
      const std::int64_t b = comm_matrix_bytes(s, d);
      if (m == 0 && b == 0) continue;
      out += std::to_string(s) + "," + std::to_string(d) + "," +
             std::to_string(m) + "," + std::to_string(b) + "\n";
    }
  }
  return out;
}

void LocaleGrid::publish_comm_matrix() {
  if (!comm_matrix_on_) return;
  const int n = num_locales();
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) {
      const std::int64_t m = comm_matrix_messages(s, d);
      const std::int64_t b = comm_matrix_bytes(s, d);
      if (m == 0 && b == 0) continue;
      const obs::Labels labels = {{"dst", std::to_string(d)},
                                  {"src", std::to_string(s)}};
      auto& cm = metrics_.counter("comm.matrix.messages", labels);
      cm.inc(m - cm.value);
      auto& cb = metrics_.counter("comm.matrix.bytes", labels);
      cb.inc(b - cb.value);
    }
  }
}

void LocaleGrid::write_comm_matrix(const std::string& path) {
  PGB_REQUIRE(comm_matrix_on_, "comm matrix: not enabled");
  publish_comm_matrix();
  const bool csv =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  const std::string text = csv ? comm_matrix_csv() : comm_matrix_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  PGB_REQUIRE(f != nullptr, "comm matrix: cannot open output file: " + path);
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

void LocaleGrid::sample_counter_tracks() {
  if (trace_session_ == nullptr) return;
  const double t = time();
  auto sample = [&](const char* name, std::int64_t v) {
    trace_session_->counter(name, t, static_cast<double>(v));
  };
  sample("comm.messages", hot_.messages->value);
  sample("comm.bytes", hot_.bytes->value);
  sample("comm.retries", hot_.retries->value);
  sample("agg.flushes", hot_.agg_flushes->value);
  // Cumulative elements moved through aggregator flushes; looked up
  // without registering so runs that never aggregate don't grow an
  // empty histogram as a sampling side effect.
  if (const obs::Histogram* occ =
          metrics_.find_histogram("agg.occupancy", {{"dir", "put"}})) {
    sample("agg.occupancy.sum", occ->sum);
  }
}

bool LocaleGrid::spawn(Spawn& s, int l) {
  const int h = membership_.host(l);
  if (h != s.host0) {
    s.accum += net_.fork(same_node(s.host0, h), colocated());
    clocks_[h].advance_to(s.t0 + s.accum);
  }
  return fault_plan_ == nullptr || !fault_plan_->is_down(h, clocks_[h].now());
}

void LocaleGrid::fail_spawn(int l) {
  // Permanent-failure detection: a killed host never answers the spawn.
  // This is the one place LocaleFailed is thrown, so no destructor
  // (aggregator flushes included) can ever throw during unwinding; the
  // resilient driver (fault/recovery.hpp) catches it and either rolls
  // back to a checkpoint or rebuilds the lost blocks from their
  // replicas. The exception carries the *logical* locale whose dispatch
  // failed; the driver translates to the host.
  const int h = membership_.host(l);
  metrics_.counter("fault.injected", {{"kind", "kill"}}).inc();
  if (trace_session_ != nullptr) {
    trace_session_->instant(h, "fault.locale_failed", clocks_[h].now());
  }
  throw LocaleFailed(l, clocks_[h].now());
}

void LocaleGrid::coforall_locales(const std::function<void(LocaleCtx&)>& body) {
  hot_.coforalls->inc();
  // The loop runs over *logical* locales; each body executes on the
  // clock of whichever physical host currently carries that logical id.
  // After a degraded-mode remap the buddy host runs two bodies back to
  // back, so it naturally pays double work and shows up at the barrier
  // as the slow one. Identity membership reduces every line to the
  // pre-membership behavior bit for bit.
  Spawn s = begin_spawn();
  for (int l = 0; l < num_locales(); ++l) {
    if (!spawn(s, l)) fail_spawn(l);
    LocaleCtx ctx(*this, l);
    body(ctx);
  }
  barrier_all();
}

void LocaleGrid::merge_log(int l, BodyLog& log) {
  hot_.parallel_regions->inc(log.parallel_regions);
  hot_.messages->inc(log.messages);
  hot_.bytes->inc(log.bytes);
  hot_.bulks->inc(log.bulks);
  hot_.logical_messages->inc(log.logical_messages);
  if (log.agg) {
    const AggMetrics& m = agg_metrics();
    hot_.agg_flushes->inc(log.agg_flushes);
    m.messages->inc(log.agg_messages);
    m.bytes->inc(log.agg_bytes);
    for (std::int64_t v : log.occupancy[0]) m.occ_put->observe(v);
    for (std::int64_t v : log.occupancy[1]) m.occ_get->observe(v);
  }
  for (int p = 0; p < kCommPaths; ++p) {
    if ((log.paths & (1u << p)) != 0) {
      path_messages(static_cast<CommPath>(p)).inc(log.path_messages[p]);
    }
  }
  if (trace_session_ != nullptr) {
    trace_session_->replay(l, std::move(log.trace));
  }
}

void LocaleGrid::coforall_compute(const std::function<void(LocaleCtx&)>& body) {
  if (fault_plan_ != nullptr || membership_.active() < num_locales()) {
    coforall_locales(body);
    return;
  }
  hot_.coforalls->inc();
  // Every host carries one logical locale and, without a plan, every
  // host is up, so body l touches only clock l: all forks can be charged
  // before any body runs, and the bodies then run in any order.
  Spawn s = begin_spawn();
  for (int l = 0; l < num_locales(); ++l) spawn(s, l);
  std::vector<BodyLog> logs(static_cast<std::size_t>(num_locales()));
  auto merge = [&] {
    for (int l = 0; l < num_locales(); ++l) {
      merge_log(l, logs[static_cast<std::size_t>(l)]);
    }
  };
  try {
    HostPool::instance().run(num_locales(), [&](int l) {
      LocaleCtx ctx(*this, l, &logs[static_cast<std::size_t>(l)]);
      body(ctx);
    });
  } catch (...) {
    merge();
    throw;
  }
  merge();
  barrier_all();
}

double LocaleGrid::barrier_all() {
  hot_.barriers->inc();
  // Straggler watch at barrier entry: the skew between the fastest and
  // slowest *active* host (hosts still carrying logical locales — a dead
  // host's parked clock must not read as infinite skew) is the direct
  // signature of a stall-injected straggler. Only observed when someone
  // is watching (threshold set or a fault plan attached), so fault-free
  // metrics and committed profile baselines keep their exact key set.
  if (straggler_threshold_ > 0.0 || fault_plan_ != nullptr) {
    double lo = 0.0, hi = 0.0;
    int slowest = -1;
    bool first = true;
    for (int l = 0; l < num_locales(); ++l) {
      const int h = membership_.host(l);
      const double now = clocks_[h].now();
      if (first || now < lo) lo = now;
      if (first || now > hi) {
        hi = now;
        slowest = h;
      }
      first = false;
    }
    const double skew = hi - lo;
    metrics_.histogram("barrier.skew").observe(std::llround(skew * 1e9));
    if (straggler_threshold_ > 0.0 && skew > straggler_threshold_ &&
        slowest >= 0) {
      metrics_.counter("straggler.detected").inc();
      ++straggler_hits_[static_cast<std::size_t>(slowest)];
      if (trace_session_ != nullptr) {
        trace_session_->instant(slowest, "straggler.detected",
                                clocks_[slowest].now(),
                                {{"skew_ns",
                                  std::to_string(std::llround(skew * 1e9))}});
      }
    }
  }
  const double t = time() + net_.barrier(membership_.active());
  if (trace_session_ != nullptr) {
    // One "barrier" span per locale, from its arrival to the joined
    // time: the timeline's direct view of load imbalance.
    for (int l = 0; l < num_locales(); ++l) {
      trace_session_->begin_span(l, "barrier", clocks_[l].now());
    }
  }
  for (auto& c : clocks_) c.advance_to(t);
  if (trace_session_ != nullptr) {
    for (int l = 0; l < num_locales(); ++l) {
      trace_session_->end_span(l, t);
    }
  }
  return t;
}

}  // namespace pgb
