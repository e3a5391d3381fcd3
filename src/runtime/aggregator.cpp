#include "runtime/aggregator.hpp"

#include <cmath>

namespace pgb {

const char* to_string(CommMode m) {
  switch (m) {
    case CommMode::kFine:
      return "fine";
    case CommMode::kBulk:
      return "bulk";
    case CommMode::kAggregated:
      return "agg";
    case CommMode::kAuto:
      return "auto";
  }
  return "?";
}

CommMode parse_comm_mode(const std::string& s) {
  if (s == "fine") return CommMode::kFine;
  if (s == "bulk") return CommMode::kBulk;
  if (s == "agg" || s == "aggregated") return CommMode::kAggregated;
  if (s == "auto") return CommMode::kAuto;
  throw InvalidArgument(
      "comm mode must be one of: fine, bulk, agg (aggregated), auto; got: " +
      s);
}

AggChannel::AggChannel(LocaleCtx& ctx, std::int64_t capacity,
                       double contention)
    : ctx_(ctx), capacity_(capacity), contention_(contention) {
  PGB_REQUIRE(capacity_ >= 1, "aggregator capacity must be positive");
  PGB_REQUIRE(contention_ >= 1.0, "contention multiplier must be >= 1");
  auto& grid = ctx.grid();
  epoch_ = grid.epoch();
  // The first channel registers the agg.* family; a coforall_compute
  // body's log registers it at the join.
  if (BodyLog* log = ctx.body_log()) {
    log->agg = true;
  } else {
    grid.agg_metrics();
  }
}

void AggChannel::issue(int peer, double cost, std::int64_t msgs,
                       std::int64_t bytes, bool is_get, std::int64_t elems) {
  auto& grid = ctx_.grid();
  if (grid.epoch() != epoch_) return;  // constructed before a reset
  const std::int64_t seq = next_seq_++;
  BodyLog* log = ctx_.body_log();

  // Consult the fault plan: a dropped/corrupted flush is re-sent under
  // the same sequence number, a duplicated one is deduplicated by the
  // receiver. Each wire copy is real traffic; resends also re-occupy
  // the injection channel below. coforall_compute runs the serial loop
  // while a plan is attached, so only a body without a log gets here.
  DeliveryOutcome out;
  FaultPlan* plan = grid.fault_plan();
  if (plan != nullptr) {
    PGB_ASSERT(log == nullptr, "fault plan inside a coforall_compute body");
    const auto& hot = grid.hot();
    const auto& m = grid.agg_metrics();
    out = plan_delivery(*plan, grid.retry_policy(), ctx_.host(),
                        grid.host_of(peer), ctx_.clock().now());
    hot.retries->inc(out.attempts - 1);
    hot.timeouts->inc(out.timeouts);
    if (out.drops > 0) hot.injected_drop->inc(out.drops);
    if (out.duplicates > 0) hot.injected_dup->inc(out.duplicates);
    if (out.corrupts > 0) hot.injected_corrupt->inc(out.corrupts);
    if (out.stalls > 0) hot.injected_stall->inc(out.stalls);
    if (out.attempts > 1) {
      stats_.resends += out.attempts - 1;
      m.resends->inc(out.attempts - 1);
    }
    if (!out.delivered) {
      grid.metrics().counter("comm.undeliverable", {{"path", "agg"}}).inc();
    }
  }
  const std::int64_t wire = out.attempts + out.duplicates;

  ++stats_.flushes;
  stats_.messages += msgs * wire;
  stats_.bytes += bytes * wire;
  if (log != nullptr) {
    log->logical_messages += msgs;
    ++log->agg_flushes;
    log->messages += msgs * wire;
    log->bytes += bytes * wire;
    log->agg_messages += msgs * wire;
    log->agg_bytes += bytes * wire;
    log->count_path(CommPath::kAgg, msgs * wire);
    if (elems >= 0) log->occupancy[is_get ? 1 : 0].push_back(elems);
  } else {
    const auto& hot = grid.hot();
    const auto& m = grid.agg_metrics();
    hot.logical_messages->inc(msgs);
    hot.agg_flushes->inc();
    hot.messages->inc(msgs * wire);
    hot.bytes->inc(bytes * wire);
    m.messages->inc(msgs * wire);
    m.bytes->inc(bytes * wire);
    m.path_messages->inc(msgs * wire);
    if (elems >= 0) (is_get ? m.occ_get : m.occ_put)->observe(elems);
  }
  // Comm-matrix attribution mirrors the hot counters above exactly (wire
  // multiplicity included) on physical hosts, preserving the
  // matrix-totals == comm.messages/comm.bytes conservation invariant.
  grid.comm_matrix_add(CommPath::kAgg, ctx_.host(), grid.host_of(peer),
                       msgs * wire, bytes * wire);

  auto* session = grid.trace_session();
  if (session != nullptr && session->detail()) {
    ctx_.trace_instant(is_get ? "agg.flush_get" : "agg.flush_put",
                       {{"peer", std::to_string(peer)},
                        {"bytes", std::to_string(bytes)},
                        {"elems", std::to_string(elems)},
                        {"seq", std::to_string(seq)},
                        {"attempts", std::to_string(out.attempts)}});
  }

  // Duplicates overlap the original; serialized attempts plus injected
  // stall/retry waits are what this flush owes the clock.
  const double total_cost = static_cast<double>(out.attempts) * cost +
                            out.stall_time + out.wait_time;
  SimClock& clk = ctx_.clock();
  // Double buffering: the task hands the full buffer to the transport —
  // paying only the software handoff — and keeps filling the spare. The
  // transfer occupies the single injection channel: it starts once the
  // previous one finished and completes `cost` later; drain() joins the
  // tail. Compute between flushes therefore hides transfer time.
  const double start = std::max(clk.now(), inflight_end_);
  inflight_end_ = start + total_cost;
  clk.advance(grid.net().params().fine_grain_overhead);
}

void AggChannel::flush_put(int peer, std::int64_t bytes,
                           std::int64_t elems) {
  auto& grid = ctx_.grid();
  // Host-level locality: a logical peer co-hosted after a degraded-mode
  // remap is a memcpy, not a flush on the wire. The self side resolves
  // through the ctx's epoch-cached host.
  if (grid.host_of(peer) == ctx_.host()) {
    ++stats_.local_flushes;
    return;
  }
  const bool intra = grid.same_node(ctx_.host(), grid.host_of(peer));
  const int colo = grid.colocated();
  const auto& net = grid.net();
  const double cost = net.round_trip(kAggHeaderBytes, intra, colo) +
                      contention_ * net.bulk(bytes, intra, colo);
  // Header round trip (2 one-way messages) + the payload bulk.
  issue(peer, cost, 3, bytes, /*is_get=*/false, elems);
}

void AggChannel::flush_get(int peer, std::int64_t req_bytes,
                           std::int64_t resp_bytes, std::int64_t elems) {
  auto& grid = ctx_.grid();
  if (grid.host_of(peer) == ctx_.host()) {
    ++stats_.local_flushes;
    return;
  }
  const bool intra = grid.same_node(ctx_.host(), grid.host_of(peer));
  const int colo = grid.colocated();
  const auto& net = grid.net();
  double cost = net.round_trip(kAggHeaderBytes, intra, colo) +
                contention_ * net.bulk(resp_bytes, intra, colo);
  std::int64_t msgs = 3;  // header round trip + response bulk
  if (req_bytes > 0) {
    cost += contention_ * net.bulk(req_bytes, intra, colo);
    ++msgs;  // the request-batch bulk
  }
  issue(peer, cost, msgs, req_bytes + resp_bytes, /*is_get=*/true, elems);
}

void AggChannel::get_elems(int peer, std::int64_t count,
                           std::int64_t bytes_each) {
  if (ctx_.grid().host_of(peer) == ctx_.host() || count <= 0) {
    return;
  }
  stats_.pushed += count;
  for (std::int64_t left = count; left > 0; left -= capacity_) {
    const std::int64_t chunk = std::min(left, capacity_);
    flush_get(peer, 0, chunk * bytes_each, chunk);
  }
}

void AggChannel::drain() {
  if (ctx_.grid().epoch() != epoch_) return;  // stale epoch: nothing owed
  ctx_.clock().advance_to(inflight_end_);
}

}  // namespace pgb
