// Tests for the graph-as-a-service front end: epoch-versioned handles,
// bounded fair admission, batch formation, fused multi-source waves
// (byte-identical to solo runs, strictly cheaper than sequential),
// kill-mid-batch recovery, and same-seed served-trace determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "algo/algo_recovery.hpp"
#include "algo/bfs.hpp"
#include "algo/sssp.hpp"
#include "gen/erdos_renyi.hpp"
#include "service/service.hpp"

namespace pgb {
namespace {

std::shared_ptr<const DistCsr<double>> make_graph(LocaleGrid& grid, Index n,
                                                  double d,
                                                  std::uint64_t seed) {
  return std::make_shared<DistCsr<double>>(
      erdos_renyi_dist<double>(grid, n, d, seed));
}

PendingQuery make_query(int tenant, QueryKind kind = QueryKind::kBfs,
                        Index source = 0) {
  PendingQuery q;
  q.spec.tenant = tenant;
  q.spec.kind = kind;
  q.spec.source = source;
  return q;
}

// ---------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------

TEST(GraphStoreTest, EpochStartsAtOneAndPublishBumps) {
  auto grid = LocaleGrid::square(4, 2);
  GraphStore store;
  const auto h = store.load(make_graph(grid, 200, 4.0, 1));
  EXPECT_EQ(store.epoch(h), 1u);
  EXPECT_EQ(store.publish(h, make_graph(grid, 200, 4.0, 2)), 2u);
  EXPECT_EQ(store.epoch(h), 2u);
  EXPECT_EQ(store.publish(h, make_graph(grid, 200, 4.0, 3)), 3u);
}

TEST(GraphStoreTest, SnapshotPinsVersionAcrossPublishAndClose) {
  auto grid = LocaleGrid::square(4, 2);
  GraphStore store;
  auto g1 = make_graph(grid, 200, 4.0, 1);
  const auto h = store.load(g1);
  const GraphSnapshot snap = store.snapshot(h);
  EXPECT_EQ(snap.epoch, 1u);
  EXPECT_EQ(snap.graph.get(), g1.get());

  store.publish(h, make_graph(grid, 200, 4.0, 2));
  const GraphSnapshot snap2 = store.snapshot(h);
  EXPECT_EQ(snap2.epoch, 2u);
  EXPECT_NE(snap2.graph.get(), snap.graph.get());
  // The old snapshot still pins the old version.
  EXPECT_EQ(snap.graph.get(), g1.get());
  EXPECT_EQ(snap.epoch, 1u);

  store.close(h);
  EXPECT_FALSE(store.is_open(h));
  // Pinned snapshots outlive the close.
  EXPECT_EQ(snap2.graph->nrows(), 200);
  EXPECT_THROW(store.snapshot(h), InvalidHandleError);
  EXPECT_THROW(store.epoch(h), InvalidHandleError);
}

TEST(GraphStoreTest, RapidPublishesRetireVersionsSafely) {
  auto grid = LocaleGrid::square(4, 2);
  GraphStore store;
  const auto h = store.load(make_graph(grid, 200, 4.0, 1));

  // In-flight readers pin a snapshot at each epoch while publishes race
  // ahead: three bumps with every prior version still held live.
  std::vector<GraphSnapshot> inflight;
  inflight.push_back(store.snapshot(h));
  for (std::uint64_t s = 2; s <= 4; ++s) {
    store.publish(h, make_graph(grid, 200, 4.0, s));
    inflight.push_back(store.snapshot(h));
  }
  EXPECT_EQ(store.retired_live(), 3);
  for (std::size_t i = 0; i < inflight.size(); ++i) {
    // Each pinned version is intact and distinct — no use-after-free of
    // a retired epoch, no aliasing between epochs.
    EXPECT_EQ(inflight[i].epoch, i + 1);
    EXPECT_EQ(inflight[i].graph->nrows(), 200);
    for (std::size_t j = i + 1; j < inflight.size(); ++j) {
      EXPECT_NE(inflight[i].graph.get(), inflight[j].graph.get());
    }
  }
  // Releasing the readers lets the retired registry drain.
  inflight.clear();
  EXPECT_EQ(store.prune_retired(), 3);
  EXPECT_EQ(store.retired_live(), 0);
}

TEST(GraphStoreTest, CloseWithLiveSnapshotsDefersTeardown) {
  auto grid = LocaleGrid::square(4, 2);
  GraphStore store;
  const auto h = store.load(make_graph(grid, 200, 4.0, 1));
  store.publish(h, make_graph(grid, 200, 4.0, 2));
  GraphSnapshot held = store.snapshot(h);
  store.close(h);
  // The final version is retired, not destroyed: the live snapshot
  // keeps it readable after close.
  EXPECT_GE(store.retired_live(), 1);
  EXPECT_EQ(held.graph->nrows(), 200);
  EXPECT_EQ(held.epoch, 2u);
  held.graph.reset();
  store.prune_retired();
  EXPECT_EQ(store.retired_live(), 0);
}

TEST(GraphStoreTest, UnknownHandleThrows) {
  GraphStore store;
  EXPECT_THROW(store.snapshot(0), InvalidHandleError);
  EXPECT_THROW(store.snapshot(-1), InvalidHandleError);
  EXPECT_THROW(store.publish(7, nullptr), InvalidHandleError);
  EXPECT_FALSE(store.is_open(3));
}

// ---------------------------------------------------------------------
// Admission queue
// ---------------------------------------------------------------------

TEST(AdmissionQueueTest, BoundedDepthRejectsTyped) {
  AdmissionQueue q(3);
  EXPECT_EQ(q.offer(make_query(0)), AdmitCode::kAdmitted);
  EXPECT_EQ(q.offer(make_query(1)), AdmitCode::kAdmitted);
  EXPECT_EQ(q.offer(make_query(0)), AdmitCode::kAdmitted);
  EXPECT_EQ(q.offer(make_query(2)), AdmitCode::kQueueFull);
  EXPECT_EQ(q.size(), 3u);
  q.pop_fair();
  EXPECT_EQ(q.offer(make_query(2)), AdmitCode::kAdmitted);
}

TEST(AdmissionQueueTest, FairDequeueRoundRobinsTenants) {
  AdmissionQueue q(16);
  // Tenant 0 floods; tenants 1 and 2 each queue one.
  for (int i = 0; i < 4; ++i) {
    auto p = make_query(0);
    p.spec.source = i;  // tag FIFO order within the lane
    ASSERT_EQ(q.offer(std::move(p)), AdmitCode::kAdmitted);
  }
  ASSERT_EQ(q.offer(make_query(1, QueryKind::kBfs, 100)),
            AdmitCode::kAdmitted);
  ASSERT_EQ(q.offer(make_query(2, QueryKind::kBfs, 200)),
            AdmitCode::kAdmitted);

  std::vector<int> tenant_order;
  std::vector<Index> t0_sources;
  while (!q.empty()) {
    PendingQuery p = q.pop_fair();
    tenant_order.push_back(p.spec.tenant);
    if (p.spec.tenant == 0) t0_sources.push_back(p.spec.source);
  }
  // Round-robin: the flood delays only tenant 0's own lane.
  EXPECT_EQ(tenant_order, (std::vector<int>{0, 1, 2, 0, 0, 0}));
  // Per-tenant FIFO preserved.
  EXPECT_EQ(t0_sources, (std::vector<Index>{0, 1, 2, 3}));
}

TEST(AdmissionQueueTest, QueueDepthGaugeTracksSize) {
  obs::MetricsRegistry mx;
  AdmissionQueue q(4, &mx);
  EXPECT_EQ(mx.gauge("service.queue.depth").value, 0.0);
  q.offer(make_query(0));
  q.offer(make_query(1));
  EXPECT_EQ(mx.gauge("service.queue.depth").value, 2.0);
  q.pop_fair();
  EXPECT_EQ(mx.gauge("service.queue.depth").value, 1.0);
}

// ---------------------------------------------------------------------
// Batch formation
// ---------------------------------------------------------------------

TEST(BatcherTest, FusesCompatibleHeadsAcrossTenants) {
  auto grid = LocaleGrid::square(4, 2);
  auto g = make_graph(grid, 200, 4.0, 1);
  GraphSnapshot snap{g, 1};
  AdmissionQueue q(16);
  for (int t = 0; t < 3; ++t) {
    for (int i = 0; i < 2; ++i) {
      auto p = make_query(t, QueryKind::kBfs, t * 10 + i);
      p.snap = snap;
      ASSERT_EQ(q.offer(std::move(p)), AdmitCode::kAdmitted);
    }
  }
  auto batch = form_batch(q, 16);
  EXPECT_EQ(batch.size(), 6u);
  // Seed is tenant 0's head, then round-robin across lanes.
  EXPECT_EQ(batch[0].spec.tenant, 0);
  EXPECT_EQ(batch[1].spec.tenant, 1);
  EXPECT_EQ(batch[2].spec.tenant, 2);
  EXPECT_TRUE(q.empty());
}

TEST(BatcherTest, RespectsBatchMaxAndKindBoundary) {
  auto grid = LocaleGrid::square(4, 2);
  auto g = make_graph(grid, 200, 4.0, 1);
  GraphSnapshot snap{g, 1};
  AdmissionQueue q(16);
  // Tenant 0: bfs, then sssp behind it (only heads may be taken).
  auto p0 = make_query(0, QueryKind::kBfs, 1);
  p0.snap = snap;
  q.offer(std::move(p0));
  auto p1 = make_query(0, QueryKind::kSssp, 2);
  p1.snap = snap;
  q.offer(std::move(p1));
  auto p2 = make_query(1, QueryKind::kBfs, 3);
  p2.snap = snap;
  q.offer(std::move(p2));

  auto batch = form_batch(q, 16);
  ASSERT_EQ(batch.size(), 2u);  // the two BFS heads; the sssp stays
  EXPECT_EQ(batch[0].spec.kind, QueryKind::kBfs);
  EXPECT_EQ(batch[1].spec.kind, QueryKind::kBfs);
  EXPECT_EQ(q.size(), 1u);

  auto rest = form_batch(q, 16);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].spec.kind, QueryKind::kSssp);
}

TEST(BatcherTest, EpochMismatchDoesNotFuse) {
  auto grid = LocaleGrid::square(4, 2);
  auto g = make_graph(grid, 200, 4.0, 1);
  AdmissionQueue q(16);
  auto p0 = make_query(0, QueryKind::kBfs, 1);
  p0.snap = GraphSnapshot{g, 1};
  q.offer(std::move(p0));
  auto p1 = make_query(1, QueryKind::kBfs, 2);
  p1.snap = GraphSnapshot{g, 2};  // same graph object, later epoch
  q.offer(std::move(p1));
  auto batch = form_batch(q, 16);
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(q.size(), 1u);
}

TEST(BatcherTest, SubgraphKindsRunSolo) {
  auto grid = LocaleGrid::square(4, 2);
  auto g = make_graph(grid, 200, 4.0, 1);
  GraphSnapshot snap{g, 1};
  AdmissionQueue q(16);
  for (int i = 0; i < 3; ++i) {
    auto p = make_query(0, QueryKind::kEgoNet, i);
    p.snap = snap;
    q.offer(std::move(p));
  }
  auto batch = form_batch(q, 16);
  EXPECT_EQ(batch.size(), 1u);
}

// ---------------------------------------------------------------------
// Fused waves: byte identity + strictly cheaper
// ---------------------------------------------------------------------

TEST(BatchFusionTest, BfsBatchByteIdenticalToSoloAcrossCommModes) {
  auto grid = LocaleGrid::square(4, 2);
  auto a = erdos_renyi_dist<double>(grid, 1500, 6.0, 5);
  const std::vector<Index> sources = {0, 17, 400, 1499};
  for (const CommMode mode : {CommMode::kFine, CommMode::kBulk,
                              CommMode::kAggregated, CommMode::kAuto}) {
    SpmspvOptions opt;
    opt.comm = mode;
    std::vector<BfsResult> solo;
    for (const Index s : sources) {
      grid.reset();
      solo.push_back(bfs(a, s, opt));
    }
    grid.reset();
    const std::vector<BfsResult> batch = bfs_batch(a, sources, opt);
    ASSERT_EQ(batch.size(), sources.size());
    for (std::size_t i = 0; i < sources.size(); ++i) {
      EXPECT_EQ(batch[i].parent, solo[i].parent)
          << "mode=" << static_cast<int>(mode) << " lane " << i;
      EXPECT_EQ(batch[i].level_sizes, solo[i].level_sizes);
    }
  }
}

TEST(BatchFusionTest, SsspBatchByteIdenticalToSolo) {
  auto grid = LocaleGrid::square(4, 2);
  auto a = erdos_renyi_dist<double>(grid, 1200, 6.0, 9);
  const std::vector<Index> sources = {3, 250, 1100};
  for (const CommMode mode :
       {CommMode::kFine, CommMode::kAggregated, CommMode::kAuto}) {
    SpmspvOptions opt;
    opt.comm = mode;
    std::vector<SsspResult> solo;
    for (const Index s : sources) {
      grid.reset();
      solo.push_back(sssp(a, s, opt));
    }
    grid.reset();
    const std::vector<SsspResult> batch = sssp_batch(a, sources, opt);
    ASSERT_EQ(batch.size(), sources.size());
    for (std::size_t i = 0; i < sources.size(); ++i) {
      EXPECT_EQ(batch[i].dist, solo[i].dist)
          << "mode=" << static_cast<int>(mode) << " lane " << i;
    }
  }
}

TEST(BatchFusionTest, FusedBatchCheaperThanSequentialSolo) {
  auto grid = LocaleGrid::square(16, 4);
  auto a = erdos_renyi_dist<double>(grid, 20000, 8.0, 3);
  std::vector<Index> sources;
  for (int i = 0; i < 8; ++i) sources.push_back(static_cast<Index>(i * 2311));
  SpmspvOptions opt;
  opt.comm = CommMode::kAggregated;

  grid.reset();
  for (const Index s : sources) bfs(a, s, opt);
  const double seq_time = grid.time();
  const std::int64_t seq_msgs = grid.comm_stats().messages;

  grid.reset();
  bfs_batch(a, sources, opt);
  const double batch_time = grid.time();
  const std::int64_t batch_msgs = grid.comm_stats().messages;

  EXPECT_LT(batch_time, seq_time);
  EXPECT_LT(batch_msgs, seq_msgs);
}

// ---------------------------------------------------------------------
// Kill mid-batch: the degraded path replays the wave bit-identical
// ---------------------------------------------------------------------

TEST(BatchRecoveryTest, KillMidBatchRecoversBitIdentical) {
  auto grid = LocaleGrid::square(4, 2);
  auto a = erdos_renyi_dist<double>(grid, 800, 8.0, 11);
  const std::vector<Index> sources = {0, 99, 500};
  SpmspvOptions opt;
  opt.comm = CommMode::kAggregated;

  grid.reset();
  const std::vector<BfsResult> base = bfs_batch(a, sources, opt);
  const double total = grid.time();
  ASSERT_GT(total, 0.0);

  grid.reset();
  FaultPlan plan(
      FaultSpec::parse("kill:locale=1,at=" + std::to_string(total * 0.4)),
      21);
  ResilienceOptions bopt;  // degraded by default
  RecoveryReport report;
  const std::vector<BfsResult> rec = run_resilient(
      grid, &plan, bfs_batch_recovery_loop(a, sources, opt), bopt, &report);
  EXPECT_GE(report.rebuilds, 1);
  ASSERT_EQ(rec.size(), base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(rec[i].parent, base[i].parent) << "lane " << i;
    EXPECT_EQ(rec[i].level_sizes, base[i].level_sizes);
  }
}

// ---------------------------------------------------------------------
// Service facade
// ---------------------------------------------------------------------

TEST(GraphServiceTest, SubmitValidatesAndServes) {
  auto grid = LocaleGrid::square(4, 2);
  ServiceConfig cfg;
  cfg.queue_depth = 8;
  cfg.batch_max = 4;
  GraphService svc(grid, cfg);
  const auto h = svc.store().load(make_graph(grid, 500, 6.0, 1));

  QuerySpec spec;
  spec.kind = QueryKind::kBfs;
  spec.source = 3;
  spec.tenant = 0;
  const auto s = svc.submit(h, spec, 0.0);
  EXPECT_EQ(s.code, AdmitCode::kAdmitted);
  ASSERT_GE(s.id, 0);

  QuerySpec bad = spec;
  bad.source = 5000;  // out of range
  EXPECT_EQ(svc.submit(h, bad, 0.0).code, AdmitCode::kBadQuery);
  EXPECT_THROW(svc.submit(99, spec, 0.0), InvalidHandleError);

  svc.drain();
  const QueryRecord& rec = svc.record(s.id);
  EXPECT_EQ(rec.state, QueryState::kDone);
  EXPECT_EQ(rec.result.kind, QueryKind::kBfs);
  EXPECT_EQ(rec.result.bfs.parent[3], 3);
  EXPECT_GE(rec.completion, rec.arrival);
}

TEST(GraphServiceTest, StaleEpochAndOverloadAreTyped) {
  auto grid = LocaleGrid::square(4, 2);
  ServiceConfig cfg;
  cfg.queue_depth = 2;
  GraphService svc(grid, cfg);
  const auto h = svc.store().load(make_graph(grid, 300, 4.0, 1));

  QuerySpec spec;
  spec.tenant = 1;
  // Pin epoch 1, publish epoch 2, then the pin is stale.
  svc.store().publish(h, make_graph(grid, 300, 4.0, 2));
  EXPECT_EQ(svc.submit(h, spec, 0.0, 1).code, AdmitCode::kStaleHandle);
  EXPECT_THROW(svc.submit_strict(h, spec, 0.0, 1), InvalidHandleError);
  EXPECT_EQ(svc.submit(h, spec, 0.0, 2).code, AdmitCode::kAdmitted);

  // Fill the depth-2 queue; the third offer is shed.
  EXPECT_EQ(svc.submit(h, spec, 0.0).code, AdmitCode::kAdmitted);
  EXPECT_EQ(svc.submit(h, spec, 0.0).code, AdmitCode::kQueueFull);
  EXPECT_THROW(svc.submit_strict(h, spec, 0.0), ServiceOverloaded);
  EXPECT_EQ(
      grid.metrics()
          .counter("service.rejected",
                   {{"tenant", "1"}, {"reason", "queue_full"}})
          .value,
      2);
}

TEST(GraphServiceTest, BatchesFuseAndResultsMatchSolo) {
  const std::vector<Index> sources = {1, 77, 300, 640};
  SpmspvOptions opt;
  opt.comm = CommMode::kAggregated;

  // Solo reference on a fresh grid.
  auto refgrid = LocaleGrid::square(4, 2);
  auto refg = erdos_renyi_dist<double>(refgrid, 900, 6.0, 4);
  std::vector<BfsResult> solo;
  for (const Index s : sources) {
    refgrid.reset();
    solo.push_back(bfs(refg, s, opt));
  }

  auto grid = LocaleGrid::square(4, 2);
  ServiceConfig cfg;
  cfg.batch_max = 8;
  cfg.spmspv = opt;
  GraphService svc(grid, cfg);
  const auto h = svc.store().load(make_graph(grid, 900, 6.0, 4));
  std::vector<std::int64_t> ids;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    QuerySpec spec;
    spec.kind = QueryKind::kBfs;
    spec.source = sources[i];
    spec.tenant = static_cast<int>(i % 2);
    ids.push_back(svc.submit(h, spec, 0.0).id);
  }
  svc.drain();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const QueryRecord& rec = svc.record(ids[i]);
    ASSERT_EQ(rec.state, QueryState::kDone);
    EXPECT_EQ(rec.batch_width, 4) << "query " << i;
    EXPECT_EQ(rec.result.bfs.parent, solo[i].parent) << "query " << i;
  }
  EXPECT_EQ(grid.metrics().counter("service.batches").value, 1);
  EXPECT_EQ(grid.metrics().counter("service.batched_queries").value, 4);
}

TEST(GraphServiceTest, ServedTraceDeterministicAcrossRuns) {
  auto run_once = [](std::vector<double>* completions,
                     std::vector<int>* widths, double* final_time) {
    auto grid = LocaleGrid::square(4, 2);
    ServiceConfig cfg;
    cfg.batch_max = 4;
    cfg.spmspv.comm = CommMode::kAuto;
    GraphService svc(grid, cfg);
    const auto h = svc.store().load(make_graph(grid, 700, 6.0, 8));
    const QueryKind kinds[] = {QueryKind::kBfs, QueryKind::kBfs,
                               QueryKind::kSssp, QueryKind::kEgoNet,
                               QueryKind::kBfs};
    for (int i = 0; i < 5; ++i) {
      QuerySpec spec;
      spec.kind = kinds[i];
      spec.source = static_cast<Index>(i * 131);
      spec.tenant = i % 3;
      svc.submit(h, spec, 1e-5 * i);
    }
    svc.drain();
    for (const auto& rec : svc.records()) {
      completions->push_back(rec.completion);
      widths->push_back(rec.batch_width);
    }
    *final_time = grid.time();
  };
  std::vector<double> c1, c2;
  std::vector<int> w1, w2;
  double t1 = 0.0, t2 = 0.0;
  run_once(&c1, &w1, &t1);
  run_once(&c2, &w2, &t2);
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(w1, w2);
  EXPECT_EQ(t1, t2);
}

TEST(GraphServiceTest, PagerankSubgraphAndEgoNetServe) {
  auto grid = LocaleGrid::square(4, 2);
  ServiceConfig cfg;
  GraphService svc(grid, cfg);
  const auto h = svc.store().load(make_graph(grid, 400, 6.0, 2));

  QuerySpec ego;
  ego.kind = QueryKind::kEgoNet;
  ego.source = 10;
  ego.depth = 2;
  const auto e = svc.submit(h, ego, 0.0);

  QuerySpec pr;
  pr.kind = QueryKind::kPagerankSubgraph;
  pr.source = 10;
  pr.depth = 2;
  const auto p = svc.submit(h, pr, 0.0);
  svc.drain();

  const auto& erec = svc.record(e.id);
  ASSERT_EQ(erec.state, QueryState::kDone);
  ASSERT_FALSE(erec.result.ego.empty());
  // The source belongs to its own ego net.
  EXPECT_TRUE(std::find(erec.result.ego.begin(), erec.result.ego.end(),
                        Index{10}) != erec.result.ego.end());

  const auto& prec = svc.record(p.id);
  ASSERT_EQ(prec.state, QueryState::kDone);
  EXPECT_EQ(prec.result.ego, erec.result.ego);
  ASSERT_EQ(prec.result.rank.size(), prec.result.ego.size());
  double sum = 0.0;
  for (const double r : prec.result.rank) sum += r;
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

// ---------------------------------------------------------------------
// Resilience: deadlines, backpressure, quotas, breakers, compaction
// ---------------------------------------------------------------------

namespace {
void advance_all(LocaleGrid& grid, double t) {
  for (int l = 0; l < grid.num_locales(); ++l) grid.clock(l).advance_to(t);
}
}  // namespace

TEST(ResilienceTest, DeadlineExpiresWhileQueuedNeverServes) {
  auto grid = LocaleGrid::square(4, 2);
  ServiceConfig cfg;
  GraphService svc(grid, cfg);
  const auto h = svc.store().load(make_graph(grid, 300, 4.0, 1));

  QuerySpec spec;
  spec.source = 2;
  spec.tenant = 3;
  spec.deadline_s = 0.01;
  const auto s = svc.submit(h, spec, 0.0);
  ASSERT_EQ(s.code, AdmitCode::kAdmitted);

  // The deadline passes while the query sits queued: the next round
  // evicts it (stage=queue) instead of serving late.
  advance_all(grid, 0.02);
  EXPECT_TRUE(svc.step());  // a round that only expires still returns true
  const QueryRecord& rec = svc.record(s.id);
  EXPECT_EQ(rec.state, QueryState::kDeadlineExpired);
  EXPECT_NE(rec.state, QueryState::kDone);
  EXPECT_GE(rec.completion, 0.02);
  EXPECT_EQ(grid.metrics()
                .counter("service.expired",
                         {{"tenant", "3"}, {"stage", "queue"}})
                .value,
            1);
  EXPECT_FALSE(svc.step());  // queue drained, nothing left
}

TEST(ResilienceTest, AdmissionGateRefusesUnserviceableDeadline) {
  auto grid = LocaleGrid::square(4, 2);
  ServiceConfig cfg;
  GraphService svc(grid, cfg);
  const auto h = svc.store().load(make_graph(grid, 600, 6.0, 3));

  // Calibrate the cost model with one real BFS batch.
  QuerySpec warm;
  warm.source = 0;
  svc.submit(h, warm, 0.0);
  svc.drain();
  ASSERT_TRUE(svc.cost_model().calibrated(QueryKind::kBfs));
  const double est = svc.cost_model().estimate(QueryKind::kBfs, 1);
  ASSERT_GT(est, 0.0);

  // A deadline at half the calibrated estimate cannot be met: the fuse
  // gate refuses it at admission rather than serving it late. The
  // deadline is still in the future, so queue eviction does NOT fire —
  // this exercises the admission stage specifically.
  const double now = grid.time();
  QuerySpec tight;
  tight.source = 5;
  tight.tenant = 1;
  tight.deadline_s = est * 0.5;
  const auto s = svc.submit(h, tight, now);
  ASSERT_EQ(s.code, AdmitCode::kAdmitted);
  EXPECT_TRUE(svc.step());
  const QueryRecord& rec = svc.record(s.id);
  EXPECT_EQ(rec.state, QueryState::kDeadlineExpired);
  EXPECT_EQ(grid.metrics()
                .counter("service.expired",
                         {{"tenant", "1"}, {"stage", "admission"}})
                .value,
            1);

  // A generous deadline sails through the same gate.
  QuerySpec loose;
  loose.source = 5;
  loose.tenant = 1;
  loose.deadline_s = est * 100.0;
  const auto ok = svc.submit(h, loose, grid.time());
  svc.drain();
  EXPECT_EQ(svc.record(ok.id).state, QueryState::kDone);
}

TEST(ResilienceTest, NoResultEverReturnedPastItsDeadline) {
  auto grid = LocaleGrid::square(4, 2);
  ServiceConfig cfg;
  cfg.batch_max = 4;
  GraphService svc(grid, cfg);
  const auto h = svc.store().load(make_graph(grid, 500, 6.0, 7));

  // A spread of deadlines from hopeless to generous, across tenants.
  const double deadlines[] = {1e-9, 1e-6, 1e-4, 1e-2, 0.0, 1.0};
  for (int i = 0; i < 30; ++i) {
    QuerySpec spec;
    spec.kind = i % 2 == 0 ? QueryKind::kBfs : QueryKind::kSssp;
    spec.source = static_cast<Index>((i * 17) % 500);
    spec.tenant = i % 3;
    spec.deadline_s = deadlines[i % 6];
    svc.submit(h, spec, grid.time());
    if (i % 7 == 0) svc.step();
  }
  svc.drain();

  // The contract: every record is terminal, and a kDone record finished
  // inside its deadline. Late completions must read kDeadlineExpired.
  for (const auto& rec : svc.records()) {
    EXPECT_NE(rec.state, QueryState::kQueued) << "id " << rec.id;
    if (rec.state == QueryState::kDone) {
      EXPECT_LE(rec.completion, rec.deadline) << "id " << rec.id;
    } else {
      EXPECT_NE(rec.state, QueryState::kDone) << "id " << rec.id;
    }
  }
}

TEST(ResilienceTest, QueueFullCarriesRetryAfterHint) {
  auto grid = LocaleGrid::square(4, 2);
  ServiceConfig cfg;
  cfg.queue_depth = 2;
  cfg.retry_floor_s = 2e-3;
  GraphService svc(grid, cfg);
  const auto h = svc.store().load(make_graph(grid, 300, 4.0, 1));

  QuerySpec spec;
  spec.tenant = 0;
  ASSERT_EQ(svc.submit(h, spec, 0.0).code, AdmitCode::kAdmitted);
  ASSERT_EQ(svc.submit(h, spec, 0.0).code, AdmitCode::kAdmitted);
  // Uncalibrated service rate: the hint falls back to the floor.
  const auto shed = svc.submit(h, spec, 0.0);
  EXPECT_EQ(shed.code, AdmitCode::kQueueFull);
  EXPECT_DOUBLE_EQ(shed.retry_after_s, 2e-3);
  EXPECT_DOUBLE_EQ(grid.metrics().gauge("service.retry_after.s").value, 2e-3);

  // Once calibrated, the hint prices draining the backlog at the
  // observed rate: queued / rate, never below the floor.
  svc.drain();
  ASSERT_GT(svc.cost_model().service_rate(), 0.0);
  const double now = grid.time();
  ASSERT_EQ(svc.submit(h, spec, now).code, AdmitCode::kAdmitted);
  ASSERT_EQ(svc.submit(h, spec, now).code, AdmitCode::kAdmitted);
  const auto shed2 = svc.submit(h, spec, now);
  EXPECT_EQ(shed2.code, AdmitCode::kQueueFull);
  const double expect =
      std::max(2e-3, 2.0 / svc.cost_model().service_rate());
  EXPECT_DOUBLE_EQ(shed2.retry_after_s, expect);
}

TEST(ResilienceTest, TokenBucketQuotaThrottlesAndRefills) {
  auto grid = LocaleGrid::square(4, 2);
  ServiceConfig cfg;
  cfg.governor.quota_qps = 10.0;
  cfg.governor.quota_burst = 2.0;
  GraphService svc(grid, cfg);
  const auto h = svc.store().load(make_graph(grid, 300, 4.0, 1));

  QuerySpec spec;
  spec.tenant = 4;
  // Burst of 2 admitted, the third is over quota.
  EXPECT_EQ(svc.submit(h, spec, 0.0).code, AdmitCode::kAdmitted);
  EXPECT_EQ(svc.submit(h, spec, 0.0).code, AdmitCode::kAdmitted);
  EXPECT_EQ(svc.submit(h, spec, 0.0).code, AdmitCode::kTenantThrottled);
  EXPECT_THROW(svc.submit_strict(h, spec, 0.0), TenantThrottled);
  EXPECT_EQ(grid.metrics()
                .counter("service.rejected",
                         {{"tenant", "4"}, {"reason", "tenant_quota"}})
                .value,
            2);  // kTenantThrottled submit + the strict throw both count
  // Another tenant is unaffected — quotas are per-lane.
  QuerySpec other = spec;
  other.tenant = 5;
  EXPECT_EQ(svc.submit(h, other, 0.0).code, AdmitCode::kAdmitted);
  // 0.1 simulated seconds refills one token at 10 qps.
  EXPECT_EQ(svc.submit(h, spec, 0.1).code, AdmitCode::kAdmitted);
  EXPECT_EQ(svc.submit(h, spec, 0.1).code, AdmitCode::kTenantThrottled);
}

TEST(ResilienceTest, BreakerTripsOpensThenHalfOpenProbeCloses) {
  auto grid = LocaleGrid::square(4, 2);
  ServiceConfig cfg;
  cfg.queue_depth = 1;
  cfg.governor.breaker_k = 2;
  cfg.governor.breaker_cooldown_s = 0.05;
  GraphService svc(grid, cfg);
  const auto h = svc.store().load(make_graph(grid, 300, 4.0, 1));

  // Park a tenant-0 query so the depth-1 queue stays full, then feed
  // tenant 7 two consecutive queue-full failures: trip at K=2.
  QuerySpec parked;
  parked.tenant = 0;
  ASSERT_EQ(svc.submit(h, parked, 0.0).code, AdmitCode::kAdmitted);
  QuerySpec spec;
  spec.tenant = 7;
  EXPECT_EQ(svc.submit(h, spec, 0.0).code, AdmitCode::kQueueFull);
  EXPECT_EQ(svc.governor().state(7, 0.0), BreakerState::kClosed);
  EXPECT_EQ(svc.submit(h, spec, 0.0).code, AdmitCode::kQueueFull);
  EXPECT_EQ(svc.governor().state(7, 0.0), BreakerState::kOpen);
  EXPECT_EQ(svc.governor().trips(7), 1);
  EXPECT_EQ(grid.metrics()
                .counter("service.breaker.trips", {{"tenant", "7"}})
                .value,
            1);

  // While open the tenant is shed cheaply — no queue interaction at all.
  svc.drain();  // queue now has room; the breaker still answers first
  EXPECT_EQ(svc.submit(h, spec, 0.01).code, AdmitCode::kTenantThrottled);
  EXPECT_EQ(grid.metrics()
                .counter("service.rejected",
                         {{"tenant", "7"}, {"reason", "breaker_open"}})
                .value,
            1);

  // After the cooldown the breaker half-opens; one successful probe
  // closes it for good.
  EXPECT_EQ(svc.governor().state(7, 0.06), BreakerState::kHalfOpen);
  const auto probe = svc.submit(h, spec, 0.06);
  ASSERT_EQ(probe.code, AdmitCode::kAdmitted);
  svc.drain();
  ASSERT_EQ(svc.record(probe.id).state, QueryState::kDone);
  EXPECT_EQ(svc.governor().state(7, grid.time()), BreakerState::kClosed);
  EXPECT_EQ(svc.submit(h, spec, grid.time()).code, AdmitCode::kAdmitted);
}

TEST(ResilienceTest, ExpiredOnlyLaneDoesNotStallFairDequeue) {
  auto grid = LocaleGrid::square(4, 2);
  AdmissionQueue q(8, &grid.metrics());

  // Tenant 0's only query is already expired; tenants 1 and 2 are live.
  PendingQuery dead = make_query(0);
  dead.id = 10;
  dead.deadline = 0.5;
  ASSERT_EQ(q.offer(std::move(dead)), AdmitCode::kAdmitted);
  PendingQuery live1 = make_query(1);
  live1.id = 11;
  ASSERT_EQ(q.offer(std::move(live1)), AdmitCode::kAdmitted);
  PendingQuery live2 = make_query(2);
  live2.id = 12;
  ASSERT_EQ(q.offer(std::move(live2)), AdmitCode::kAdmitted);
  EXPECT_DOUBLE_EQ(grid.metrics().gauge("service.queue.depth").value, 3.0);

  // Eviction removes exactly the expired query, keeps FIFO order for
  // the rest, and the depth gauge stays coherent through it.
  std::vector<PendingQuery> evicted = q.take_expired(1.0);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].id, 10);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_DOUBLE_EQ(grid.metrics().gauge("service.queue.depth").value, 2.0);

  // Round-robin must skip the emptied lane instead of stalling on it.
  EXPECT_EQ(q.head(0), nullptr);
  EXPECT_EQ(q.pop_fair().spec.tenant, 1);
  EXPECT_EQ(q.pop_fair().spec.tenant, 2);
  EXPECT_TRUE(q.empty());
  EXPECT_DOUBLE_EQ(grid.metrics().gauge("service.queue.depth").value, 0.0);
  EXPECT_TRUE(q.take_expired(2.0).empty());
}

TEST(ResilienceTest, RecordBookStaysMemorySteadyOver10kQueries) {
  auto grid = LocaleGrid::square(4, 2);
  ServiceConfig cfg;
  cfg.queue_depth = 64;
  cfg.compact_watermark = 128;
  GraphService svc(grid, cfg);
  const auto h = svc.store().load(make_graph(grid, 200, 3.0, 5));

  // Sustained traffic: 10k queries across tenants, every terminal
  // record released as its client would. A tight deadline expires most
  // at the queue stage (cheap), a sprinkling runs for real — either way
  // the released prefix compacts and the book never grows unbounded.
  constexpr int kTotal = 10000;
  constexpr int kRound = 50;
  std::int64_t released = 0;
  std::int64_t max_live = 0;
  std::int64_t next = 0;
  for (int round = 0; round < kTotal / kRound; ++round) {
    const double now = grid.time();
    for (int i = 0; i < kRound; ++i) {
      QuerySpec spec;
      spec.source = static_cast<Index>((round * kRound + i) % 200);
      spec.tenant = i % 4;
      spec.deadline_s = i == 0 ? 0.0 : 1e-7;  // lane 0 actually serves
      const auto s = svc.submit(h, spec, now);
      ASSERT_EQ(s.code, AdmitCode::kAdmitted);
    }
    advance_all(grid, now + 1e-6);
    svc.drain();
    // Release everything terminal that we have not released yet.
    const std::int64_t upto = svc.records_retired() + svc.records_live();
    for (; next < upto; ++next) {
      svc.release(next);
      ++released;
    }
    max_live = std::max(max_live, svc.records_live());
  }
  EXPECT_EQ(released, kTotal);
  EXPECT_EQ(svc.records_retired() + svc.records_live(), kTotal);
  // Memory-steady: the live window is bounded by watermark + one round,
  // nowhere near the 10k offered.
  EXPECT_LE(max_live, cfg.compact_watermark + kRound);
  EXPECT_LE(svc.records_live(), cfg.compact_watermark);
  EXPECT_GE(svc.records_retired(), kTotal - cfg.compact_watermark);
  EXPECT_DOUBLE_EQ(grid.metrics().gauge("service.records.live").value,
                   static_cast<double>(svc.records_live()));
  EXPECT_EQ(grid.metrics().counter("service.records.retired").value,
            svc.records_retired());
  // Retired ids are gone for good; live ids still resolve.
  EXPECT_THROW(svc.record(0), Error);
}

TEST(ResilienceTest, ReleaseOfQueuedQueryIsRejected) {
  auto grid = LocaleGrid::square(4, 2);
  GraphService svc(grid, ServiceConfig{});
  const auto h = svc.store().load(make_graph(grid, 200, 3.0, 5));
  QuerySpec spec;
  const auto s = svc.submit(h, spec, 0.0);
  EXPECT_THROW(svc.release(s.id), Error);
  svc.drain();
  svc.release(s.id);  // terminal now: fine
}

TEST(ResilienceTest, HealthReportsDegradedServingAfterMidTrafficKill) {
  const std::vector<Index> sources = {0, 99, 500};
  SpmspvOptions opt;
  opt.comm = CommMode::kAggregated;

  // Fault-free reference for the bit-identical check + kill timing.
  auto refgrid = LocaleGrid::square(4, 2);
  auto refg = erdos_renyi_dist<double>(refgrid, 800, 8.0, 11);
  refgrid.reset();
  const std::vector<BfsResult> base = bfs_batch(refg, sources, opt);
  const double total = refgrid.time();

  auto serve_once = [&](std::vector<double>* completions, double* tend,
                        std::string* mode) {
    auto grid = LocaleGrid::square(4, 2);
    FaultPlan plan(
        FaultSpec::parse("kill:locale=1,at=" + std::to_string(total * 0.4)),
        21);
    grid.set_fault_plan(&plan);
    RecoveryReport report;
    ServiceConfig cfg;
    cfg.batch_max = 4;
    cfg.spmspv = opt;
    cfg.plan = &plan;
    cfg.resilience.keep_membership = true;
    cfg.report = &report;
    GraphService svc(grid, cfg);
    const auto h = svc.store().load(make_graph(grid, 800, 8.0, 11));
    std::vector<std::int64_t> ids;
    for (const Index s : sources) {
      QuerySpec spec;
      spec.source = s;
      ids.push_back(svc.submit(h, spec, 0.0).id);
    }
    svc.drain();
    EXPECT_GE(report.rebuilds, 1);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const QueryRecord& rec = svc.record(ids[i]);
      ASSERT_EQ(rec.state, QueryState::kDone);
      EXPECT_EQ(rec.result.bfs.parent, base[i].parent) << "lane " << i;
      completions->push_back(rec.completion);
    }
    // A follow-up query after the kill serves on the surviving hosts
    // (keep_membership holds the remap between driver calls).
    QuerySpec after;
    after.source = 7;
    const auto a = svc.submit(h, after, grid.time());
    svc.drain();
    EXPECT_EQ(svc.record(a.id).state, QueryState::kDone);
    const ServiceHealth hh = svc.health();
    *mode = hh.mode;
    EXPECT_EQ(hh.degraded_locales, 1);
    EXPECT_EQ(hh.active_hosts, grid.num_locales() - 1);
    EXPECT_EQ(hh.open_breakers(), 0);
    EXPECT_DOUBLE_EQ(
        grid.metrics().gauge("service.health.mode_degraded").value, 1.0);
    EXPECT_DOUBLE_EQ(
        grid.metrics().gauge("service.health.degraded_locales").value, 1.0);
    *tend = grid.time();
  };

  std::vector<double> c1, c2;
  double t1 = 0.0, t2 = 0.0;
  std::string m1, m2;
  serve_once(&c1, &t1, &m1);
  serve_once(&c2, &t2, &m2);
  EXPECT_EQ(m1, "degraded");
  // Chaos serving is bit-deterministic: same seed, same kill, same trace.
  EXPECT_EQ(m1, m2);
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(t1, t2);
}

TEST(ResilienceTest, HealthSummaryFormatsBreakersAndMode) {
  auto grid = LocaleGrid::square(4, 2);
  ServiceConfig cfg;
  GraphService svc(grid, cfg);
  const auto h = svc.store().load(make_graph(grid, 200, 3.0, 5));
  QuerySpec spec;
  spec.tenant = 2;
  svc.submit(h, spec, 0.0);
  svc.drain();
  const ServiceHealth hh = svc.health();
  const std::string s = hh.summary();
  EXPECT_NE(s.find("mode=normal"), std::string::npos) << s;
  EXPECT_NE(s.find("breakers{2:closed}"), std::string::npos) << s;
  EXPECT_NE(s.find("live_records="), std::string::npos) << s;
}

}  // namespace
}  // namespace pgb
