// Tests for the conveyor-style aggregation layer: buffer mechanics
// (capacity-triggered / explicit / destructor flushes), stat counters,
// the double-buffered overlap model, grid-wide communication accounting,
// and — most importantly — that every kernel wired to CommMode produces
// byte-identical results across the fine / bulk / aggregated schedules.
#include <gtest/gtest.h>

#include <type_traits>
#include <utility>
#include <vector>

#include "algo/bfs.hpp"
#include "algo/sssp.hpp"
#include "core/assign_general.hpp"
#include "core/extract.hpp"
#include "core/ops.hpp"
#include "core/spmspv.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/random_vec.hpp"
#include "runtime/aggregator.hpp"

namespace pgb {
namespace {

TEST(CommMode, ParseAndPrintRoundTrip) {
  EXPECT_EQ(parse_comm_mode("fine"), CommMode::kFine);
  EXPECT_EQ(parse_comm_mode("bulk"), CommMode::kBulk);
  EXPECT_EQ(parse_comm_mode("agg"), CommMode::kAggregated);
  EXPECT_EQ(parse_comm_mode("aggregated"), CommMode::kAggregated);
  EXPECT_THROW(parse_comm_mode("broadcast"), InvalidArgument);
  EXPECT_STREQ(to_string(CommMode::kFine), "fine");
  EXPECT_STREQ(to_string(CommMode::kBulk), "bulk");
  EXPECT_STREQ(to_string(CommMode::kAggregated), "agg");
}

TEST(AggChannel, RejectsBadConfig) {
  auto g = LocaleGrid::square(4, 1);
  LocaleCtx ctx(g, 0);
  EXPECT_THROW(AggChannel(ctx, 0), InvalidArgument);
  EXPECT_THROW(AggChannel(ctx, kAggCapacity, 0.5), InvalidArgument);
}

TEST(DstAggregator, CapacityTriggersFlushesOfFullBuffers) {
  auto g = LocaleGrid::square(4, 1);
  LocaleCtx ctx(g, 0);
  std::vector<std::size_t> batch_sizes;
  std::vector<int> received;
  DstAggregator<int> agg(
      ctx,
      [&](int /*peer*/, std::vector<int>& batch) {
        batch_sizes.push_back(batch.size());
        for (int v : batch) received.push_back(v);
      },
      /*capacity=*/4);
  for (int i = 0; i < 10; ++i) agg.push(1, i);
  // Two capacity-triggered flushes so far; two elements still buffered.
  EXPECT_EQ(batch_sizes, (std::vector<std::size_t>{4, 4}));
  agg.flush_all();
  EXPECT_EQ(batch_sizes, (std::vector<std::size_t>{4, 4, 2}));
  // FIFO delivery: elements arrive in push order.
  EXPECT_EQ(received, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(agg.stats().pushed, 10);
  EXPECT_EQ(agg.stats().flushes, 3);
  EXPECT_EQ(agg.stats().local_flushes, 0);
}

TEST(DstAggregator, ExplicitFlushShipsPartialBuffer) {
  auto g = LocaleGrid::square(4, 1);
  LocaleCtx ctx(g, 0);
  int delivered = 0;
  DstAggregator<int> agg(
      ctx, [&](int, std::vector<int>& b) { delivered += static_cast<int>(b.size()); });
  agg.push(2, 7);
  EXPECT_EQ(delivered, 0);  // still buffered
  agg.flush(2);
  EXPECT_EQ(delivered, 1);
  agg.flush(2);  // empty buffer: no-op
  EXPECT_EQ(agg.stats().flushes, 1);
}

TEST(DstAggregator, DestructorFlushesRemainingBuffers) {
  auto g = LocaleGrid::square(4, 1);
  std::vector<int> sink;
  {
    LocaleCtx ctx(g, 0);
    DstAggregator<int> agg(
        ctx, [&](int, std::vector<int>& b) {
          sink.insert(sink.end(), b.begin(), b.end());
        });
    agg.push(1, 11);
    agg.push(3, 33);
    EXPECT_TRUE(sink.empty());
  }
  EXPECT_EQ(sink, (std::vector<int>{11, 33}));
  EXPECT_GT(g.clock(0).now(), 0.0);  // the flushes charged the model
}

TEST(DstAggregator, SelfPeerFlushesAreFreeAndCountedSeparately) {
  auto g = LocaleGrid::square(4, 1);
  LocaleCtx ctx(g, 2);
  int delivered = 0;
  DstAggregator<int> agg(
      ctx, [&](int, std::vector<int>& b) { delivered += static_cast<int>(b.size()); });
  for (int i = 0; i < 5; ++i) agg.push(2, i);
  agg.flush_all();
  EXPECT_EQ(delivered, 5);  // data still moves
  EXPECT_EQ(agg.stats().local_flushes, 1);
  EXPECT_EQ(agg.stats().flushes, 0);
  EXPECT_EQ(agg.stats().messages, 0);
  EXPECT_DOUBLE_EQ(g.clock(2).now(), 0.0);  // but no comm is charged
  EXPECT_EQ(g.comm_stats().agg_flushes, 0);
}

TEST(DstAggregator, StatsCountMessagesAndBytes) {
  auto g = LocaleGrid::square(4, 1);
  LocaleCtx ctx(g, 0);
  DstAggregator<std::int64_t> agg(ctx, [](int, std::vector<std::int64_t>&) {},
                                  /*capacity=*/8);
  for (int i = 0; i < 16; ++i) agg.push(1, i);  // exactly two full flushes
  agg.flush_all();
  const auto& s = agg.stats();
  EXPECT_EQ(s.pushed, 16);
  EXPECT_EQ(s.flushes, 2);
  // Each put flush: header round trip (2 one-way messages) + payload bulk.
  EXPECT_EQ(s.messages, 6);
  EXPECT_EQ(s.bytes, 16 * static_cast<std::int64_t>(sizeof(std::int64_t)));
  // Grid-wide accounting mirrors the per-aggregator stats.
  EXPECT_EQ(g.comm_stats().agg_flushes, 2);
  EXPECT_EQ(g.comm_stats().messages, 6);
}

TEST(SrcAggregator, BufferedGetsResolveAgainstPeerData) {
  auto g = LocaleGrid::square(4, 1);
  LocaleCtx ctx(g, 0);
  // "Remote" table on peer 1: value = 10 * key.
  std::vector<int> results;
  SrcAggregator<int> agg(
      ctx,
      [&](int /*peer*/, std::vector<int>& batch) {
        for (int k : batch) results.push_back(10 * k);
      },
      /*capacity=*/3, /*contention=*/1.0, /*resp_bytes_each=*/8);
  for (int k = 0; k < 7; ++k) agg.get(1, k);
  agg.flush_all();
  EXPECT_EQ(results, (std::vector<int>{0, 10, 20, 30, 40, 50, 60}));
  const auto& s = agg.stats();
  EXPECT_EQ(s.pushed, 7);
  EXPECT_EQ(s.flushes, 3);  // 3 + 3 + 1
  // Each get flush: header RT (2) + request bulk + response bulk = 4.
  EXPECT_EQ(s.messages, 12);
  EXPECT_EQ(s.bytes, 7 * static_cast<std::int64_t>(sizeof(int)) + 7 * 8);
}

TEST(AggChannel, GetElemsChunksByCapacity) {
  auto g = LocaleGrid::square(4, 1);
  LocaleCtx ctx(g, 0);
  AggChannel chan(ctx, /*capacity=*/100);
  chan.get_elems(1, 250, 16);
  chan.drain();
  EXPECT_EQ(chan.stats().pushed, 250);
  EXPECT_EQ(chan.stats().flushes, 3);  // 100 + 100 + 50
  // Range gets carry no request payload: 3 messages per flush.
  EXPECT_EQ(chan.stats().messages, 9);
  EXPECT_EQ(chan.stats().bytes, 250 * 16);
  chan.get_elems(0, 1000, 16);  // self peer: free
  EXPECT_EQ(chan.stats().flushes, 3);
}

TEST(AggChannel, DoubleBufferingOverlapsTransferWithCompute) {
  // Two flushes with compute in between: synchronous flushes would pay
  // both transfers and both computes serially; double buffering hides
  // the compute behind the in-flight transfer.
  const std::int64_t bytes = 1 << 20;
  auto g = LocaleGrid::square(4, 1);
  LocaleCtx ctx(g, 0);
  AggChannel chan(ctx, kAggCapacity);
  const auto& net = g.net();
  const bool intra = g.same_node(0, 1);
  const double payload = net.bulk(bytes, intra, g.colocated());
  const double transfer =
      net.round_trip(kAggHeaderBytes, intra, g.colocated()) + payload;
  const double compute = 0.25 * payload;
  chan.flush_put(1, bytes);
  ctx.clock().advance(compute);
  chan.flush_put(1, bytes);
  ctx.clock().advance(compute);
  chan.drain();
  const double t_overlap = g.clock(0).now();
  EXPECT_LT(t_overlap, 2.0 * transfer + 2.0 * compute);
  // Overlap can hide the compute but not the transfers themselves.
  EXPECT_GE(t_overlap, 2.0 * payload);
}

TEST(AggChannel, DrainIsIdempotentAndJoinsTheTail) {
  auto g = LocaleGrid::square(4, 1);
  LocaleCtx ctx(g, 0);
  AggChannel chan(ctx, kAggCapacity);
  chan.flush_put(1, 1 << 20);
  const double before = g.clock(0).now();
  chan.drain();
  const double after = g.clock(0).now();
  EXPECT_GT(after, before);  // the tail of the transfer was outstanding
  chan.drain();
  EXPECT_DOUBLE_EQ(g.clock(0).now(), after);
}

// ---- per-peer state only for peers in use ----

TEST(PeerBuffers, SpanCoversOnlyPeersPushedTo) {
  PeerBuffers<int> bufs;
  EXPECT_EQ(bufs.find(0), nullptr);
  bufs.at(600).push_back(1);
  bufs.at(605).push_back(2);
  bufs.at(598).push_back(3);  // below the span: grows toward peer 0
  EXPECT_LE(bufs.first(), 598);
  EXPECT_GE(bufs.end(), 606);
  EXPECT_LE(bufs.end() - bufs.first(), 16);
  EXPECT_EQ(bufs.find(0), nullptr);
  EXPECT_EQ(bufs.find(1023), nullptr);
  EXPECT_EQ(*bufs.find(605), (std::vector<int>{2}));
  EXPECT_TRUE(bufs.find(601)->empty());
}

using Deliveries = std::vector<std::pair<int, std::vector<int>>>;

/// Sends value i to peers[i] through a DstAggregator (puts) or a
/// SrcAggregator (gets) on `ctx`, then flush_all(). Returns every
/// delivery in order; `early` counts those made before flush_all().
template <template <typename> class Agg>
Deliveries push_all(LocaleCtx& ctx, std::int64_t capacity,
                    const std::vector<int>& peers, std::size_t& early,
                    AggregatorStats& stats) {
  Deliveries got;
  Agg<int> agg(
      ctx, [&](int peer, std::vector<int>& b) { got.emplace_back(peer, b); },
      capacity);
  for (std::size_t i = 0; i < peers.size(); ++i) {
    if constexpr (std::is_same_v<Agg<int>, DstAggregator<int>>) {
      agg.push(peers[i], static_cast<int>(i));
    } else {
      agg.get(peers[i], static_cast<int>(i));
    }
  }
  early = got.size();
  agg.flush_all();
  stats = agg.stats();
  return got;
}

/// Issues `flushes` directly on an AggChannel, in the given order; a get
/// flush carries SrcAggregator's default 8 response bytes per request.
AggregatorStats replay_on_channel(LocaleCtx& ctx, std::int64_t capacity,
                                  std::size_t pushes,
                                  const Deliveries& flushes, bool gets) {
  AggChannel chan(ctx, capacity);
  for (std::size_t i = 0; i < pushes; ++i) chan.count_push();
  for (const auto& [peer, batch] : flushes) {
    const auto n = static_cast<std::int64_t>(batch.size());
    const auto bytes = n * static_cast<std::int64_t>(sizeof(int));
    if (gets) {
      chan.flush_get(peer, bytes, n * 8, n);
    } else {
      chan.flush_put(peer, bytes, n);
    }
  }
  chan.drain();
  return chan.stats();
}

template <template <typename> class Agg>
void expect_order_kept_at_scale(bool gets) {
  constexpr int kSelf = 512;
  constexpr std::int64_t kCapacity = 3;
  // Descending, then interleaved, including the self peer; peer 40's
  // third element (value 10) fills its buffer and flushes it early.
  const std::vector<int> peers = {1023, 900, kSelf, 40, 0,  0, 1023,
                                  kSelf, 40, 900,  40, 7, 40};
  const Deliveries expected = {
      {40, {3, 8, 10}},  // capacity-triggered, at push time
      // flush_all: ascending peers, each batch first-in first-out.
      {0, {4, 5}},
      {7, {11}},
      {40, {12}},
      {kSelf, {2, 7}},
      {900, {1, 9}},
      {1023, {0, 6}},
  };

  auto g = LocaleGrid::square(1024, 1);
  LocaleCtx ctx(g, kSelf);
  std::size_t early = 0;
  AggregatorStats stats;
  const Deliveries got = push_all<Agg>(ctx, kCapacity, peers, early, stats);
  EXPECT_EQ(got, expected);
  EXPECT_EQ(early, 1u);

  // The network model sees exactly the same flush sequence as a channel
  // driven by hand: bit-identical clock and counters.
  auto ref = LocaleGrid::square(1024, 1);
  LocaleCtx ref_ctx(ref, kSelf);
  const AggregatorStats want =
      replay_on_channel(ref_ctx, kCapacity, peers.size(), expected, gets);
  EXPECT_EQ(g.clock(kSelf).now(), ref.clock(kSelf).now());
  EXPECT_EQ(stats.pushed, want.pushed);
  EXPECT_EQ(stats.flushes, want.flushes);
  EXPECT_EQ(stats.local_flushes, want.local_flushes);
  EXPECT_EQ(stats.messages, want.messages);
  EXPECT_EQ(stats.bytes, want.bytes);
  EXPECT_EQ(stats.resends, want.resends);
  EXPECT_EQ(stats.local_flushes, 1);  // the self peer's one batch
  EXPECT_EQ(g.comm_stats().messages, ref.comm_stats().messages);
  EXPECT_EQ(g.comm_stats().bytes, ref.comm_stats().bytes);
  EXPECT_EQ(g.comm_stats().agg_flushes, ref.comm_stats().agg_flushes);
}

TEST(DstAggregator, PeerOrderKeptAt1024Locales) {
  expect_order_kept_at_scale<DstAggregator>(/*gets=*/false);
}

TEST(SrcAggregator, PeerOrderKeptAt1024Locales) {
  expect_order_kept_at_scale<SrcAggregator>(/*gets=*/true);
}

TEST(CommStats, RemoteHelpersFillGridCounters) {
  auto g = LocaleGrid::square(4, 1);
  LocaleCtx ctx(g, 0);
  ctx.remote_bulk(1, 4096);
  EXPECT_EQ(g.comm_stats().messages, 1);
  EXPECT_EQ(g.comm_stats().bulks, 1);
  EXPECT_EQ(g.comm_stats().bytes, 4096);
  ctx.remote_rt(1, 8);
  EXPECT_EQ(g.comm_stats().messages, 3);
  ctx.remote_msgs(1, 10, 16);
  EXPECT_EQ(g.comm_stats().messages, 13);
  EXPECT_EQ(g.comm_stats().bytes, 4096 + 8 + 160);
  // remote_chain: count elements, each with rts_per_elem round trips.
  ctx.remote_chain(1, 10, 2.0, 8);
  EXPECT_EQ(g.comm_stats().messages, 13 + 10 + 40);
  // Self-peer helpers charge nothing and count nothing.
  ctx.remote_bulk(0, 1 << 20);
  EXPECT_EQ(g.comm_stats().bulks, 1);
  g.reset();
  EXPECT_EQ(g.comm_stats().messages, 0);
  EXPECT_EQ(g.comm_stats().bytes, 0);
}

// ---- cross-schedule equivalence of the wired kernels ----

template <typename T>
void expect_identical(const SparseVec<T>& a, const SparseVec<T>& b) {
  ASSERT_EQ(a.nnz(), b.nnz());
  for (Index p = 0; p < a.nnz(); ++p) {
    EXPECT_EQ(a.index_at(p), b.index_at(p)) << "slot " << p;
    EXPECT_EQ(a.value_at(p), b.value_at(p)) << "slot " << p;
  }
}

TEST(CommModeEquivalence, SpmspvBitIdenticalAcrossSchedules) {
  // Floating-point values: identical bits require identical per-slot
  // accumulation order, the strongest equivalence the aggregators claim.
  const Index n = 600;
  auto grid = LocaleGrid::square(9, 4);
  auto a = erdos_renyi_dist<double>(grid, n, 6.0, 11);
  auto x = random_dist_sparse_vec<double>(grid, n, 90, 12);
  const auto sr = arithmetic_semiring<double>();

  SpmspvOptions opt;
  opt.agg_capacity = 32;  // force many mid-stream flushes
  auto y_fine = spmspv_dist(a, x, sr, opt.with_comm(CommMode::kFine));
  auto y_bulk = spmspv_dist(a, x, sr, opt.with_comm(CommMode::kBulk));
  auto y_agg = spmspv_dist(a, x, sr, opt.with_comm(CommMode::kAggregated));
  expect_identical(y_fine.to_local(), y_bulk.to_local());
  expect_identical(y_fine.to_local(), y_agg.to_local());
}

TEST(CommModeEquivalence, AssignIndexedIdenticalAcrossSchedules) {
  const Index n = 500;
  auto grid = LocaleGrid::square(6, 2);
  auto b = random_dist_sparse_vec<double>(grid, n, 120, 3);
  std::vector<Index> map(static_cast<std::size_t>(n));
  for (Index k = 0; k < n; ++k) map[static_cast<std::size_t>(k)] = n - 1 - k;

  auto run = [&](CommMode m) {
    auto a = random_dist_sparse_vec<double>(grid, n, 60, 4);
    assign_indexed(a, map, b, OutputMode::kMerge, m, /*agg_capacity=*/16);
    return a.to_local();
  };
  auto fine = run(CommMode::kFine);
  expect_identical(fine, run(CommMode::kBulk));
  expect_identical(fine, run(CommMode::kAggregated));
}

TEST(CommModeEquivalence, ExtractIndexedIdenticalAcrossSchedules) {
  const Index n = 400;
  auto grid = LocaleGrid::square(4, 2);
  auto a = random_dist_sparse_vec<double>(grid, n, 150, 9);
  std::vector<Index> map(300);
  for (std::size_t k = 0; k < map.size(); ++k) {
    map[k] = static_cast<Index>((k * 131 + 17) % n);
  }
  const std::int64_t cap = 16;
  auto fine = extract_indexed(a, map, CommMode::kFine, cap);
  auto bulk = extract_indexed(a, map, CommMode::kBulk, cap);
  auto agg = extract_indexed(a, map, CommMode::kAggregated, cap);
  expect_identical(fine.to_local(), bulk.to_local());
  expect_identical(fine.to_local(), agg.to_local());
}

TEST(CommModeEquivalence, ExtractCompactIdenticalAcrossSchedules) {
  const Index n = 800;
  auto grid = LocaleGrid::square(6, 2);
  auto x = random_dist_sparse_vec<double>(grid, n, 200, 5);
  const std::int64_t cap = 8;
  auto fine = extract_compact(x, 100, 700, CommMode::kFine, cap);
  auto bulk = extract_compact(x, 100, 700, CommMode::kBulk, cap);
  auto agg = extract_compact(x, 100, 700, CommMode::kAggregated, cap);
  EXPECT_EQ(fine.capacity(), 600);
  expect_identical(fine.to_local(), bulk.to_local());
  expect_identical(fine.to_local(), agg.to_local());
}

TEST(CommModeEquivalence, BfsIdenticalAcrossSchedules) {
  const Index n = 500;
  auto grid = LocaleGrid::square(4, 4);
  auto a = erdos_renyi_dist<std::int64_t>(grid, n, 4.0, 21);
  auto run = [&](CommMode m) {
    SpmspvOptions opt;
    opt.comm = m;
    opt.agg_capacity = 32;
    return bfs(a, 0, opt);
  };
  auto fine = run(CommMode::kFine);
  auto agg = run(CommMode::kAggregated);
  EXPECT_EQ(fine.parent, agg.parent);
  EXPECT_EQ(fine.level_sizes, agg.level_sizes);
}

TEST(CommModeEquivalence, SsspIdenticalAcrossSchedules) {
  const Index n = 400;
  auto grid = LocaleGrid::square(4, 4);
  auto a = erdos_renyi_dist<double>(grid, n, 5.0, 31);
  auto run = [&](CommMode m) {
    SpmspvOptions opt;
    opt.comm = m;
    opt.agg_capacity = 32;
    return sssp(a, 0, opt);
  };
  auto fine = run(CommMode::kFine);
  auto agg = run(CommMode::kAggregated);
  EXPECT_EQ(fine.rounds, agg.rounds);
  ASSERT_EQ(fine.dist.size(), agg.dist.size());
  for (std::size_t v = 0; v < fine.dist.size(); ++v) {
    EXPECT_EQ(fine.dist[v], agg.dist[v]) << "vertex " << v;
  }
}

// ---- modeled-performance shape ----

TEST(AggModel, AggregationBeatsFineAndApproachesBulk) {
  // The acceptance shape of the aggregation layer on a distributed
  // SpMSpV: an order of magnitude fewer messages than fine-grained, and
  // modeled time competitive with the hand-rolled bulk path.
  const Index n = 100000;
  auto grid = LocaleGrid::square(16, 24);
  auto a = erdos_renyi_dist<std::int64_t>(grid, n, 16.0, 5);
  auto x = random_dist_sparse_vec<std::int64_t>(grid, n, n / 50, 6);
  const auto sr = arithmetic_semiring<std::int64_t>();

  SpmspvOptions opt;
  auto run = [&](CommMode m) {
    grid.reset();
    auto y = spmspv_dist(a, x, sr, opt.with_comm(m));
    return std::make_tuple(grid.time(), grid.comm_stats().messages,
                           y.to_local());
  };
  auto [t_fine, m_fine, y_fine] = run(CommMode::kFine);
  auto [t_bulk, m_bulk, y_bulk] = run(CommMode::kBulk);
  auto [t_agg, m_agg, y_agg] = run(CommMode::kAggregated);

  expect_identical(y_fine, y_bulk);
  expect_identical(y_fine, y_agg);
  EXPECT_GE(m_fine, 10 * m_agg);
  EXPECT_LT(t_agg, t_fine);
  EXPECT_LE(t_agg, 1.10 * t_bulk);
}

}  // namespace
}  // namespace pgb
