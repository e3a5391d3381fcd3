// Tests for crash-consistent streaming ingestion (src/ingest/): the
// checksummed delta log and its torn-tail replay, the write-ahead
// mirror contract, atomic epoch publish with pinned readers, compaction,
// kill-mid-stream recovery bit-identity, and the incremental recompute
// paths (union-find CC, warm-restart pagerank).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algo/cc_incremental.hpp"
#include "algo/connected_components.hpp"
#include "algo/pagerank.hpp"
#include "fault/fault.hpp"
#include "gen/erdos_renyi.hpp"
#include "ingest/ingest.hpp"
#include "obs/trace.hpp"
#include "service/event_log.hpp"
#include "sparse/coo.hpp"
#include "util/rng.hpp"

namespace pgb {
namespace {

constexpr Index kN = 400;  ///< vertices of the small test graphs

/// A deterministic base graph: ring + a few chords, symmetric, values
/// quantized like the mutation stream's.
Coo<double> base_coo(Index n) {
  Coo<double> coo(n, n);
  for (Index v = 0; v < n; ++v) {
    const Index w = (v + 1) % n;
    coo.add(v, w, 0.5);
    coo.add(w, v, 0.5);
  }
  for (Index v = 0; v < n; v += 17) {
    const Index w = (v * 7 + 3) % n;
    if (w != v && w != (v + 1) % n && v != (w + 1) % n) {
      coo.add(v, w, 0.25);
      coo.add(w, v, 0.25);
    }
  }
  return coo;
}

/// Reference model of the mutated graph: coordinate map with
/// last-write-wins inserts and erase-if-present deletes.
using EdgeModel = std::map<std::pair<Index, Index>, double>;

EdgeModel model_of(const Coo<double>& coo) {
  EdgeModel m;
  for (const auto& e : coo.triples()) m[{e.row, e.col}] = e.val;
  return m;
}

void model_apply(EdgeModel& m, const MutationBatch& b) {
  for (const EdgeDelta& d : b.deltas) {
    if (d.op == DeltaOp::kInsert) {
      m[{d.row, d.col}] = d.val;
    } else {
      m.erase({d.row, d.col});
    }
  }
}

std::uint64_t model_hash(LocaleGrid& grid, const EdgeModel& m, Index n) {
  Coo<double> coo(n, n);
  for (const auto& [rc, v] : m) coo.add(rc.first, rc.second, v);
  const auto g = DistCsr<double>::from_coo(grid, coo);
  return ingest_graph_hash(g);
}

// ---------------------------------------------------------------------
// Checksums and pages
// ---------------------------------------------------------------------

TEST(DeltaLogTest, BatchChecksumDetectsTamper) {
  MutationRng rng{7};
  MutationBatch b = make_mutation_batch(rng, kN, 16, IngestMix{}, 1);
  EXPECT_TRUE(b.valid());
  b.deltas[3].val += 1.0;
  EXPECT_FALSE(b.valid());
  b.stamp();
  EXPECT_TRUE(b.valid());
  b.seq = 2;  // the checksum covers the sequence number too
  EXPECT_FALSE(b.valid());
}

TEST(DeltaLogTest, PageEncodeDecodeRoundTrip) {
  MutationRng rng{7};
  IngestMix mix;
  mix.erase = 1;
  const MutationBatch b = make_mutation_batch(rng, kN, 9, mix, 4);
  DeltaLogPage p = DeltaLogPage::encode(4, b.deltas);
  EXPECT_TRUE(p.valid());
  EXPECT_EQ(p.frame_bytes(),
            kPageHeaderBytes +
                static_cast<std::int64_t>(b.deltas.size()) * kEdgeDeltaBytes);
  const auto back = p.decode();
  ASSERT_EQ(back.size(), b.deltas.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].row, b.deltas[i].row);
    EXPECT_EQ(back[i].col, b.deltas[i].col);
    EXPECT_EQ(back[i].val, b.deltas[i].val);
    EXPECT_EQ(back[i].op, b.deltas[i].op);
  }
  p.payload[5] ^= 0xff;
  EXPECT_FALSE(p.valid());
}

TEST(DeltaLogTest, AppendRequiresIncreasingSeqAndTruncatesBothEnds) {
  MutationRng rng{3};
  DeltaLog log;
  for (std::int64_t s = 1; s <= 4; ++s) {
    log.append(DeltaLogPage::encode(
        s, make_mutation_batch(rng, kN, 4, IngestMix{}, s).deltas));
  }
  EXPECT_EQ(log.size(), 4);
  EXPECT_EQ(log.last_seq(), 4);
  EXPECT_THROW(log.append(DeltaLogPage::encode(4, {})), Error);
  log.truncate_after(2);  // rollback of the unacked suffix
  EXPECT_EQ(log.last_seq(), 2);
  EXPECT_EQ(log.size(), 2);
  log.truncate_through(1);  // compaction of the folded prefix
  EXPECT_EQ(log.size(), 1);
  EXPECT_EQ(log.pages().front().seq, 2);
  EXPECT_EQ(log.bytes(),
            static_cast<std::int64_t>(log.serialize().size()));
}

// ---------------------------------------------------------------------
// Torn-tail replay: table-driven over every truncation and corruption
// offset of a mirrored stream
// ---------------------------------------------------------------------

TEST(DeltaLogTest, ReplayDiscardsExactlyTheUnackedSuffix) {
  MutationRng rng{11};
  std::vector<unsigned char> bytes;
  for (std::int64_t s = 1; s <= 5; ++s) {
    frame_append(bytes, DeltaLogPage::encode(
        s, make_mutation_batch(rng, kN, 3 + static_cast<int>(s),
                               IngestMix{}, s).deltas));
  }
  // durable = 3: pages 1..3 replay; the intact 4..5 suffix was never
  // acked, so it drops wholesale without being torn.
  const ReplayResult r =
      replay_log_bytes(bytes.data(), bytes.size(), 3);
  ASSERT_EQ(r.pages.size(), 3u);
  EXPECT_EQ(r.last_seq, 3);
  EXPECT_FALSE(r.torn_tail);
  EXPECT_GE(r.pages_discarded, 1);
  EXPECT_EQ(r.bytes_consumed + r.bytes_discarded,
            static_cast<std::int64_t>(bytes.size()));
  // durable = 5: everything replays, nothing dropped.
  const ReplayResult all =
      replay_log_bytes(bytes.data(), bytes.size(), 5);
  EXPECT_EQ(all.pages.size(), 5u);
  EXPECT_EQ(all.bytes_discarded, 0);
  EXPECT_FALSE(all.torn_tail);
}

TEST(DeltaLogTest, ReplayTruncationTableEveryByteOffset) {
  MutationRng rng{13};
  std::vector<unsigned char> bytes;
  std::vector<std::size_t> boundary = {0};
  for (std::int64_t s = 1; s <= 4; ++s) {
    frame_append(bytes, DeltaLogPage::encode(
        s, make_mutation_batch(rng, kN, 2 + static_cast<int>(s),
                               IngestMix{}, s).deltas));
    boundary.push_back(bytes.size());
  }
  // Truncate the mirror at *every* byte offset — page boundaries and
  // every mid-header/mid-payload cut. Replay must keep exactly the
  // whole frames before the cut and flag everything else torn.
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    const ReplayResult r = replay_log_bytes(bytes.data(), cut, 4);
    std::size_t whole = 0;
    while (whole + 1 < boundary.size() && boundary[whole + 1] <= cut) {
      ++whole;
    }
    ASSERT_EQ(r.pages.size(), whole) << "cut at " << cut;
    EXPECT_EQ(r.bytes_consumed,
              static_cast<std::int64_t>(boundary[whole]))
        << "cut at " << cut;
    EXPECT_EQ(r.torn_tail, cut != boundary[whole]) << "cut at " << cut;
    EXPECT_EQ(r.bytes_discarded,
              static_cast<std::int64_t>(cut - boundary[whole]));
    for (std::size_t i = 0; i < r.pages.size(); ++i) {
      EXPECT_EQ(r.pages[i].seq, static_cast<std::int64_t>(i + 1));
    }
  }
}

TEST(DeltaLogTest, ReplayCorruptionTableEveryByteOffset) {
  MutationRng rng{17};
  std::vector<unsigned char> bytes;
  std::vector<std::size_t> boundary = {0};
  for (std::int64_t s = 1; s <= 3; ++s) {
    frame_append(bytes, DeltaLogPage::encode(
        s, make_mutation_batch(rng, kN, 3, IngestMix{}, s).deltas));
    boundary.push_back(bytes.size());
  }
  // Flip one byte at every offset: replay must stop at (or before) the
  // page containing the flip, never crash, and keep the intact prefix.
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::vector<unsigned char> corrupt = bytes;
    corrupt[i] ^= 0x5a;
    const ReplayResult r =
        replay_log_bytes(corrupt.data(), corrupt.size(), 3);
    std::size_t page_of = 0;
    while (boundary[page_of + 1] <= i) ++page_of;
    EXPECT_LE(r.pages.size(), page_of) << "flip at " << i;
    EXPECT_TRUE(r.torn_tail) << "flip at " << i;
    for (std::size_t k = 0; k < r.pages.size(); ++k) {
      EXPECT_EQ(r.pages[k].seq, static_cast<std::int64_t>(k + 1));
      EXPECT_TRUE(r.pages[k].valid());
    }
  }
}

TEST(DeltaLogTest, HugeCountFrameReplaysTorn) {
  // The frame claims INT64_MAX/4 deltas over a two-delta payload, and
  // its checksum is re-stamped, so only the count check stands between
  // it and replay. The check must reject it without overflowing.
  MutationRng rng{19};
  DeltaLogPage p = DeltaLogPage::encode(
      1, make_mutation_batch(rng, kN, 2, IngestMix{}, 1).deltas);
  p.count = std::numeric_limits<std::int64_t>::max() / 4;
  p.stamp();
  EXPECT_FALSE(p.valid());
  std::vector<unsigned char> bytes;
  frame_append(bytes, p);
  const ReplayResult r = replay_log_bytes(bytes.data(), bytes.size(), 1);
  EXPECT_TRUE(r.pages.empty());
  EXPECT_TRUE(r.torn_tail);
  EXPECT_EQ(r.bytes_discarded, static_cast<std::int64_t>(bytes.size()));
}

/// Recomputes the checksum of each frame, front to back, while its
/// header still parses: the mutant's header fields then meet replay's
/// other checks instead of failing on the checksum.
void restamp_frames(std::vector<unsigned char>& bytes) {
  std::size_t off = 0;
  while (off + kPageHeaderBytes <= bytes.size()) {
    DeltaLogPage p;
    std::int64_t len = 0;
    std::memcpy(&p.seq, bytes.data() + off, 8);
    std::memcpy(&p.count, bytes.data() + off + 8, 8);
    std::memcpy(&len, bytes.data() + off + 16, 8);
    const std::size_t body = off + kPageHeaderBytes;
    if (len < 0 || static_cast<std::uint64_t>(len) > bytes.size() - body) {
      return;
    }
    p.payload.assign(bytes.begin() + static_cast<std::ptrdiff_t>(body),
                     bytes.begin() + static_cast<std::ptrdiff_t>(body) + len);
    const std::uint64_t sum = p.compute_checksum();
    std::memcpy(bytes.data() + off + 24, &sum, 8);
    off = body + static_cast<std::size_t>(len);
  }
}

TEST(DeltaLogTest, MutatedMirrorStreamsReplaySafely) {
  // Seeded byte mutations of valid mirror streams: bit flips, header
  // fields overwritten with edge values, inserted bytes and cuts. Odd
  // iterations re-stamp the mutant's checksums before replay.
  MutationRng gen{23};
  struct Stream {
    std::vector<unsigned char> bytes;
    std::vector<std::size_t> frames;  ///< offset of each frame
  };
  std::vector<Stream> streams(4);
  for (int k = 0; k < 4; ++k) {
    for (std::int64_t seq = 1; seq <= 2 + k; ++seq) {
      streams[k].frames.push_back(streams[k].bytes.size());
      const int count = static_cast<int>((seq * (k + 1)) % 4);
      const auto ds = count == 0 ? std::vector<EdgeDelta>{}
                                 : make_mutation_batch(gen, kN, count,
                                                       IngestMix{}, seq)
                                       .deltas;
      frame_append(streams[k].bytes, DeltaLogPage::encode(seq, ds));
    }
  }
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::int64_t edge[] = {0,         1,        -1,          2,
                               28,        56,       3 * 28 + 1,  1ll << 32,
                               kMax,      kMax / 4, kMax / 28 + 1,
                               -kMax - 1, 7};
  Xoshiro256 rng(2024);
  int with_pages = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    const Stream& src = streams[rng.next() % streams.size()];
    std::vector<unsigned char> m = src.bytes;
    const int edits = 1 + static_cast<int>(rng.next() % 3);
    for (int e = 0; e < edits && !m.empty(); ++e) {
      const std::size_t at = rng.next() % m.size();
      switch (rng.next() % 4) {
        case 0:
          m[at] ^= static_cast<unsigned char>(1u << (rng.next() % 8));
          break;
        case 1: {
          const std::size_t field = src.frames[rng.next() % src.frames.size()] +
                                    8 * (rng.next() % 4);
          const std::int64_t v = edge[rng.next() % std::size(edge)];
          if (field + 8 <= m.size()) std::memcpy(m.data() + field, &v, 8);
          break;
        }
        case 2:
          m.insert(m.begin() + static_cast<std::ptrdiff_t>(at),
                   static_cast<unsigned char>(rng.next()));
          break;
        default:
          m.resize(at);
          break;
      }
    }
    if (iter % 2 == 1) restamp_frames(m);
    const std::int64_t durable = 1 + static_cast<std::int64_t>(rng.next() % 6);
    SCOPED_TRACE(iter);
    ReplayResult r;
    ASSERT_NO_THROW(r = replay_log_bytes(m.data(), m.size(), durable));
    EXPECT_EQ(r.bytes_consumed + r.bytes_discarded,
              static_cast<std::int64_t>(m.size()));
    std::int64_t prev = -1, consumed = 0;
    for (const DeltaLogPage& p : r.pages) {
      ASSERT_TRUE(p.valid());
      EXPECT_EQ(static_cast<std::int64_t>(p.decode().size()), p.count);
      EXPECT_GT(p.seq, prev);
      EXPECT_LE(p.seq, durable);
      prev = p.seq;
      consumed += p.frame_bytes();
    }
    EXPECT_EQ(consumed, r.bytes_consumed);
    with_pages += r.pages.empty() ? 0 : 1;
  }
  EXPECT_GT(with_pages, 0);
}

// ---------------------------------------------------------------------
// Apply / publish semantics
// ---------------------------------------------------------------------

TEST(IngestStreamTest, PublishedGraphMatchesReferenceModel) {
  auto grid = LocaleGrid::square(8, 2);
  const Coo<double> coo = base_coo(kN);
  auto a = DistCsr<double>::from_coo(grid, coo);
  GraphStore store;
  const auto h = store.load(std::make_shared<DistCsr<double>>(a));
  IngestStream stream(grid, store, h, a);

  EdgeModel model = model_of(coo);
  MutationRng rng{23};
  IngestMix mix;
  mix.insert = 3;
  mix.erase = 1;  // deletes exercised too (incl. deletes of absent edges)
  for (std::int64_t s = 1; s <= 6; ++s) {
    const MutationBatch b = make_mutation_batch(rng, kN, 40, mix, s);
    stream.apply(b);
    model_apply(model, b);
    stream.publish();
    const GraphSnapshot snap = store.snapshot(h);
    EXPECT_EQ(ingest_graph_hash(*snap.graph), model_hash(grid, model, kN))
        << "after batch " << s;
  }
  EXPECT_EQ(stream.stats().batches, 6);
  EXPECT_EQ(stream.stats().publishes, 6);
}

TEST(IngestStreamTest, AckImpliesMirrored) {
  auto grid = LocaleGrid::square(4, 2);
  const Coo<double> coo = base_coo(kN);
  auto a = DistCsr<double>::from_coo(grid, coo);
  GraphStore store;
  const auto h = store.load(std::make_shared<DistCsr<double>>(a));
  IngestStream stream(grid, store, h, a);
  MutationRng rng{29};
  for (std::int64_t s = 1; s <= 3; ++s) {
    stream.apply(make_mutation_batch(rng, kN, 24, IngestMix{}, s));
  }
  // Write-ahead contract: after the ack, every locale's mirror replays
  // all acked pages with nothing discarded.
  for (int l = 0; l < grid.num_locales(); ++l) {
    const auto& m = stream.mirror_bytes_for_test(l);
    const ReplayResult r =
        replay_log_bytes(m.data(), m.size(), stream.acked_seq());
    EXPECT_EQ(static_cast<std::int64_t>(r.pages.size()),
              stream.log(l).size());
    EXPECT_EQ(r.bytes_discarded, 0);
    EXPECT_FALSE(r.torn_tail);
  }
}

TEST(IngestStreamTest, OutOfOrderOrTamperedBatchRejected) {
  auto grid = LocaleGrid::square(4, 2);
  const Coo<double> coo = base_coo(kN);
  auto a = DistCsr<double>::from_coo(grid, coo);
  GraphStore store;
  const auto h = store.load(std::make_shared<DistCsr<double>>(a));
  IngestStream stream(grid, store, h, a);
  MutationRng rng{31};
  MutationBatch skip = make_mutation_batch(rng, kN, 8, IngestMix{}, 2);
  EXPECT_THROW(stream.apply(skip), Error);  // expects seq 1
  MutationBatch tampered = make_mutation_batch(rng, kN, 8, IngestMix{}, 1);
  tampered.deltas[0].val += 0.5;  // checksum now stale
  EXPECT_THROW(stream.apply(tampered), Error);
  EXPECT_EQ(stream.acked_seq(), 0);
}

TEST(IngestStreamTest, ReadersStayPinnedAcrossPublishes) {
  auto grid = LocaleGrid::square(4, 2);
  const Coo<double> coo = base_coo(kN);
  auto a = DistCsr<double>::from_coo(grid, coo);
  GraphStore store;
  const auto h = store.load(std::make_shared<DistCsr<double>>(a));
  IngestStream stream(grid, store, h, a);

  const GraphSnapshot pinned = store.snapshot(h);
  const std::uint64_t hash_before = ingest_graph_hash(*pinned.graph);
  MutationRng rng{37};
  for (std::int64_t s = 1; s <= 3; ++s) {
    stream.apply(make_mutation_batch(rng, kN, 32, IngestMix{}, s));
    stream.publish();
    // The pinned snapshot still reads the exact pre-ingest bytes.
    EXPECT_EQ(ingest_graph_hash(*pinned.graph), hash_before);
    EXPECT_EQ(pinned.epoch, 1u);
  }
  const GraphSnapshot fresh = store.snapshot(h);
  EXPECT_EQ(fresh.epoch, 4u);
  EXPECT_NE(ingest_graph_hash(*fresh.graph), hash_before);
  EXPECT_GE(store.retired_live(), 1);
}

TEST(IngestStreamTest, CompactionPreservesContentAndTruncatesLogs) {
  auto grid1 = LocaleGrid::square(4, 2);
  auto grid2 = LocaleGrid::square(4, 2);
  const Coo<double> coo = base_coo(kN);
  auto a1 = DistCsr<double>::from_coo(grid1, coo);
  auto a2 = DistCsr<double>::from_coo(grid2, coo);
  GraphStore st1, st2;
  const auto h1 = st1.load(std::make_shared<DistCsr<double>>(a1));
  const auto h2 = st2.load(std::make_shared<DistCsr<double>>(a2));
  IngestOptions eager;
  eager.compact_every = 1;  // compact at every publish
  IngestOptions lazy;
  lazy.compact_every = 1 << 30;  // never compact
  IngestStream s1(grid1, st1, h1, a1, eager);
  IngestStream s2(grid2, st2, h2, a2, lazy);

  MutationRng r1{41}, r2{41};
  IngestMix mix;
  mix.erase = 1;
  for (std::int64_t s = 1; s <= 5; ++s) {
    s1.apply(make_mutation_batch(r1, kN, 48, mix, s));
    s2.apply(make_mutation_batch(r2, kN, 48, mix, s));
    s1.publish();
    s2.publish();
    EXPECT_EQ(ingest_graph_hash(*st1.snapshot(h1).graph),
              ingest_graph_hash(*st2.snapshot(h2).graph))
        << "epoch diverged at batch " << s;
  }
  EXPECT_EQ(s1.stats().compactions, 5);
  EXPECT_EQ(s2.stats().compactions, 0);
  // Compaction truncated the folded prefix everywhere; the lazy stream
  // still carries every page.
  EXPECT_EQ(s1.log_bytes(), 0);
  EXPECT_GT(s2.log_bytes(), 0);
  EXPECT_EQ(s1.pending_deltas(), 0);
}

/// What PinnedPublishEpochs pins of one fault-free run, as FNV values.
struct PublishPins {
  std::uint64_t epochs = 0;     ///< every epoch's ingest_graph_hash
  std::uint64_t time_bits = 0;  ///< grid.time() at the end
  std::uint64_t stats = 0;      ///< the IngestStats fields
  std::uint64_t registry = 0;   ///< the registry JSON
  std::uint64_t events = 0;     ///< the event-log lines
};

/// 13 apply + publish rounds on an ER graph over a side x side grid. The
/// first round dirties a handful of blocks, the second deletes present
/// edges, overwrites one and deletes an absent one; the rest are seeded
/// mixes, and one round right after the only compaction is small again,
/// so clean blocks are published both before and after a compaction.
PublishPins run_publish_pins(int side) {
  constexpr Index kEr = 2048;
  constexpr double kDegree = 6.0;
  constexpr std::uint64_t kSeed = 5;
  auto grid = LocaleGrid::square(side * side, 4);
  const auto a = erdos_renyi_dist<double>(grid, kEr, kDegree, kSeed);
  GraphStore store;
  const auto h = store.load(std::make_shared<DistCsr<double>>(a));
  ServiceEventLog elog;
  IngestOptions opt;
  opt.compact_every = 250;
  IngestStream stream(grid, store, h, a, opt, &elog);

  const auto batch = [](std::int64_t seq, std::vector<EdgeDelta> ds) {
    MutationBatch b;
    b.seq = seq;
    b.deltas = std::move(ds);
    b.stamp();
    return b;
  };
  const auto edge = [](Index r, Index c, double v, DeltaOp op) {
    EdgeDelta d;
    d.row = r;
    d.col = c;
    d.val = v;
    d.op = op;
    return d;
  };
  const auto present = [&](Index r) {
    return er_row_columns(kEr, kDegree, kSeed, r);
  };
  const auto absent = [&](Index r) {
    const auto cols = present(r);
    Index c = 0;
    while (std::binary_search(cols.begin(), cols.end(), c)) ++c;
    return c;
  };

  std::vector<MutationBatch> rounds;
  rounds.push_back(batch(1, {edge(3, 5, 0.5, DeltaOp::kInsert),
                             edge(4, 1900, 0.25, DeltaOp::kInsert),
                             edge(1500, 7, 0.75, DeltaOp::kInsert)}));
  std::vector<EdgeDelta> second;
  for (Index r : {Index{10}, Index{700}, Index{1333}, Index{2047}}) {
    const auto cols = present(r);
    EXPECT_GE(cols.size(), 2u) << "row " << r;
    second.push_back(edge(r, cols.front(), 0.0, DeltaOp::kDelete));
    second.push_back(edge(r, cols.back(), 0.125, DeltaOp::kInsert));
  }
  second.push_back(edge(99, absent(99), 0.0, DeltaOp::kDelete));
  rounds.push_back(batch(2, std::move(second)));
  MutationRng rng{71};
  IngestMix mix;
  mix.insert = 3;
  mix.erase = 2;
  for (std::int64_t s = 3; s <= 13; ++s) {
    if (s == 8) {
      rounds.push_back(batch(s, {edge(2000, 2001, 1.0, DeltaOp::kInsert)}));
    } else {
      rounds.push_back(make_mutation_batch(rng, kEr, 48, mix, s));
    }
  }

  PublishPins out;
  out.epochs = kPgbFnvBasis;
  for (const MutationBatch& b : rounds) {
    stream.apply(b);
    stream.publish();
    const std::uint64_t g = ingest_graph_hash(*store.snapshot(h).graph);
    out.epochs = fnv1a_extend(out.epochs, &g, sizeof(g));
  }
  const IngestStats& st = stream.stats();
  EXPECT_EQ(st.publishes, 13);
  EXPECT_EQ(st.compactions, 1);
  const double t = grid.time();
  std::memcpy(&out.time_bits, &t, sizeof(t));
  const std::int64_t fields[] = {
      st.batches,    st.deltas,         st.inserts,        st.deletes,
      st.publishes,  st.compactions,    st.replays,        st.pages_replayed,
      st.pages_discarded, st.log_bytes, st.base_bytes};
  out.stats = fnv1a(fields, sizeof(fields));
  const std::string reg = grid.metrics().json();
  out.registry = fnv1a(reg.data(), reg.size());
  out.events = kPgbFnvBasis;
  for (const std::string& line : elog.lines()) {
    out.events = fnv1a_extend(out.events, line.data(), line.size());
  }
  return out;
}

// Fault-free publishes, bit for bit: no other test runs publish outside
// a fault plan's serial loop with its values pinned. The literals were
// captured before the publish stages ran on the host pool, and must hold
// at any thread count; a mismatch prints the new value.
TEST(IngestStreamTest, PinnedPublishEpochs) {
  struct Pin {
    int side;
    PublishPins want;
  };
  const Pin pins[] = {
      {4,
       {0x7db528e62116e713ull, 0x3f99eeea0438b9c4ull, 0xe9a3dfe22b0f38c2ull,
        0xe7a5d4fd86ff09b5ull, 0xfe7bb0356adc47f4ull}},
      {8,
       {0x5c0f90aba1ec47cdull, 0x3fb7249ac41daab7ull, 0xf56a0a9d3aafd20full,
        0x05504e905eedf418ull, 0x9990325e15c5aeccull}},
  };
  for (const Pin& p : pins) {
    const PublishPins got = run_publish_pins(p.side);
    SCOPED_TRACE(std::to_string(p.side) + "x" + std::to_string(p.side));
    EXPECT_EQ(got.epochs, p.want.epochs)
        << "epochs 0x" << std::hex << got.epochs;
    EXPECT_EQ(got.time_bits, p.want.time_bits)
        << "time 0x" << std::hex << got.time_bits;
    EXPECT_EQ(got.stats, p.want.stats) << "stats 0x" << std::hex << got.stats;
    EXPECT_EQ(got.registry, p.want.registry)
        << "registry 0x" << std::hex << got.registry;
    EXPECT_EQ(got.events, p.want.events)
        << "events 0x" << std::hex << got.events;
  }
}

// ---------------------------------------------------------------------
// Kill-mid-stream recovery
// ---------------------------------------------------------------------

struct StreamRun {
  std::vector<std::uint64_t> epoch_hashes;
  std::uint64_t final_hash = 0;
  double sim_time = 0.0;
  IngestStats stats;
  std::int64_t replay_events = 0;
};

/// One scripted ingest run: `batches` seeded batches applied and
/// published against the ring graph, optionally under a fault plan.
StreamRun run_stream(FaultPlan* plan, int batches,
                     std::int64_t compact_every = 1 << 30) {
  auto grid = LocaleGrid::square(8, 2);
  const Coo<double> coo = base_coo(kN);
  auto a = DistCsr<double>::from_coo(grid, coo);
  GraphStore store;
  const auto h = store.load(std::make_shared<DistCsr<double>>(a));
  if (plan != nullptr) grid.set_fault_plan(plan);
  ServiceEventLog elog;
  IngestOptions opt;
  opt.compact_every = compact_every;
  IngestStream stream(grid, store, h, a, opt, &elog);
  MutationRng rng{43};
  IngestMix mix;
  mix.erase = 1;
  StreamRun out;
  for (std::int64_t s = 1; s <= batches; ++s) {
    stream.apply(make_mutation_batch(rng, kN, 64, mix, s));
    stream.publish();
    out.epoch_hashes.push_back(
        ingest_graph_hash(*store.snapshot(h).graph));
  }
  out.final_hash = out.epoch_hashes.back();
  out.sim_time = grid.time();
  out.stats = stream.stats();
  out.replay_events = elog.count("ingest.replay");
  return out;
}

TEST(IngestRecoveryTest, KillMidStreamRecoversBitIdentical) {
  // Fault-free reference fixes both the hashes and the kill timing.
  const StreamRun base = run_stream(nullptr, 8);
  ASSERT_GT(base.sim_time, 0.0);
  EXPECT_EQ(base.stats.replays, 0);

  for (const double frac : {0.3, 0.6, 0.9}) {
    FaultPlan plan(
        FaultSpec::parse("kill:locale=2,at=" +
                         std::to_string(base.sim_time * frac)),
        5);
    const StreamRun killed = run_stream(&plan, 8);
    // Bit-identity: every published epoch, not just the last one.
    EXPECT_EQ(killed.epoch_hashes, base.epoch_hashes) << "frac " << frac;
    EXPECT_EQ(killed.final_hash, base.final_hash);
    EXPECT_GE(killed.stats.replays, 1) << "frac " << frac;
    EXPECT_EQ(killed.replay_events, killed.stats.replays);
    // Recovery costs only modeled time, never content.
    EXPECT_GT(killed.sim_time, base.sim_time);
  }
}

TEST(IngestRecoveryTest, KillDuringCompactionRecoversBitIdentical) {
  const StreamRun base = run_stream(nullptr, 6, /*compact_every=*/1);
  EXPECT_EQ(base.stats.compactions, 6);
  FaultPlan plan(
      FaultSpec::parse("kill:locale=5,at=" +
                       std::to_string(base.sim_time * 0.5)),
      5);
  const StreamRun killed = run_stream(&plan, 6, /*compact_every=*/1);
  EXPECT_EQ(killed.epoch_hashes, base.epoch_hashes);
  EXPECT_GE(killed.stats.replays, 1);
}

TEST(IngestRecoveryTest, KillInsideAStageLeavesTheDriverInstant) {
  auto grid = LocaleGrid::square(8, 2);
  auto a = DistCsr<double>::from_coo(grid, base_coo(kN));
  GraphStore store;
  const auto h = store.load(std::make_shared<DistCsr<double>>(a));
  obs::TraceSession session;
  grid.set_trace_session(&session);
  IngestStream stream(grid, store, h, a);
  FaultPlan plan(FaultSpec::parse("kill:locale=3,at=0"), 5);
  grid.set_fault_plan(&plan);
  MutationRng rng{43};
  IngestMix mix;
  mix.erase = 1;
  stream.apply(make_mutation_batch(rng, kN, 64, mix, 1));
  grid.set_fault_plan(nullptr);
  EXPECT_EQ(stream.stats().replays, 1);
  int found = 0;
  for (const auto& in : session.instants()) {
    if (in.name != "recovery.rebuild_started") continue;
    ++found;
    EXPECT_EQ(in.track, 3);  // the dead host
    ASSERT_EQ(in.args.size(), 3u);
    EXPECT_EQ(in.args[0].key, "logical");
    EXPECT_EQ(in.args[0].value, "3");
    EXPECT_EQ(in.args[1].value, "degraded");
    EXPECT_EQ(in.args[2].value, "-1");  // a stage keeps no snapshot
  }
  EXPECT_EQ(found, 1);
  grid.set_trace_session(nullptr);
}

TEST(IngestRecoveryTest, FailureBudgetIsFourKillsPerStage) {
  // Kills at t=0 on locales 0..k-1 of 16: distinct locales, buddies
  // (8..) alive. Four are survived inside one apply; a fifth rethrows.
  const auto kills = [](int k) {
    std::string spec;
    for (int l = 0; l < k; ++l) {
      spec += l > 0 ? ";kill:locale=" : "kill:locale=";
      spec += std::to_string(l) + ",at=0";
    }
    return FaultSpec::parse(spec);
  };
  for (const int k : {4, 5}) {
    auto grid = LocaleGrid::square(16, 2);
    auto a = DistCsr<double>::from_coo(grid, base_coo(kN));
    GraphStore store;
    const auto h = store.load(std::make_shared<DistCsr<double>>(a));
    IngestStream stream(grid, store, h, a);
    FaultPlan plan(kills(k), 5);
    RetryPolicy outer;
    outer.max_attempts = 7;
    grid.set_fault_plan(&plan);
    grid.set_retry_policy(outer);
    MutationRng rng{43};
    const MutationBatch b = make_mutation_batch(rng, kN, 64, IngestMix{}, 1);
    if (k == 4) {
      stream.apply(b);
      EXPECT_EQ(stream.stats().replays, 4);
      EXPECT_EQ(stream.acked_seq(), 1);
    } else {
      EXPECT_THROW(stream.apply(b), LocaleFailed);
      EXPECT_EQ(stream.acked_seq(), 0);
    }
    // The stage's guard put back the plan and retry policy attached
    // before it; the remaps stay (ingest keeps membership).
    EXPECT_EQ(grid.fault_plan(), &plan);
    EXPECT_EQ(grid.retry_policy().max_attempts, 7);
    EXPECT_TRUE(grid.membership().remapped());
    grid.set_fault_plan(nullptr);
  }
}

TEST(IngestRecoveryTest, RecoveryReadsReplicasNotThePrimary) {
  auto grid = LocaleGrid::square(4, 2);
  const Coo<double> coo = base_coo(kN);
  auto a = DistCsr<double>::from_coo(grid, coo);
  GraphStore store;
  const auto h = store.load(std::make_shared<DistCsr<double>>(a));
  IngestStream stream(grid, store, h, a);
  MutationRng rng{47};
  for (std::int64_t s = 1; s <= 3; ++s) {
    stream.apply(make_mutation_batch(rng, kN, 32, IngestMix{}, s));
  }
  const std::uint64_t want = [&] {
    // What a fault-free twin publishes from the same state.
    auto grid2 = LocaleGrid::square(4, 2);
    auto a2 = DistCsr<double>::from_coo(grid2, coo);
    GraphStore st2;
    const auto h2 = st2.load(std::make_shared<DistCsr<double>>(a2));
    IngestStream s2(grid2, st2, h2, a2);
    MutationRng rng2{47};
    for (std::int64_t s = 1; s <= 3; ++s) {
      s2.apply(make_mutation_batch(rng2, kN, 32, IngestMix{}, s));
    }
    s2.publish();
    return ingest_graph_hash(*st2.snapshot(h2).graph);
  }();

  // Trash locale 1's primary state — base block and log — the way a
  // kill loses it, then recover from the buddy's copies.
  stream.base_block_for_test(1) = Csr<double>();
  const ReplayResult before = replay_log_bytes(
      stream.mirror_bytes_for_test(1).data(),
      stream.mirror_bytes_for_test(1).size(), stream.acked_seq());
  ASSERT_EQ(before.pages.size(), 3u);
  stream.recover_after_rebuild(1);
  EXPECT_EQ(stream.stats().pages_replayed, 3);
  stream.publish();
  EXPECT_EQ(ingest_graph_hash(*store.snapshot(h).graph), want);
}

TEST(IngestRecoveryTest, GarbageMirrorTailDiscardedOnReplay) {
  auto grid = LocaleGrid::square(4, 2);
  const Coo<double> coo = base_coo(kN);
  auto a = DistCsr<double>::from_coo(grid, coo);
  GraphStore store;
  const auto h = store.load(std::make_shared<DistCsr<double>>(a));
  IngestStream stream(grid, store, h, a);
  MutationRng rng{53};
  for (std::int64_t s = 1; s <= 2; ++s) {
    stream.apply(make_mutation_batch(rng, kN, 16, IngestMix{}, s));
  }
  // A torn partial frame lands after the durable pages (the shape a
  // kill mid-append leaves behind). Recovery keeps exactly the durable
  // prefix and drops the garbage — and says so in the stats.
  auto& mirror = stream.mirror_bytes_for_test(2);
  const std::size_t durable = mirror.size();
  mirror.insert(mirror.end(), {0x13, 0x37, 0xde, 0xad, 0xbe, 0xef});
  stream.recover_after_rebuild(2);
  EXPECT_EQ(stream.mirror_bytes_for_test(2).size(), durable);
  EXPECT_EQ(stream.log(2).last_seq(), stream.acked_seq());
  EXPECT_EQ(stream.stats().replays, 1);
}

// ---------------------------------------------------------------------
// Incremental recompute
// ---------------------------------------------------------------------

TEST(IncrementalCcTest, InsertStreamMatchesFullRecompute) {
  auto grid = LocaleGrid::square(4, 2);
  // Sparse symmetric base: disjoint 2-cliques, so inserts actually
  // merge components.
  Coo<double> coo(kN, kN);
  for (Index v = 0; v + 1 < kN; v += 2) {
    coo.add(v, v + 1, 1.0);
    coo.add(v + 1, v, 1.0);
  }
  auto a = DistCsr<double>::from_coo(grid, coo);
  const CcResult full = connected_components(a);
  IncrementalCc inc(full);

  GraphStore store;
  const auto h = store.load(std::make_shared<DistCsr<double>>(a));
  IngestStream stream(grid, store, h, a);
  MutationRng rng{59};
  EdgeModel model = model_of(coo);
  for (std::int64_t s = 1; s <= 4; ++s) {
    const MutationBatch b =
        make_mutation_batch(rng, kN, 20, IngestMix{}, s, /*symmetric=*/true);
    stream.apply(b);
    model_apply(model, b);
    std::vector<std::pair<Index, Index>> inserted;
    for (const EdgeDelta& d : b.deltas) inserted.push_back({d.row, d.col});
    EXPECT_TRUE(cc_incremental_apply(grid, &inc, inserted, 0));
  }
  stream.publish();
  const CcResult refull = connected_components(*store.snapshot(h).graph);
  CcResult maintained = inc.labels();
  EXPECT_EQ(maintained.label, refull.label);
  EXPECT_EQ(maintained.num_components, refull.num_components);
}

TEST(IncrementalCcTest, DeleteInvalidatesAndFallsBack) {
  auto grid = LocaleGrid::square(4, 2);
  IncrementalCc inc(CcResult{{0, 0, 2, 2}, 0, 2});
  EXPECT_TRUE(cc_incremental_apply(grid, &inc, {{1, 2}}, 0));
  EXPECT_FALSE(cc_incremental_apply(grid, &inc, {}, 1));
  EXPECT_FALSE(inc.valid());
}

TEST(WarmPagerankTest, WarmRestartConvergesFasterToSameRanks) {
  auto grid = LocaleGrid::square(4, 2);
  const Coo<double> coo = base_coo(kN);
  auto a = DistCsr<double>::from_coo(grid, coo);
  const PagerankResult cold_base = pagerank(a, 0.85, 1e-10, 200);

  // A small mutation, then compare a cold solve on the new graph with a
  // warm restart from the previous epoch's vector.
  GraphStore store;
  const auto h = store.load(std::make_shared<DistCsr<double>>(a));
  IngestStream stream(grid, store, h, a);
  MutationRng rng{61};
  stream.apply(
      make_mutation_batch(rng, kN, 8, IngestMix{}, 1, /*symmetric=*/true));
  stream.publish();
  const auto snap = store.snapshot(h);

  const PagerankResult cold = pagerank(*snap.graph, 0.85, 1e-10, 200);
  const PagerankResult warm =
      pagerank_warm(*snap.graph, cold_base.rank, 0.85, 1e-10, 200);
  EXPECT_LT(warm.iterations, cold.iterations);
  ASSERT_EQ(warm.rank.size(), cold.rank.size());
  for (std::size_t i = 0; i < cold.rank.size(); ++i) {
    EXPECT_NEAR(warm.rank[i], cold.rank[i], 1e-7) << "vertex " << i;
  }
}

// ---------------------------------------------------------------------
// Event log records
// ---------------------------------------------------------------------

TEST(IngestEventLogTest, BatchAndPublishRecordsEmitted) {
  auto grid = LocaleGrid::square(4, 2);
  const Coo<double> coo = base_coo(kN);
  auto a = DistCsr<double>::from_coo(grid, coo);
  GraphStore store;
  const auto h = store.load(std::make_shared<DistCsr<double>>(a));
  ServiceEventLog elog;
  IngestStream stream(grid, store, h, a, IngestOptions{}, &elog);
  MutationRng rng{67};
  stream.apply(make_mutation_batch(rng, kN, 16, IngestMix{}, 1));
  stream.publish();
  stream.apply(make_mutation_batch(rng, kN, 16, IngestMix{}, 2));
  stream.publish();
  EXPECT_EQ(elog.count("ingest.batch"), 2);
  EXPECT_EQ(elog.count("ingest.publish"), 2);
  EXPECT_EQ(elog.count("ingest.replay"), 0);
  // Spot-check the batch record carries the sequence number.
  bool saw_seq = false;
  for (const auto& line : elog.lines()) {
    saw_seq |= line.find("\"type\":\"ingest.batch\"") != std::string::npos &&
               line.find("\"seq\":1") != std::string::npos;
  }
  EXPECT_TRUE(saw_seq);
}

}  // namespace
}  // namespace pgb
