// Tests for the local sparse containers: SparseDomain, SparseVec,
// DenseVec, CSR, COO->CSR construction, the ingest overlay over a CSR
// block, and the sparse accumulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <ios>
#include <map>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "construction_pins.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/csr_overlay.hpp"
#include "sparse/dense_vec.hpp"
#include "sparse/spa.hpp"
#include "sparse/sparse_domain.hpp"
#include "sparse/sparse_vec.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"

namespace pgb {
namespace {

TEST(SparseDomain, FromUnsortedSortsAndDedupes) {
  auto d = SparseDomain::from_unsorted({5, 1, 3, 1, 5});
  EXPECT_EQ(d.size(), 3);
  EXPECT_EQ(d[0], 1);
  EXPECT_EQ(d[1], 3);
  EXPECT_EQ(d[2], 5);
}

TEST(SparseDomain, FindReturnsPositionOrMinusOne) {
  auto d = SparseDomain::from_sorted({2, 4, 8, 16});
  EXPECT_EQ(d.find(2), 0);
  EXPECT_EQ(d.find(16), 3);
  EXPECT_EQ(d.find(3), -1);
  EXPECT_EQ(d.find(100), -1);
  EXPECT_TRUE(d.contains(8));
  EXPECT_FALSE(d.contains(9));
}

TEST(SparseDomain, AddSortedMergesLikeChapelPlusEquals) {
  auto d = SparseDomain::from_sorted({1, 5, 9});
  std::vector<Index> more{2, 5, 10};
  d.add_sorted(more);
  EXPECT_EQ(d.size(), 5);
  EXPECT_EQ(d.indices()[1], 2);
  EXPECT_EQ(d.indices()[4], 10);
}

TEST(SparseDomain, AddIntoEmpty) {
  SparseDomain d;
  std::vector<Index> idx{3, 7};
  d.add_sorted(idx);
  EXPECT_EQ(d.size(), 2);
  d.clear();
  EXPECT_TRUE(d.empty());
}

TEST(SparseVec, FromSortedAlignsValues) {
  auto v = SparseVec<double>::from_sorted(100, {10, 20}, {1.5, 2.5});
  EXPECT_EQ(v.capacity(), 100);
  EXPECT_EQ(v.nnz(), 2);
  EXPECT_EQ(*v.find(20), 2.5);
  EXPECT_EQ(v.find(15), nullptr);
}

TEST(SparseVec, FromUnsortedSortsPairs) {
  auto v = SparseVec<int>::from_unsorted(10, {7, 2, 5}, {70, 20, 50});
  EXPECT_EQ(v.index_at(0), 2);
  EXPECT_EQ(v.value_at(0), 20);
  EXPECT_EQ(v.index_at(2), 7);
  EXPECT_EQ(v.value_at(2), 70);
}

TEST(SparseVec, LengthMismatchThrows) {
  EXPECT_THROW(SparseVec<int>::from_sorted(10, {1, 2}, {1}),
               InvalidArgument);
}

TEST(SparseVec, SetValuesValidatesSize) {
  auto v = SparseVec<int>::from_sorted(10, {1, 2}, {1, 2});
  EXPECT_THROW(v.set_values({1}), InvalidArgument);
  v.set_values({9, 8});
  EXPECT_EQ(v.value_at(0), 9);
}

TEST(DenseVec, RangeIndexing) {
  DenseVec<double> v(10, 20, 1.0);
  EXPECT_EQ(v.lo(), 10);
  EXPECT_EQ(v.hi(), 20);
  EXPECT_EQ(v.size(), 10);
  v[15] = 3.0;
  EXPECT_EQ(v[15], 3.0);
  EXPECT_EQ(v[10], 1.0);
  v.fill(0.0);
  EXPECT_EQ(v[15], 0.0);
}

TEST(Csr, FromPartsAndAccessors) {
  // 3x4: row0 {1:10, 3:30}, row1 {}, row2 {0:5}
  auto m = Csr<int>::from_parts(3, 4, {0, 2, 2, 3}, {1, 3, 0}, {10, 30, 5});
  EXPECT_EQ(m.nnz(), 3);
  EXPECT_EQ(m.row_nnz(0), 2);
  EXPECT_EQ(m.row_nnz(1), 0);
  EXPECT_EQ(m.row_start(2), 2);
  EXPECT_EQ(m.row_end(2), 3);
  EXPECT_EQ(*m.find(0, 3), 30);
  EXPECT_EQ(m.find(0, 2), nullptr);
  EXPECT_EQ(m.find(1, 0), nullptr);
  EXPECT_TRUE(m.check_invariants());
}

TEST(Csr, RowSpansMatchArrays) {
  auto m = Csr<int>::from_parts(2, 5, {0, 3, 4}, {0, 2, 4, 1}, {1, 2, 3, 4});
  auto cols = m.row_colids(0);
  ASSERT_EQ(cols.size(), 3u);
  EXPECT_EQ(cols[2], 4);
  auto vals = m.row_values(1);
  ASSERT_EQ(vals.size(), 1u);
  EXPECT_EQ(vals[0], 4);
}

TEST(Csr, FromPartsRejectsBadRowptr) {
  EXPECT_THROW(Csr<int>::from_parts(2, 2, {0, 1}, {0}, {1}),
               InvalidArgument);
  EXPECT_THROW(Csr<int>::from_parts(2, 2, {0, 1, 3}, {0, 1}, {1, 2}),
               InvalidArgument);
}

TEST(CsrDeathTest, FromPartsRejectsBrokenInvariants) {
  // Each case passes from_parts' argument checks (rowptr length and
  // end, array lengths) and must then fail the invariant check. The
  // first one's rowptr is not monotone: its row 0 claims five entries
  // of a one-entry array, so the check must test rowptr before it
  // reads colids.
  struct Case {
    const char* name;
    Index nrows, ncols;
    std::vector<Index> rowptr, colids;
  };
  const std::vector<Case> cases = {
      {"non-monotone rowptr", 2, 2, {0, 5, 1}, {0}},
      {"unsorted row", 1, 4, {0, 2}, {3, 1}},
      {"duplicate column", 1, 4, {0, 2}, {1, 1}},
      {"column >= ncols", 1, 4, {0, 1}, {4}},
      {"negative column", 1, 4, {0, 1}, {-1}},
      {"non-zero rowptr[0]", 2, 4, {1, 1, 1}, {0}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_DEATH(Csr<int>::from_parts(c.nrows, c.ncols, c.rowptr, c.colids,
                                      std::vector<int>(c.colids.size(), 1)),
                 "CSR invariants violated");
  }
}

TEST(Csr, EmptyMatrix) {
  Csr<double> m(0, 0);
  EXPECT_EQ(m.nnz(), 0);
  EXPECT_TRUE(m.check_invariants());
}

TEST(Coo, ToCsrSortsRowsAndColumns) {
  Coo<int> coo(3, 3);
  coo.add(2, 1, 21);
  coo.add(0, 2, 2);
  coo.add(0, 0, 0);
  coo.add(1, 1, 11);
  auto m = coo.to_csr();
  EXPECT_TRUE(m.check_invariants());
  EXPECT_EQ(*m.find(2, 1), 21);
  EXPECT_EQ(m.row_colids(0)[0], 0);
  EXPECT_EQ(m.row_colids(0)[1], 2);
}

TEST(Coo, DuplicatesCombined) {
  Coo<int> coo(2, 2);
  coo.add(0, 0, 1);
  coo.add(0, 0, 2);
  coo.add(0, 0, 4);
  auto last = coo.to_csr();
  EXPECT_EQ(*last.find(0, 0), 4);  // default keeps last
  auto sum = coo.to_csr([](int a, int b) { return a + b; });
  EXPECT_EQ(*sum.find(0, 0), 7);
  EXPECT_EQ(sum.nnz(), 1);
}

TEST(Coo, AdoptedTriplesAreRangeChecked) {
  Coo<int> ok(3, 4, {{2, 3, 1}, {0, 0, 2}});
  EXPECT_EQ(ok.nnz(), 2);
  EXPECT_EQ(*ok.to_csr().find(2, 3), 1);
  using Ts = std::vector<Triple<int>>;
  EXPECT_THROW(Coo<int>(3, 4, Ts{{3, 0, 1}}), InvalidArgument);
  EXPECT_THROW(Coo<int>(3, 4, Ts{{0, 4, 1}}), InvalidArgument);
  EXPECT_THROW(Coo<int>(3, 4, Ts{{-1, 0, 1}}), InvalidArgument);
  EXPECT_THROW(Coo<int>(3, 4, Ts{{0, -1, 1}}), InvalidArgument);
}

// The to_csr twin of DistCsr.FromCooPinnedBlocks: FNV-1a of the CSR
// bytes built from the same inputs with the same folds. A change to how
// to_csr sorts or folds triples must leave every literal as it is.
TEST(Coo, ToCsrPinned) {
  const auto rmat = pins::rmat_input();
  const auto dup = pins::dup_heavy_input();
  const std::uint64_t got[4] = {
      pins::csr_hash(kFnvOffsetBasis, rmat.to_csr()),
      pins::csr_hash(kFnvOffsetBasis,
                     rmat.to_csr(std::plus<std::int64_t>())),
      pins::csr_hash(kFnvOffsetBasis, dup.to_csr()),
      pins::csr_hash(kFnvOffsetBasis, dup.to_csr(pins::noncommutative)),
  };
  const std::uint64_t want[4] = {
      0xe1e5b5dccef693b3ull, 0x3a5a22928be951b3ull, 0xf35100f703332167ull,
      0x87634c719d619a7aull};
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(got[i], want[i]) << "case " << i << ": 0x" << std::hex
                               << got[i];
  }
}

TEST(Spa, AccumulateCombinesOnRevisit) {
  Spa<double> spa(10, 20);
  auto add = [](double a, double b) { return a + b; };
  spa.accumulate(12, 1.0, add);
  spa.accumulate(15, 2.0, add);
  spa.accumulate(12, 3.0, add);
  EXPECT_EQ(spa.nnz(), 2);
  EXPECT_TRUE(spa.has(12));
  EXPECT_EQ(spa.value(12), 4.0);
  EXPECT_EQ(spa.value(15), 2.0);
}

TEST(Spa, SetIfAbsentKeepsFirst) {
  Spa<int> spa(0, 5);
  EXPECT_TRUE(spa.set_if_absent(3, 30));
  EXPECT_FALSE(spa.set_if_absent(3, 99));
  EXPECT_EQ(spa.value(3), 30);
}

TEST(Spa, ResetOnlyClearsTouched) {
  Spa<int> spa(0, 100);
  auto add = [](int a, int b) { return a + b; };
  std::set<Index> touched;
  for (Index i : {7, 42, 7, 99}) {
    if (spa.accumulate(i, 1, add)) touched.insert(i);
  }
  const std::vector<Index> list(touched.begin(), touched.end());
  spa.reset(list);
  EXPECT_EQ(spa.nnz(), 0);
  for (Index i = 0; i < 100; ++i) EXPECT_FALSE(spa.has(i)) << i;
  // Reusable after reset: the next touch is a first touch again.
  EXPECT_TRUE(spa.accumulate(7, 5, add));
  EXPECT_EQ(spa.value(7), 5);
  EXPECT_EQ(spa.nnz(), 1);
}

// accumulate() reports each index's first touch exactly once, nnz()
// counts distinct indices across repeats, and values combine in push
// order (the add is not commutative, so order shows).
TEST(Spa, AccumulateReportsFirstTouch) {
  Spa<std::int64_t> spa(100, 164);
  auto add = [](std::int64_t a, std::int64_t b) {
    return (a * 31 + b) % 1000003;
  };
  std::set<Index> seen;
  std::map<Index, std::int64_t> model;
  std::mt19937_64 rng(23);
  for (int k = 0; k < 400; ++k) {
    const Index i = 100 + static_cast<Index>(rng() % 64);
    const std::int64_t v = static_cast<std::int64_t>(rng() % 1000);
    const bool fresh = seen.insert(i).second;
    EXPECT_EQ(spa.accumulate(i, v, add), fresh) << "push " << k;
    model[i] = fresh ? v : add(model[i], v);
    EXPECT_EQ(spa.nnz(), static_cast<Index>(seen.size()));
  }
  for (const auto& [i, v] : model) {
    EXPECT_TRUE(spa.has(i));
    EXPECT_EQ(spa.value(i), v) << i;
  }
}

TEST(Spa, RejectsInvertedRange) {
  EXPECT_THROW(Spa<double>(20, 10), InvalidArgument);
  EXPECT_EQ(Spa<double>(10, 10).hi(), 10);
}

/// Expects the walk to yield exactly the model's indices, in order.
template <typename T>
void expect_walk_matches(const Spa<T>& spa, const std::set<Index>& model) {
  const std::vector<Index> sorted(model.begin(), model.end());
  std::vector<Index> walked;
  spa.for_each_sorted([&](Index i) { walked.push_back(i); });
  EXPECT_EQ(walked, sorted);
}

TEST(Spa, ForEachSortedMatchesSortedNzinds) {
  std::mt19937_64 rng(9);
  auto add = [](int a, int b) { return a + b; };
  for (auto [lo, hi] : {std::pair<Index, Index>{0, 1}, {1000, 1063},
                        {4096, 6144}, {77, 12577}}) {
    SCOPED_TRACE(lo);
    Spa<int> spa(lo, hi);
    const auto range = static_cast<std::uint64_t>(hi - lo);
    for (int round = 0; round < 3; ++round) {
      // Pushes with repeats: about half the range, drawn with
      // replacement, plus both ends.
      std::set<Index> touched;
      auto push = [&](Index i) {
        spa.accumulate(i, 1, add);
        touched.insert(i);
      };
      push(lo);
      push(hi - 1);
      for (std::uint64_t k = 0; k < range / 2; ++k) {
        push(lo + static_cast<Index>(rng() % range));
      }
      EXPECT_EQ(spa.nnz(), static_cast<Index>(touched.size()));
      expect_walk_matches(spa, touched);
      spa.reset(std::vector<Index>(touched.begin(), touched.end()));
      std::vector<Index> none;
      spa.for_each_sorted([&](Index i) { none.push_back(i); });
      EXPECT_TRUE(none.empty());
    }
  }
}

// ---- CsrOverlay: pinned materialize bytes, touched and pending ----------
//
// Each case folds mutations into an overlay over an off-origin block
// (global column ids, empty first and last rows) and pins an FNV-1a
// hash of the materialized rowptr/colids/vals, the `touched` count the
// publish charges for the merge, and pending(). A change to how the
// overlay stores or merges its deltas must leave every literal as it is.

std::uint64_t csr_hash(const Csr<double>& m) {
  std::uint64_t h = kFnvOffsetBasis;
  h = fnv1a_extend(h, m.rowptr().data(), m.rowptr().size_bytes());
  h = fnv1a_extend(h, m.colids().data(), m.colids().size_bytes());
  return fnv1a_extend(h, m.values().data(), m.values().size_bytes());
}

struct OverlayPin {
  std::uint64_t hash = 0;
  std::int64_t touched = 0;
  std::int64_t pending = 0;
  bool operator==(const OverlayPin&) const = default;
};

void expect_pin(const char* name, const OverlayPin& got,
                const OverlayPin& want) {
  if (got == want) return;
  ADD_FAILURE() << name << ": materialized bytes, touched or pending moved";
  std::printf("      {0x%016llxull, %lld, %lld}  // %s\n",
              static_cast<unsigned long long>(got.hash),
              static_cast<long long>(got.touched),
              static_cast<long long>(got.pending), name);
}

/// Eight rows of a 100000-column matrix; rows 0, 3 and 7 are empty.
Csr<double> overlay_block() {
  return Csr<double>::from_parts(
      8, 100000, {0, 0, 2, 3, 3, 6, 7, 9, 9},
      {50001, 50007, 49990, 50000, 50003, 50009, 50002, 50004, 50005},
      {1.5, 2.5, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0});
}

struct OverlayMutation {
  Index row = 0;
  Index col = 0;
  double val = 0.0;
  bool insert = true;
};

OverlayPin materialize_pin(const CsrOverlay<double>& ov) {
  OverlayPin p;
  p.touched = -1;
  p.hash = csr_hash(ov.materialize(&p.touched));
  p.pending = ov.pending();
  return p;
}

TEST(CsrOverlay, PinnedMutationTable) {
  const Csr<double> base = overlay_block();
  struct Case {
    const char* name;
    std::vector<OverlayMutation> muts;
    OverlayPin want;
  };
  const std::vector<Case> cases = {
      {"clean", {}, {0xaa71f3737cea79d9ull, 0, 0}},
      {"insert new", {{7, 50010, 0.25, true}, {4, 50001, 0.5, true}},
       {0xe7f4630596883109ull, 5, 2}},
      {"overwrite base", {{4, 50003, 9.5, true}},
       {0xd4b6d15080516636ull, 4, 1}},
      {"delete base", {{1, 50001, 0.0, false}},
       {0xf1bbc0ccdc1956b5ull, 3, 1}},
      {"delete absent", {{0, 50000, 0.0, false}, {2, 50000, 0.0, false}},
       {0xaa71f3737cea79d9ull, 3, 2}},
      {"insert then delete", {{5, 50008, 1.25, true}, {5, 50008, 0.0, false}},
       {0xaa71f3737cea79d9ull, 2, 1}},
      {"delete then insert", {{6, 50004, 0.0, false}, {6, 50004, 2.75, true}},
       {0xc64bad0a18d85e2full, 3, 1}},
  };
  for (const Case& c : cases) {
    CsrOverlay<double> ov(&base);
    for (const OverlayMutation& m : c.muts) {
      ov.apply(m.row, m.col, m.val, m.insert);
    }
    expect_pin(c.name, materialize_pin(ov), c.want);
  }
}

TEST(CsrOverlay, RebaseDropsEveryPendingDelta) {
  const Csr<double> base = overlay_block();
  const Csr<double> next = Csr<double>::from_parts(
      8, 100000, {0, 1, 1, 1, 1, 1, 1, 1, 2}, {50000, 99999}, {0.5, 0.75});
  CsrOverlay<double> ov(&base);
  ov.apply(0, 50000, 1.0, true);
  ov.apply(4, 50003, 0.0, false);
  ov.apply(7, 50006, 2.0, true);
  ov.rebase(&next);
  const OverlayPin got = materialize_pin(ov);
  EXPECT_EQ(got.hash, csr_hash(next));
  expect_pin("rebase", got, {0xb2e8ef9ac0c6449full, 0, 0});
  ov.apply(7, 50006, 2.0, true);  // the new base reads through
  expect_pin("rebase then insert", materialize_pin(ov),
             {0xe0538c74f442d4c9ull, 2, 1});
}

TEST(CsrOverlay, SeededRunMatchesMapReference) {
  // 10k mutations (3 inserts to 1 delete) over a 1024-row block whose
  // columns sit in a 16-wide window of a 1M-wide matrix, so mutations
  // hit base entries and each other. Every 250 mutations the overlay
  // materializes and must equal a std::map model; every 2000 the result
  // becomes the new base, as ingest compaction does.
  const Index nr = 1024, nc = 1 << 20, lo = 700000, width = 16;
  Xoshiro256 rng(2024);
  std::map<std::pair<Index, Index>, double> ref;
  const auto quantized = [&] {
    return static_cast<double>(1 + rng.next_below(1000)) / 1000.0;
  };
  for (Index r = 1; r + 1 < nr; ++r) {
    const auto k = rng.next_below(4);
    for (std::uint64_t i = 0; i < k; ++i) {
      ref[{r, lo + static_cast<Index>(rng.next_below(width))}] = quantized();
    }
  }
  const auto reference_csr = [&] {
    std::vector<Index> rowptr(static_cast<std::size_t>(nr) + 1, 0);
    std::vector<Index> colids;
    std::vector<double> vals;
    for (const auto& [rc, v] : ref) {
      ++rowptr[static_cast<std::size_t>(rc.first) + 1];
      colids.push_back(rc.second);
      vals.push_back(v);
    }
    for (std::size_t r = 0; r < static_cast<std::size_t>(nr); ++r) {
      rowptr[r + 1] += rowptr[r];
    }
    return Csr<double>::from_parts(nr, nc, std::move(rowptr),
                                   std::move(colids), std::move(vals));
  };
  Csr<double> base = reference_csr();
  CsrOverlay<double> ov(&base);
  OverlayPin run{kFnvOffsetBasis, 0, 0};
  for (int i = 1; i <= 10000; ++i) {
    const Index r = static_cast<Index>(rng.next_below(nr));
    const Index c = lo + static_cast<Index>(rng.next_below(width));
    const bool insert = rng.next_below(4) != 0;
    const double v = quantized();
    ov.apply(r, c, v, insert);
    if (insert) {
      ref[{r, c}] = v;
    } else {
      ref.erase({r, c});
    }
    if (i % 250 != 0) continue;
    std::int64_t touched = -1;
    Csr<double> m = ov.materialize(&touched);
    const Csr<double> want = reference_csr();
    ASSERT_TRUE(std::ranges::equal(m.rowptr(), want.rowptr())) << i;
    ASSERT_TRUE(std::ranges::equal(m.colids(), want.colids())) << i;
    ASSERT_TRUE(std::ranges::equal(m.values(), want.values())) << i;
    const std::int64_t pending = ov.pending();
    run.hash = fnv1a_extend(run.hash, &touched, sizeof(touched));
    run.hash = fnv1a_extend(run.hash, &pending, sizeof(pending));
    run.hash = fnv1a_extend(run.hash, m.colids().data(),
                            m.colids().size_bytes());
    run.touched += touched;
    run.pending += pending;
    if (i % 2000 == 0) {
      base = std::move(m);
      ov.rebase(&base);
    }
  }
  expect_pin("seeded run", run, {0x7aa38bd493f37a6cull, 133514, 43032});
}

}  // namespace
}  // namespace pgb
