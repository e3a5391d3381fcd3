// Tests for the local sparse containers: SparseDomain, SparseVec,
// DenseVec, CSR, COO->CSR construction, and the sparse accumulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <utility>
#include <vector>

#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense_vec.hpp"
#include "sparse/spa.hpp"
#include "sparse/sparse_domain.hpp"
#include "sparse/sparse_vec.hpp"

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
  spa.accumulate(7, 1, add);
  spa.accumulate(42, 1, add);
  spa.reset();
  EXPECT_EQ(spa.nnz(), 0);
  EXPECT_FALSE(spa.has(7));
  EXPECT_FALSE(spa.has(42));
  // Reusable after reset.
  spa.accumulate(7, 5, add);
  EXPECT_EQ(spa.value(7), 5);
}

TEST(Spa, RejectsInvertedRange) {
  EXPECT_THROW(Spa<double>(20, 10), InvalidArgument);
  EXPECT_EQ(Spa<double>(10, 10).hi(), 10);
}

/// Expects the walk to yield exactly nzinds(), sorted.
template <typename T>
void expect_walk_matches_sorted_nzinds(const Spa<T>& spa) {
  std::vector<Index> sorted = spa.nzinds();
  std::sort(sorted.begin(), sorted.end());
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
      spa.accumulate(lo, 1, add);
      spa.accumulate(hi - 1, 1, add);
      for (std::uint64_t k = 0; k < range / 2; ++k) {
        spa.accumulate(lo + static_cast<Index>(rng() % range), 1, add);
      }
      expect_walk_matches_sorted_nzinds(spa);
      spa.reset();
      std::vector<Index> none;
      spa.for_each_sorted([&](Index i) { none.push_back(i); });
      EXPECT_TRUE(none.empty());
    }
  }
}

}  // namespace
}  // namespace pgb
