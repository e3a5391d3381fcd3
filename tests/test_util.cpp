// Unit tests for src/util: RNG determinism, sorting kernels, bit vectors,
// the FNV-1a step, the CLI parser and the table printer.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string_view>
#include <vector>

#include "util/bitvector.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"
#include "util/sorting.hpp"
#include "util/table.hpp"

namespace pgb {
namespace {

TEST(Rng, SplitMixIsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, XoshiroStreamsDifferByShard) {
  Xoshiro256 a(7, 0), b(7, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

// advance(n) must leave the stream where n calls to next() leave it, for
// offsets around word boundaries of n and one past a large power of two.
TEST(Xoshiro256, AdvanceMatchesRepeatedNext) {
  for (std::uint64_t n : {0ull, 1ull, 63ull, 64ull, (1ull << 20) + 7}) {
    for (Xoshiro256 seeded : {Xoshiro256(1), Xoshiro256(42, 7)}) {
      Xoshiro256 stepped = seeded, jumped = seeded;
      for (std::uint64_t i = 0; i < n; ++i) stepped.next();
      jumped.advance(n);
      for (int i = 0; i < 8; ++i) {
        ASSERT_EQ(jumped.next(), stepped.next()) << "n=" << n << " i=" << i;
      }
    }
  }
  // Jumps compose: 1000 then 2^40 equals 2^40 + 1000 at once.
  Xoshiro256 a(9), b(9);
  a.advance(1000);
  a.advance(1ull << 40);
  b.advance((1ull << 40) + 1000);
  EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, NextBelowStaysInRange) {
  Xoshiro256 r(123);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Xoshiro256 r(9);
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliFrequencyRoughlyMatches) {
  Xoshiro256 r(5);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.next_bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

class SortingParam : public ::testing::TestWithParam<int> {};

TEST_P(SortingParam, MergeSortMatchesStdSort) {
  const int n = GetParam();
  std::mt19937_64 g(n);
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = static_cast<std::int64_t>(g() % (3 * n + 1));
  auto ref = v;
  std::sort(ref.begin(), ref.end());
  merge_sort(v);
  EXPECT_EQ(v, ref);
}

TEST_P(SortingParam, RadixSortMatchesStdSort) {
  const int n = GetParam();
  std::mt19937_64 g(n + 1);
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = static_cast<std::int64_t>(g() % (1ull << 40));
  auto ref = v;
  std::sort(ref.begin(), ref.end());
  radix_sort(v);
  EXPECT_EQ(v, ref);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SortingParam,
                         ::testing::Values(0, 1, 2, 3, 7, 8, 100, 1000,
                                           4096, 65537));

TEST(Sorting, MergeSortHandlesAllEqual) {
  std::vector<std::int64_t> v(100, 5);
  merge_sort(v);
  EXPECT_TRUE(is_sorted_ascending(v));
}

TEST(Sorting, RadixSortHandlesZeroMax) {
  std::vector<std::int64_t> v(10, 0);
  radix_sort(v);
  EXPECT_TRUE(is_sorted_ascending(v));
}

TEST(Sorting, IsSortedDetectsDescent) {
  std::vector<std::int64_t> v{1, 2, 2, 3};
  EXPECT_TRUE(is_sorted_ascending(v));
  v.push_back(0);
  EXPECT_FALSE(is_sorted_ascending(v));
}

TEST(Sorting, SortPairsKeepsAlignment) {
  std::vector<std::int64_t> idx{5, 1, 3, 2, 4};
  std::vector<double> val{50, 10, 30, 20, 40};
  sort_pairs_by_index(idx, val);
  EXPECT_EQ(idx, (std::vector<std::int64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(val, (std::vector<double>{10, 20, 30, 40, 50}));
}

TEST(Sorting, SortPairsIsStable) {
  std::vector<std::int64_t> idx{2, 1, 2, 1};
  std::vector<int> val{0, 1, 2, 3};
  sort_pairs_by_index(idx, val);
  EXPECT_EQ(val, (std::vector<int>{1, 3, 0, 2}));
}

TEST(Sorting, SortedUnionMergesWithoutDuplicates) {
  std::vector<std::int64_t> a{1, 3, 5};
  std::vector<std::int64_t> b{2, 3, 6};
  EXPECT_EQ(sorted_union(a, b), (std::vector<std::int64_t>{1, 2, 3, 5, 6}));
}

TEST(Sorting, UnionWithEmpty) {
  std::vector<std::int64_t> a{1, 2};
  std::vector<std::int64_t> none;
  EXPECT_EQ(sorted_union(a, none), a);
  EXPECT_EQ(sorted_union(none, a), a);
}

TEST(BitVector, SetGetClear) {
  BitVector b(200);
  EXPECT_FALSE(b.get(63));
  b.set(63);
  b.set(64);
  b.set(199);
  EXPECT_TRUE(b.get(63));
  EXPECT_TRUE(b.get(64));
  EXPECT_TRUE(b.get(199));
  EXPECT_EQ(b.popcount(), 3);
  b.clear(64);
  EXPECT_FALSE(b.get(64));
  EXPECT_EQ(b.popcount(), 2);
}

TEST(BitVector, TestAndSetReportsFirstTouch) {
  BitVector b(10);
  EXPECT_TRUE(b.test_and_set(3));
  EXPECT_FALSE(b.test_and_set(3));
}

TEST(BitVector, ResetAllClearsEverything) {
  BitVector b(130);
  for (std::int64_t i = 0; i < 130; i += 7) b.set(i);
  b.reset_all();
  EXPECT_EQ(b.popcount(), 0);
}

TEST(BitVector, RejectsNegativeSize) {
  EXPECT_THROW(BitVector(-1), InvalidArgument);
  EXPECT_EQ(BitVector(0).size(), 0);
}

/// The set bits of b in ascending order, one get() at a time.
std::vector<std::int64_t> set_bits_by_get(const BitVector& b) {
  std::vector<std::int64_t> out;
  for (std::int64_t i = 0; i < b.size(); ++i) {
    if (b.get(i)) out.push_back(i);
  }
  return out;
}

std::vector<std::int64_t> set_bits_by_walk(const BitVector& b) {
  std::vector<std::int64_t> out;
  b.for_each_set([&](std::int64_t i) { out.push_back(i); });
  return out;
}

TEST(BitVector, ForEachSetWalksAscending) {
  std::mt19937_64 rng(5);
  for (std::int64_t n : {1, 63, 64, 65, 130, 2048, 12500}) {
    SCOPED_TRACE(n);
    BitVector b(n);
    EXPECT_TRUE(set_bits_by_walk(b).empty());
    // Word-boundary bits, then a random fill on top.
    for (std::int64_t i : {std::int64_t{0}, std::int64_t{63},
                           std::int64_t{64}, n - 1}) {
      if (i < n) b.set(i);
    }
    EXPECT_EQ(set_bits_by_walk(b), set_bits_by_get(b));
    for (std::int64_t k = 0; k < n / 3; ++k) {
      b.set(static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(n)));
    }
    EXPECT_EQ(set_bits_by_walk(b), set_bits_by_get(b));
    for (std::int64_t i = 0; i < n; ++i) b.set(i);
    const auto all = set_bits_by_walk(b);
    ASSERT_EQ(static_cast<std::int64_t>(all.size()), n);
    EXPECT_EQ(all, set_bits_by_get(b));
  }
}

TEST(Fnv, MatchesPublishedVectorsAndResumes) {
  // Test vectors of the FNV-1a 64-bit reference suite.
  const std::string_view a = "a", foobar = "foobar";
  EXPECT_EQ(fnv1a_extend(kFnvOffsetBasis, a.data(), a.size()),
            0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a_extend(kFnvOffsetBasis, foobar.data(), foobar.size()),
            0x85944171f73967e8ull);
  // Hashing in pieces equals hashing at once; fnv1a starts from the
  // library's basis.
  const std::uint64_t foo = fnv1a(foobar.data(), 3);
  EXPECT_EQ(fnv1a_extend(foo, foobar.data() + 3, 3),
            fnv1a(foobar.data(), foobar.size()));
  EXPECT_EQ(fnv1a(nullptr, 0), kPgbFnvBasis);
}

TEST(Cli, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--n=100", "--d", "16", "--flag"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("n", 0), 100);
  EXPECT_EQ(cli.get_int("d", 0), 16);
  EXPECT_TRUE(cli.get_bool("flag", false));
  EXPECT_EQ(cli.get_double("f", 0.25), 0.25);
  cli.finish();
}

TEST(Cli, UnknownFlagThrows) {
  const char* argv[] = {"prog", "--typo=1"};
  Cli cli(2, const_cast<char**>(argv));
  EXPECT_THROW(cli.finish(), InvalidArgument);
}

TEST(Cli, BadIntThrows) {
  const char* argv[] = {"prog", "--n=abc"};
  Cli cli(2, const_cast<char**>(argv));
  EXPECT_THROW(cli.get_int("n", 0), InvalidArgument);
}

TEST(Table, TimeFormatting) {
  EXPECT_EQ(Table::time(2.0), "2.000 s");
  EXPECT_EQ(Table::time(0.002), "2.000 ms");
  EXPECT_EQ(Table::time(2e-6), "2.000 us");
  EXPECT_EQ(Table::time(2e-9), "2.0 ns");
}

TEST(Table, RowWidthValidation) {
  Table t({"a", "b"});
  t.row({"1", "2"});
  EXPECT_THROW(t.row({"1"}), InvalidArgument);
}

TEST(ErrorMacros, RequireThrows) {
  EXPECT_THROW(PGB_REQUIRE(false, "nope"), InvalidArgument);
  EXPECT_THROW(PGB_REQUIRE_SHAPE(false, "shape"), DimensionMismatch);
  EXPECT_NO_THROW(PGB_REQUIRE(true, "ok"));
}

}  // namespace
}  // namespace pgb
