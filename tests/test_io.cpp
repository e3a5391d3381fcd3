// Tests for Matrix Market I/O: parsing of the supported header
// variants, symmetric expansion, pattern matrices, round trips, and
// error handling on malformed input.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "io/matrix_market.hpp"
#include "util/rng.hpp"

namespace pgb {
namespace {

TEST(MatrixMarket, ParsesGeneralReal) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "\n"
      "3 4 3\n"
      "1 1 1.5\n"
      "2 3 -2\n"
      "3 4 0.25\n");
  MatrixMarketInfo info;
  auto m = read_matrix_market(in, &info).to_csr();
  EXPECT_EQ(info.nrows, 3);
  EXPECT_EQ(info.ncols, 4);
  EXPECT_EQ(info.entries, 3);
  EXPECT_FALSE(info.symmetric);
  EXPECT_EQ(m.nnz(), 3);
  EXPECT_DOUBLE_EQ(*m.find(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(*m.find(1, 2), -2.0);
  EXPECT_DOUBLE_EQ(*m.find(2, 3), 0.25);
}

TEST(MatrixMarket, SymmetricMirrorsOffDiagonal) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 3\n"
      "2 1 5\n"
      "3 1 7\n"
      "2 2 9\n");
  auto m = read_matrix_market(in).to_csr();
  EXPECT_EQ(m.nnz(), 5);  // two mirrored + diagonal kept once
  EXPECT_DOUBLE_EQ(*m.find(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(*m.find(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(*m.find(0, 2), 7.0);
  EXPECT_DOUBLE_EQ(*m.find(1, 1), 9.0);
}

TEST(MatrixMarket, PatternGetsUnitValues) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 2\n"
      "1 2\n"
      "2 1\n");
  MatrixMarketInfo info;
  auto m = read_matrix_market(in, &info).to_csr();
  EXPECT_TRUE(info.pattern);
  EXPECT_DOUBLE_EQ(*m.find(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(*m.find(1, 0), 1.0);
}

TEST(MatrixMarket, IntegerField) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate integer general\n"
      "2 2 1\n"
      "2 2 42\n");
  auto m = read_matrix_market(in).to_csr();
  EXPECT_DOUBLE_EQ(*m.find(1, 1), 42.0);
}

TEST(MatrixMarket, RejectsMalformedInput) {
  auto expect_throw = [](const std::string& text) {
    std::istringstream in(text);
    EXPECT_THROW(read_matrix_market(in), Error) << text;
  };
  expect_throw("");
  expect_throw("not a banner\n1 1 0\n");
  expect_throw("%%MatrixMarket matrix array real general\n2 2 4\n");
  expect_throw("%%MatrixMarket matrix coordinate complex general\n1 1 1\n");
  expect_throw("%%MatrixMarket matrix coordinate real general\n");
  expect_throw(
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n");
  expect_throw(
      "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n");
}

TEST(MatrixMarket, FileRoundTrip) {
  Coo<double> coo(5, 7);
  coo.add(0, 6, 1.25);
  coo.add(4, 0, -3.5);
  coo.add(2, 2, 9.0);
  auto m = coo.to_csr();

  const std::string path = "/tmp/pgb_mm_roundtrip.mtx";
  write_matrix_market(path, m);
  auto back = read_matrix_market_csr(path);
  std::remove(path.c_str());

  ASSERT_EQ(back.nnz(), m.nnz());
  EXPECT_EQ(back.nrows(), 5);
  EXPECT_EQ(back.ncols(), 7);
  EXPECT_DOUBLE_EQ(*back.find(0, 6), 1.25);
  EXPECT_DOUBLE_EQ(*back.find(4, 0), -3.5);
  EXPECT_DOUBLE_EQ(*back.find(2, 2), 9.0);
}

TEST(MatrixMarket, DistributedReadMatchesLocal) {
  const std::string path = "/tmp/pgb_mm_dist.mtx";
  {
    std::ofstream out(path);
    out << "%%MatrixMarket matrix coordinate real general\n"
        << "10 10 4\n"
        << "1 1 1\n10 10 2\n1 10 3\n10 1 4\n";
  }
  auto grid = LocaleGrid::square(4, 1);
  auto dist = read_matrix_market_dist(grid, path);
  auto local = read_matrix_market_csr(path);
  std::remove(path.c_str());
  EXPECT_EQ(dist.nnz(), local.nnz());
  EXPECT_TRUE(dist.check_invariants());
  // Corners land on the four different blocks.
  EXPECT_EQ(dist.block(0).csr.nnz(), 1);
  EXPECT_EQ(dist.block(1).csr.nnz(), 1);
  EXPECT_EQ(dist.block(2).csr.nnz(), 1);
  EXPECT_EQ(dist.block(3).csr.nnz(), 1);
}

// A size line only hints at the length of the entry list: a short file
// that claims a trillion entries, or a symmetric one whose mirrored count
// overflows, is an InvalidArgument, not an allocation failure.
TEST(MatrixMarket, SizeLineDoesNotSizeTheAllocation) {
  std::istringstream huge(
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 1000000000000\n"
      "1 1 1\n");
  EXPECT_THROW(read_matrix_market(huge), InvalidArgument);
  std::istringstream overflow(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 4611686018427387904\n"
      "1 1 1\n");
  EXPECT_THROW(read_matrix_market(overflow), InvalidArgument);
}

// Seeded byte mutations of a general, a symmetric and a pattern file.
// Every mutant either throws pgb::Error or reads into a COO whose
// from_coo blocks, on 1x1, 2x2 and 2x8 grids, hold exactly the rows of
// its to_csr, bit for bit: no crash and no other exception.
TEST(MatrixMarket, MutatedFilesParseOrThrow) {
  const std::vector<std::string> seeds = {
      "%%MatrixMarket matrix coordinate real general\n"
      "% duplicates fold into one entry\n"
      "6 5 8\n"
      "1 1 1.5\n6 5 -2\n3 2 0.25\n3 2 4\n1 5 7e-3\n4 1 8\n2 3 -1\n"
      "6 5 3\n",
      "%%MatrixMarket matrix coordinate integer symmetric\n"
      "5 5 6\n"
      "2 1 5\n3 1 7\n2 2 9\n5 4 -6\n5 5 1\n4 2 3\n",
      "%%MatrixMarket matrix coordinate pattern general\n"
      "4 7 5\n"
      "1 2\n4 7\n2 1\n3 6\n1 2\n",
  };
  std::vector<LocaleGrid> grids;
  grids.push_back(LocaleGrid(GridConfig{.rows = 1, .cols = 1}));
  grids.push_back(LocaleGrid(GridConfig{.rows = 2, .cols = 2}));
  grids.push_back(LocaleGrid(GridConfig{.rows = 2, .cols = 8}));
  const auto same_bits = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof x) == 0;
  };
  const std::string alphabet = "0123456789 \n%-+.eE";
  Xoshiro256 rng(2027);
  int parsed = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    std::string m = seeds[rng.next() % seeds.size()];
    const int edits = 1 + static_cast<int>(rng.next() % 3);
    for (int e = 0; e < edits && !m.empty(); ++e) {
      const std::size_t at = rng.next() % m.size();
      const char c = rng.next() % 4 == 0
                         ? static_cast<char>(rng.next() % 256)
                         : alphabet[rng.next() % alphabet.size()];
      switch (rng.next() % 3) {
        case 0: m[at] = c; break;
        case 1: m.insert(m.begin() + static_cast<std::ptrdiff_t>(at), c); break;
        default: m.erase(at, 1); break;
      }
    }
    std::istringstream in(m);
    Coo<double> coo(0, 0);
    try {
      coo = read_matrix_market(in);
    } catch (const Error&) {
      continue;
    }
    ++parsed;
    const Csr<double> whole = coo.to_csr();
    ASSERT_TRUE(whole.check_invariants()) << m;
    for (auto& grid : grids) {
      const auto dist = DistCsr<double>::from_coo(grid, coo);
      ASSERT_TRUE(dist.check_invariants()) << m;
      Index held = 0;
      for (int l = 0; l < grid.num_locales(); ++l) {
        const auto& b = dist.block(l);
        for (Index lr = 0; lr < b.rhi - b.rlo; ++lr) {
          auto cols = whole.row_colids(b.rlo + lr);
          auto vals = whole.row_values(b.rlo + lr);
          std::vector<Index> want_cols;
          std::vector<double> want_vals;
          for (std::size_t k = 0; k < cols.size(); ++k) {
            if (cols[k] < b.clo || cols[k] >= b.chi) continue;
            want_cols.push_back(cols[k]);
            want_vals.push_back(vals[k]);
          }
          auto got_cols = b.csr.row_colids(lr);
          auto got_vals = b.csr.row_values(lr);
          ASSERT_EQ(got_cols.size(), want_cols.size()) << m;
          for (std::size_t k = 0; k < want_cols.size(); ++k) {
            ASSERT_EQ(got_cols[k], want_cols[k]) << m;
            ASSERT_TRUE(same_bits(got_vals[k], want_vals[k])) << m;
          }
          held += static_cast<Index>(got_cols.size());
        }
      }
      ASSERT_EQ(held, whole.nnz()) << m;
    }
  }
  EXPECT_GT(parsed, 0);
}

TEST(MatrixMarket, MissingFileThrows) {
  EXPECT_THROW(read_matrix_market_csr("/nonexistent/nope.mtx"), Error);
}

}  // namespace
}  // namespace pgb
