#include "io/matrix_market.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/error.hpp"

namespace pgb {

namespace {

constexpr Index kReserveCap = Index{1} << 16;

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

/// Reads the next non-comment, non-blank line; returns false at EOF.
bool next_data_line(std::istream& in, std::string& line) {
  while (std::getline(in, line)) {
    std::size_t i = 0;
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    if (i == line.size() || line[i] == '%') continue;
    return true;
  }
  return false;
}

}  // namespace

Coo<double> read_matrix_market(std::istream& in, MatrixMarketInfo* info) {
  std::string line;
  PGB_REQUIRE(std::getline(in, line), "matrix market: empty input");
  std::istringstream header(lower(line));
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  PGB_REQUIRE(banner == "%%matrixmarket",
              "matrix market: missing %%MatrixMarket banner");
  PGB_REQUIRE(object == "matrix", "matrix market: only 'matrix' supported");
  PGB_REQUIRE(format == "coordinate",
              "matrix market: only 'coordinate' (sparse) supported");
  PGB_REQUIRE(field == "real" || field == "integer" || field == "pattern",
              "matrix market: field must be real/integer/pattern");
  PGB_REQUIRE(symmetry == "general" || symmetry == "symmetric",
              "matrix market: symmetry must be general/symmetric");
  const bool pattern = field == "pattern";
  const bool symmetric = symmetry == "symmetric";

  PGB_REQUIRE(next_data_line(in, line), "matrix market: missing size line");
  std::istringstream size(line);
  Index nrows = 0, ncols = 0, entries = 0;
  size >> nrows >> ncols >> entries;
  PGB_REQUIRE(!size.fail() && nrows >= 0 && ncols >= 0 && entries >= 0,
              "matrix market: malformed size line");

  if (info) {
    *info = MatrixMarketInfo{.nrows = nrows,
                             .ncols = ncols,
                             .entries = entries,
                             .symmetric = symmetric,
                             .pattern = pattern};
  }

  PGB_REQUIRE(!symmetric || entries <= std::numeric_limits<Index>::max() / 2,
              "matrix market: symmetric entry count overflows");

  // The size line only hints at the length of the entry list: the
  // reservation is capped, and a longer list grows the array as it reads.
  Coo<double> coo(nrows, ncols);
  coo.reserve(static_cast<std::size_t>(
      std::min(symmetric ? 2 * entries : entries, kReserveCap)));
  for (Index e = 0; e < entries; ++e) {
    PGB_REQUIRE(next_data_line(in, line),
                "matrix market: truncated entry list");
    std::istringstream entry(line);
    Index r = 0, c = 0;
    double v = 1.0;
    entry >> r >> c;
    if (!pattern) entry >> v;
    PGB_REQUIRE(!entry.fail(), "matrix market: malformed entry line");
    PGB_REQUIRE(r >= 1 && r <= nrows && c >= 1 && c <= ncols,
                "matrix market: entry index out of bounds");
    coo.add(r - 1, c - 1, v);
    if (symmetric && r != c) coo.add(c - 1, r - 1, v);
  }
  return coo;
}

Csr<double> read_matrix_market_csr(const std::string& path,
                                   MatrixMarketInfo* info) {
  std::ifstream in(path);
  PGB_REQUIRE(in.good(), "matrix market: cannot open " + path);
  return read_matrix_market(in, info).to_csr(
      [](double a, double b) { return a + b; });
}

DistCsr<double> read_matrix_market_dist(LocaleGrid& grid,
                                        const std::string& path,
                                        MatrixMarketInfo* info) {
  std::ifstream in(path);
  PGB_REQUIRE(in.good(), "matrix market: cannot open " + path);
  auto coo = read_matrix_market(in, info);
  return DistCsr<double>::from_coo(grid, coo);
}

void write_matrix_market(std::ostream& out, const Csr<double>& m) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << m.nrows() << " " << m.ncols() << " " << m.nnz() << "\n";
  for (Index r = 0; r < m.nrows(); ++r) {
    auto cols = m.row_colids(r);
    auto vals = m.row_values(r);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      out << (r + 1) << " " << (cols[k] + 1) << " " << vals[k] << "\n";
    }
  }
}

void write_matrix_market(const std::string& path, const Csr<double>& m) {
  std::ofstream out(path);
  PGB_REQUIRE(out.good(), "matrix market: cannot open " + path);
  write_matrix_market(out, m);
  PGB_REQUIRE(out.good(), "matrix market: write failed for " + path);
}

}  // namespace pgb
