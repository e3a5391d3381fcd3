#include "gen/erdos_renyi.hpp"

#include <algorithm>
#include <cmath>
#include <string>

namespace pgb {

namespace {

/// Knuth's Poisson sampler (d is small; ~d iterations); limit = exp(-d).
Index poisson(Xoshiro256& rng, double limit) {
  double prod = rng.next_double();
  Index k = 0;
  while (prod > limit) {
    prod *= rng.next_double();
    ++k;
  }
  return k;
}

/// Rows per drawing item of detail::er_blocks: about a millisecond.
constexpr Index kRangeRows = 4096;

}  // namespace

void check_er_degree(double d) {
  // NaN fails the comparison; +inf and anything past ~708 underflow exp.
  PGB_REQUIRE(d >= 0.0 && std::isnormal(std::exp(-d)),
              "ER degree must be finite, non-negative and at most about "
              "708; got " + std::to_string(d));
}

ErRows::ErRows(Index n, double d, std::uint64_t seed)
    : n(n), d(d), seed(seed), limit(std::exp(-d)) {
  check_er_degree(d);
}

void er_row_columns(const ErRows& er, Index row, std::vector<Index>& out) {
  Xoshiro256 rng(er.seed, static_cast<std::uint64_t>(row));
  const Index k = std::min(poisson(rng, er.limit), er.n);
  const std::size_t first = out.size();
  out.resize(first + static_cast<std::size_t>(k));
  Index* cols = out.data() + first;
  // Draw distinct columns into sorted order; k << n so rejection
  // terminates fast. A row is short, so a branch-free count of the
  // smaller columns finds each insertion point.
  for (Index have = 0; have < k;) {
    const Index c = static_cast<Index>(
        rng.next_below(static_cast<std::uint64_t>(er.n)));
    Index at = 0;
    bool seen = false;
    for (Index j = 0; j < have; ++j) {
      at += cols[j] < c;
      seen |= cols[j] == c;
    }
    if (seen) continue;
    std::move_backward(cols + at, cols + have, cols + have + 1);
    cols[at] = c;
    ++have;
  }
}

std::vector<Index> er_row_columns(Index n, double d, std::uint64_t seed,
                                  Index row) {
  std::vector<Index> cols;
  er_row_columns(ErRows(n, d, seed), row, cols);
  return cols;
}

namespace detail {

namespace {

/// Consecutive rows of one processor row, each drawn once.
struct RowRange {
  Index rlo = 0, rhi = 0;        ///< global rows [rlo, rhi)
  std::vector<Index> cols;       ///< their columns, row after row
  std::vector<Index> ends;       ///< end of each row's columns in cols
  std::vector<Index> per_block;  ///< columns in each column block
};

/// Appends each row of `range` to the blocks of its processor row: its
/// columns in column block C, [bound[C], bound[C + 1]), to
/// block[C].colids, and its end in each block to block[C].rowptr.
void split_rows(const RowRange& range, const std::vector<Index>& bound,
                ErBlock* block) {
  const int pcols = static_cast<int>(bound.size()) - 1;
  const Index* c = range.cols.data();
  for (const Index end : range.ends) {
    const Index* last = range.cols.data() + end;
    int pcol = 0;
    for (; c != last; ++c) {
      while (*c >= bound[pcol + 1]) ++pcol;
      block[pcol].colids.push_back(*c);
    }
    for (int p = 0; p < pcols; ++p) {
      block[p].rowptr.push_back(static_cast<Index>(block[p].colids.size()));
    }
  }
}

}  // namespace

std::vector<ErBlock> er_blocks(const ErRows& er, const BlockDist2D& dist) {
  const BlockDist1D& rows = dist.rowd();
  const BlockDist1D& cols = dist.cold();
  const int pcols = cols.parts();
  std::vector<Index> bound;  // column block C is [bound[C], bound[C + 1])
  for (int pcol = 0; pcol <= pcols; ++pcol) bound.push_back(cols.lo(pcol));

  // Ranges in row order; processor row R's are [first[R], first[R + 1]).
  // Their buffers are reserved here, on the calling thread, at the
  // expected entries (they grow only past that), so the pool threads'
  // malloc arenas stay out of it.
  std::vector<RowRange> ranges;
  std::vector<int> first;
  const double per_row = std::min(er.d, static_cast<double>(er.n)) * 1.1;
  for (int prow = 0; prow < dist.prows(); ++prow) {
    first.push_back(static_cast<int>(ranges.size()));
    for (Index lo = rows.lo(prow); lo < rows.hi(prow); lo += kRangeRows) {
      auto& g = ranges.emplace_back();
      g.rlo = lo;
      g.rhi = std::min(lo + kRangeRows, rows.hi(prow));
      const auto nrows = static_cast<std::size_t>(g.rhi - g.rlo);
      g.cols.reserve(static_cast<std::size_t>(per_row * nrows) + 16);
      g.ends.reserve(nrows);
      g.per_block.assign(static_cast<std::size_t>(pcols), 0);
    }
  }
  first.push_back(static_cast<int>(ranges.size()));

  HostPool& pool = HostPool::instance();
  pool.run(static_cast<int>(ranges.size()), [&](int i) {
    auto& g = ranges[i];
    for (Index r = g.rlo; r < g.rhi; ++r) {
      const std::size_t start = g.cols.size();
      er_row_columns(er, r, g.cols);
      int pcol = 0;  // the row is sorted, so its blocks come in order
      for (std::size_t k = start; k < g.cols.size(); ++k) {
        while (g.cols[k] >= bound[pcol + 1]) ++pcol;
        ++g.per_block[pcol];
      }
      g.ends.push_back(static_cast<Index>(g.cols.size()));
    }
  });

  // Locales are row-major: processor row R's blocks are R * pcols + C.
  std::vector<ErBlock> blocks(static_cast<std::size_t>(dist.prows()) *
                              pcols);
  for (int prow = 0; prow < dist.prows(); ++prow) {
    for (int pcol = 0; pcol < pcols; ++pcol) {
      Index nnz = 0;
      for (int i = first[prow]; i < first[prow + 1]; ++i) {
        nnz += ranges[i].per_block[pcol];
      }
      auto& b = blocks[static_cast<std::size_t>(prow) * pcols + pcol];
      b.rowptr.reserve(static_cast<std::size_t>(rows.local_size(prow)) + 1);
      b.rowptr.push_back(0);
      b.colids.reserve(static_cast<std::size_t>(nnz));
    }
  }
  pool.run(dist.prows(), [&](int prow) {
    for (int i = first[prow]; i < first[prow + 1]; ++i) {
      split_rows(ranges[i], bound,
                 &blocks[static_cast<std::size_t>(prow) * pcols]);
    }
  });
  return blocks;
}

}  // namespace detail

}  // namespace pgb
