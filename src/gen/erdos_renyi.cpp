#include "gen/erdos_renyi.hpp"

#include <algorithm>
#include <cmath>
#include <string>

namespace pgb {

namespace {

/// Knuth's Poisson sampler (d is small; ~d iterations).
Index poisson(Xoshiro256& rng, double d) {
  const double limit = std::exp(-d);
  double prod = rng.next_double();
  Index k = 0;
  while (prod > limit) {
    prod *= rng.next_double();
    ++k;
  }
  return k;
}

}  // namespace

void check_er_degree(double d) {
  // NaN fails the comparison; +inf and anything past ~708 underflow exp.
  PGB_REQUIRE(d >= 0.0 && std::isnormal(std::exp(-d)),
              "ER degree must be finite, non-negative and at most about "
              "708; got " + std::to_string(d));
}

std::vector<Index> er_row_columns(Index n, double d, std::uint64_t seed,
                                  Index row) {
  Xoshiro256 rng(seed, static_cast<std::uint64_t>(row));
  Index k = std::min(poisson(rng, d), n);
  std::vector<Index> cols;
  cols.reserve(static_cast<std::size_t>(k));
  // Draw distinct columns; k << n so rejection terminates fast.
  while (static_cast<Index>(cols.size()) < k) {
    const Index c = static_cast<Index>(
        rng.next_below(static_cast<std::uint64_t>(n)));
    auto it = std::lower_bound(cols.begin(), cols.end(), c);
    if (it == cols.end() || *it != c) cols.insert(it, c);
  }
  return cols;
}

}  // namespace pgb
