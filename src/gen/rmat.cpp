#include "gen/rmat.hpp"

#include <limits>
#include <string>

namespace pgb {

void check_rmat_params(const RmatParams& p) {
  PGB_REQUIRE(p.scale >= 0 && p.scale <= 62,
              "R-MAT scale must be in [0, 62]; got " +
                  std::to_string(p.scale));
  PGB_REQUIRE(p.edge_factor >= 0, "R-MAT edge factor must be >= 0; got " +
                                      std::to_string(p.edge_factor));
  const Index n = Index{1} << p.scale;
  PGB_REQUIRE(p.edge_factor <= std::numeric_limits<Index>::max() / 2 / n,
              "R-MAT edge count 2 * edge_factor * 2^scale overflows 64 "
              "bits");
  const auto m = static_cast<std::uint64_t>(p.edge_factor * n);
  PGB_REQUIRE(p.scale == 0 ||
                  m <= std::numeric_limits<std::uint64_t>::max() /
                           static_cast<std::uint64_t>(p.scale),
              "R-MAT draw count edge_factor * 2^scale * scale overflows 64 "
              "bits");
  // Written so that NaN fails every comparison.
  PGB_REQUIRE(p.a >= 0.0 && p.b >= 0.0 && p.c >= 0.0 &&
                  p.a + p.b + p.c <= 1.0,
              "R-MAT corner probabilities a, b, c must be >= 0 with "
              "a + b + c <= 1");
}

Csr<std::int64_t> rmat_csr(const RmatParams& p) {
  return rmat_coo(p).to_csr([](std::int64_t, std::int64_t) {
    return std::int64_t{1};
  });
}

}  // namespace pgb
