// Quickstart: a tour of the pgas-graphblas public API.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
// The library executes every operation for real (results below are
// computed) while per-locale simulated clocks track what the operation
// would cost on the modeled machine (Edison-like nodes + network), so
// you can explore shared- vs distributed-memory behaviour on a laptop.
#include <cstdio>

#include "core/graphblas.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/random_vec.hpp"
#include "util/table.hpp"

using namespace pgb;

int main() {
  // A 2x2 locale grid, 24 threads per locale (one Edison node each).
  LocaleGrid grid = LocaleGrid::square(4, 24);
  std::printf("grid: %dx%d locales, %d threads each\n\n", grid.rows(),
              grid.cols(), grid.threads());

  const Index n = 100000;

  // --- a sparse vector, distributed by 1-D blocks over the locales ---
  auto x = random_dist_sparse_vec<double>(grid, n, /*nnz=*/20000, /*seed=*/1);
  std::printf("x: capacity %lld, nnz %lld\n",
              static_cast<long long>(x.capacity()),
              static_cast<long long>(x.nnz()));

  // --- Apply: the SPMD version (paper Listing 3) ---
  grid.reset();
  apply_v2(x, [](double v) { return 2.0 * v; });
  std::printf("apply_v2 (x *= 2):        modeled %s\n",
              Table::time(grid.time()).c_str());

  // --- Assign: A = B with matching domains (paper Listing 5) ---
  DistSparseVec<double> x2(grid, n);
  grid.reset();
  assign_v2(x2, x);
  std::printf("assign_v2 (x2 = x):       modeled %s\n",
              Table::time(grid.time()).c_str());

  // --- eWiseMult against a dense Boolean vector (paper Listing 6) ---
  auto keep = random_dist_bool_vec(grid, n, 0.5, /*seed=*/2);
  grid.reset();
  auto filtered = ewise_mult_sd(
      x, keep, FirstOp{}, [](std::uint8_t b) { return b != 0; });
  std::printf("eWiseMult (keep ~half):   modeled %s   (nnz %lld -> %lld)\n",
              Table::time(grid.time()).c_str(),
              static_cast<long long>(x.nnz()),
              static_cast<long long>(filtered.nnz()));

  // --- SpMSpV on a semiring: y = x A (paper Listings 7-8) ---
  auto a = erdos_renyi_dist<double>(grid, n, /*d=*/8.0, /*seed=*/3);
  grid.reset();
  auto y = spmspv_dist(a, filtered, arithmetic_semiring<double>());
  std::printf("spmspv (y = x A):         modeled %s   (output nnz %lld)\n",
              Table::time(grid.time()).c_str(),
              static_cast<long long>(y.nnz()));
  std::printf("  gather %s | local %s | scatter %s\n",
              Table::time(grid.trace().get("gather")).c_str(),
              Table::time(grid.trace().get("local")).c_str(),
              Table::time(grid.trace().get("scatter")).c_str());

  // --- reduce on a monoid ---
  const double total = reduce(y, plus_monoid<double>());
  std::printf("reduce(y, +):             %.6g\n", total);

  // --- the same SpMSpV with bulk communication (the paper's suggested
  //     remedy for the fine-grained traffic) ---
  SpmspvOptions bulk;
  bulk.comm = CommMode::kBulk;
  grid.reset();
  auto y2 = spmspv_dist(a, filtered, arithmetic_semiring<double>(), bulk);
  std::printf("spmspv (bulk comm):       modeled %s   (same result: %s)\n",
              Table::time(grid.time()).c_str(),
              y2.to_local() == y.to_local() ? "yes" : "NO");
  return 0;
}
