// Host-side microbenchmarks (google-benchmark) of the *real* kernels the
// simulator executes: sorting, SPA accumulation and sorted output,
// sparse-domain search and merge. These measure actual wall time on the
// machine running the bench — they validate that the library's real data
// structures are sound, independent of the Edison cost model.
#include <benchmark/benchmark.h>

#include "sparse/spa.hpp"
#include "sparse/sparse_domain.hpp"
#include "util/rng.hpp"
#include "util/sorting.hpp"

namespace pgb {
namespace {

std::vector<Index> random_keys(std::int64_t n, std::uint64_t bound) {
  Xoshiro256 rng(42);
  std::vector<Index> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<Index>(rng.next_below(bound));
  return v;
}

void BM_MergeSort(benchmark::State& state) {
  const auto base = random_keys(state.range(0), 1 << 20);
  for (auto _ : state) {
    auto v = base;
    merge_sort(v);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MergeSort)->Range(1 << 10, 1 << 20);

void BM_RadixSort(benchmark::State& state) {
  const auto base = random_keys(state.range(0), 1 << 20);
  for (auto _ : state) {
    auto v = base;
    radix_sort(v);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RadixSort)->Range(1 << 10, 1 << 20);

void BM_SpaAccumulate(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const auto keys = random_keys(n, static_cast<std::uint64_t>(n));
  Spa<double> spa(0, n);
  const auto add = [](double a, double b) { return a + b; };
  for (auto _ : state) {
    for (Index k : keys) spa.accumulate(k, 1.0, add);
    benchmark::DoNotOptimize(spa.nzinds().data());
    spa.reset();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SpaAccumulate)->Range(1 << 10, 1 << 20);

/// The sorted index list of a one-shot SPA: merge-sorting a copy of its
/// nzinds (walk=0) against the ascending walk of its isthere flags
/// (walk=1). The ranges and push counts are the SpMSpV block shapes of
/// the perfbench workloads (2048-wide blocks on bfs-rmat-1024,
/// 12500-wide ones on serve-ingest); pushes repeat indices.
void BM_SpaSortedOutput(benchmark::State& state) {
  const std::int64_t range = state.range(0);
  Spa<double> spa(0, range);
  const auto add = [](double a, double b) { return a + b; };
  const auto keys =
      random_keys(state.range(1), static_cast<std::uint64_t>(range));
  for (Index k : keys) spa.accumulate(k, 1.0, add);
  const bool walk = state.range(2) != 0;
  for (auto _ : state) {
    std::vector<Index> idx;
    if (walk) {
      idx.reserve(static_cast<std::size_t>(spa.nnz()));
      spa.for_each_sorted([&](Index j) { idx.push_back(j); });
    } else {
      idx = spa.nzinds();
      merge_sort(idx);
    }
    benchmark::DoNotOptimize(idx.data());
  }
  state.SetItemsProcessed(state.iterations() * spa.nnz());
}
BENCHMARK(BM_SpaSortedOutput)
    ->ArgNames({"range", "pushes", "walk"})
    ->ArgsProduct({{2048}, {600, 4000}, {0, 1}})
    ->ArgsProduct({{12500}, {4000, 16000}, {0, 1}});

void BM_DomainFind(benchmark::State& state) {
  auto keys = random_keys(state.range(0), 1 << 24);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  const auto dom = SparseDomain::from_sorted(keys);
  Xoshiro256 rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dom.find(static_cast<Index>(rng.next_below(1 << 24))));
  }
}
BENCHMARK(BM_DomainFind)->Range(1 << 10, 1 << 20);

void BM_DomainBulkAdd(benchmark::State& state) {
  auto a = random_keys(state.range(0), 1 << 24);
  auto b = random_keys(state.range(0), 1 << 24);
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  std::sort(b.begin(), b.end());
  b.erase(std::unique(b.begin(), b.end()), b.end());
  for (auto _ : state) {
    auto dom = SparseDomain::from_sorted(a);
    dom.add_sorted(b);
    benchmark::DoNotOptimize(dom.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DomainBulkAdd)->Range(1 << 10, 1 << 18);

}  // namespace
}  // namespace pgb

BENCHMARK_MAIN();
