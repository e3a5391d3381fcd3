// Host-side microbenchmarks (google-benchmark) of the *real* kernels the
// simulator executes: sorting, SPA accumulation and sorted output,
// sparse-domain search and merge, the ingest overlay's publish-time
// materialize, and the host cost of a coforall dispatch. These measure
// actual wall time on the machine running the bench — they validate that
// the library's real data structures are sound, independent of the
// Edison cost model.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>

#include "core/ops.hpp"
#include "core/spmspv.hpp"
#include "gen/random_vec.hpp"
#include "runtime/locale_grid.hpp"
#include "sparse/csr_overlay.hpp"
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
  std::vector<Index> touched = keys;
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  Spa<double> spa(0, n);
  const auto add = [](double a, double b) { return a + b; };
  for (auto _ : state) {
    for (Index k : keys) spa.accumulate(k, 1.0, add);
    benchmark::DoNotOptimize(spa.nnz());
    spa.reset(touched);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SpaAccumulate)->Range(1 << 10, 1 << 20);

/// The sorted index list of a one-shot SPA: merge-sorting a copy of the
/// indices in first-touch order (walk=0) against the ascending walk of
/// its isthere flags (walk=1). The ranges and push counts are the SpMSpV block shapes of
/// the perfbench workloads (2048-wide blocks on bfs-rmat-1024,
/// 12500-wide ones on serve-ingest); pushes repeat indices.
void BM_SpaSortedOutput(benchmark::State& state) {
  const std::int64_t range = state.range(0);
  Spa<double> spa(0, range);
  const auto add = [](double a, double b) { return a + b; };
  const auto keys =
      random_keys(state.range(1), static_cast<std::uint64_t>(range));
  std::vector<Index> touched;
  for (Index k : keys) {
    if (spa.accumulate(k, 1.0, add)) touched.push_back(k);
  }
  const bool walk = state.range(2) != 0;
  for (auto _ : state) {
    std::vector<Index> idx;
    if (walk) {
      idx.reserve(static_cast<std::size_t>(spa.nnz()));
      spa.for_each_sorted([&](Index j) { idx.push_back(j); });
    } else {
      idx = touched;
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

/// One serve-ingest block: 12500 rows of a 100000-column matrix (ER
/// n=100k on an 8x8 grid), about 12.6k entries in the global column
/// range [37500, 50000).
Csr<double> ingest_block() {
  constexpr Index kRows = 12500, kClo = 37500;
  Xoshiro256 rng(11);
  std::vector<std::pair<Index, Index>> rc(12600);
  for (auto& [r, c] : rc) {
    r = static_cast<Index>(rng.next_below(kRows));
    c = kClo + static_cast<Index>(rng.next_below(kRows));
  }
  std::sort(rc.begin(), rc.end());
  rc.erase(std::unique(rc.begin(), rc.end()), rc.end());
  std::vector<Index> rowptr(kRows + 1, 0);
  std::vector<Index> colids;
  for (const auto& [r, c] : rc) {
    ++rowptr[static_cast<std::size_t>(r) + 1];
    colids.push_back(c);
  }
  for (Index r = 0; r < kRows; ++r) rowptr[r + 1] += rowptr[r];
  std::vector<double> vals(colids.size(), 0.5);
  return Csr<double>::from_parts(kRows, 100000, std::move(rowptr),
                                 std::move(colids), std::move(vals));
}

/// Publish-time materialize of one block with `dirty` rows carrying one
/// insert each: 4 rows is one 256-mutation batch's share of a 64-block
/// serve-ingest graph, 52 a whole pass's. The Csr it builds runs the
/// full invariant check, timed alone by BM_CsrCheckInvariants.
void BM_OverlayMaterialize(benchmark::State& state) {
  const Csr<double> base = ingest_block();
  CsrOverlay<double> ov(&base);
  Xoshiro256 rng(12);
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    ov.apply(static_cast<Index>(rng.next_below(12500)),
             37500 + static_cast<Index>(rng.next_below(12500)), 0.25, true);
  }
  for (auto _ : state) {
    std::int64_t touched = 0;
    Csr<double> m = ov.materialize(&touched);
    benchmark::DoNotOptimize(m.colids().data());
    benchmark::DoNotOptimize(touched);
  }
  state.SetItemsProcessed(state.iterations() * base.nrows());
}
BENCHMARK(BM_OverlayMaterialize)->ArgName("dirty")->Arg(4)->Arg(52)->Arg(512);

void BM_CsrCheckInvariants(benchmark::State& state) {
  const Csr<double> block = ingest_block();
  for (auto _ : state) benchmark::DoNotOptimize(block.check_invariants());
  state.SetItemsProcessed(state.iterations() * block.nrows());
}
BENCHMARK(BM_CsrCheckInvariants);

/// Host time of one coforall dispatch over `locales` locales, through the
/// serial loop or coforall_compute (`pooled`). The body is empty, or one
/// spmspv_shm per locale on the serve-ingest block above with a
/// 2000-entry frontier piece (`spmspv`). The empty body is the pool's
/// hand-off floor; a site whose bodies are much cheaper than it gains
/// nothing from the pool. Before each dispatch the caller busy-waits
/// `gap_us` microseconds, as a kernel's serial work between two waves
/// does, so the workers idle as long between dispatches; the time column
/// includes the gap and `dispatch_us` is the dispatch alone.
void BM_CoforallCompute(benchmark::State& state) {
  const int nloc = static_cast<int>(state.range(0));
  const bool pooled = state.range(1) != 0;
  const bool spmspv = state.range(2) != 0;
  const std::chrono::microseconds gap(state.range(3));
  auto grid = LocaleGrid::square(nloc, 24);
  const Csr<double> block = ingest_block();
  const std::vector<Index> rows =
      sample_sorted_indices(block.nrows(), 2000, 13);
  const auto x = SparseVec<double>::from_sorted(
      block.nrows(), rows, std::vector<double>(rows.size(), 1.0));
  const auto sr = arithmetic_semiring<double>();
  std::vector<SparseVec<double>> ly(static_cast<std::size_t>(nloc));
  const std::function<void(LocaleCtx&)> body = [&](LocaleCtx& ctx) {
    if (!spmspv) return;
    ly[static_cast<std::size_t>(ctx.locale())] =
        spmspv_shm(ctx, block, 0, x, 37500, 50000, sr);
  };
  using Clock = std::chrono::steady_clock;
  Clock::duration dispatched{};
  for (auto _ : state) {
    const auto ready = Clock::now() + gap;
    while (Clock::now() < ready) {
    }
    const auto t0 = Clock::now();
    if (pooled) {
      grid.coforall_compute(body);
    } else {
      grid.coforall_locales(body);
    }
    benchmark::DoNotOptimize(ly.data());
    benchmark::ClobberMemory();
    dispatched += Clock::now() - t0;
  }
  state.counters["dispatch_us"] = benchmark::Counter(
      std::chrono::duration<double, std::micro>(dispatched).count(),
      benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations() * nloc);
}
BENCHMARK(BM_CoforallCompute)
    ->ArgNames({"locales", "pooled", "spmspv", "gap_us"})
    ->ArgsProduct({{64, 1024}, {0, 1}, {0, 1}, {0, 100, 500}})
    ->UseRealTime();

}  // namespace
}  // namespace pgb

BENCHMARK_MAIN();
