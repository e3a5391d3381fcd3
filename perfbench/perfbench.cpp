// pgb_perfbench — what it costs, in host time, to run the simulator.
//
// Every other measurement in this repository is modeled (simulated
// Edison) time. This driver reports both clocks for three workloads: the
// host wall time a caller of each layer's public functions waits, and the
// modeled time those same calls charge. It is single-process and
// single-threaded, links the libraries as they are, and times calls into
// them from outside; no span or counter is added inside the libraries.
//
//   pgb_perfbench --workload fig8-spmspv|bfs-rmat-1024|serve-ingest
//                 --seed N --seconds S --trace 0|1 [--size full|small]
//                 [--out DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the untraced
// passes of one set-up and then one more with a TraceSession attached plus
// the benchmark's own spans around each layer call, and prints the
// per-layer metrics. Both end with one JSON line
//   {"correct":..., "attempted":..., "failed":..., "metrics":{...}}
// and exit 1 when an output check failed. --size small shrinks every
// workload for the benchmark's own tests.
//
// The timed phase does a fixed amount of work, S x a per-workload op rate
// split over kSetups x kPasses identical passes (about S host seconds in
// all on a 4-core x86 box with a 300 MiB LLC), so two runs with the same
// --seed and --seconds do identical work and must report bit-identical
// modeled metrics and counts.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "algo/bfs.hpp"
#include "core/ops.hpp"
#include "core/spmspv.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/random_vec.hpp"
#include "gen/rmat.hpp"
#include "host_fold.hpp"
#include "ingest/ingest.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "service/service.hpp"
#include "util/cli.hpp"

namespace perfbench {
namespace {

using pgb::Index;
using Clock = std::chrono::steady_clock;

constexpr int kThreadsPerLocale = 24;  ///< Edison node, as in the paper
constexpr int kSetups = 5;  ///< set-ups per end-to-end run (see run())
constexpr int kPasses = 3;  ///< timed passes over the ops per set-up
constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// splitmix64: the benchmark's own seeded stream, so every input depends
/// on nothing but --seed.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in (0, 1].
  double unit() {
    return (static_cast<double>(next() >> 11) + 1.0) / 9007199254740992.0;
  }
  Index below(Index n) {
    return static_cast<Index>(next() % static_cast<std::uint64_t>(n));
  }
};

template <typename V>
std::uint64_t fnv(std::uint64_t h, const V& v) {
  return pgb::fnv1a_extend(h, &v, sizeof(v));
}

// ---------------------------------------------------------------------
// Statistics and reporting
// ---------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Tail {
  double value = 0.0;
  double percentile = 0.0;
};

/// The highest percentile that still has at least ten samples above it;
/// never below the median (so with fewer than 21 samples it is the upper
/// median's order statistic).
Tail tail(std::vector<double> v) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t k = std::max(n >= 11 ? n - 11 : 0, n / 2);
  return {v[k], 100.0 * static_cast<double>(k + 1) / static_cast<double>(n)};
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    PGB_REQUIRE(std::isfinite(value), "metric " + name + " is not finite");
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  void print_lines() const {
    for (const auto& m : metrics_) {
      std::printf("metric %-40s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

  std::string json() const {
    std::string s = "{";
    char buf[64];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", metrics_[i].value);
      s += (i == 0 ? "\"" : ", \"") + metrics_[i].name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    return s + "}";
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

// ---------------------------------------------------------------------
// Tracing: the benchmark's own spans plus the host-time fold
// ---------------------------------------------------------------------

/// Benchmark spans ride on one named track of the grid's TraceSession.
/// Names starting with "layer." wrap a call into one layer's public API;
/// "bench." spans are the driver's own bookkeeping.
class Tracer {
 public:
  explicit Tracer(pgb::LocaleGrid& grid) : grid_(grid) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;
  ~Tracer() {
    if (session_ != nullptr) grid_.set_trace_session(nullptr);
  }

  /// Attaches a session; the first op's trace and profile are exported
  /// to `dir` as `<stem>.trace.json` / `<stem>.profile.json`.
  void attach(std::string dir, std::string stem) {
    session_ = std::make_unique<pgb::obs::TraceSession>();
    grid_.set_trace_session(session_.get());
    dir_ = std::move(dir);
    stem_ = std::move(stem);
    track_ = session_->alloc_named_track("perfbench");
  }
  bool on() const { return session_ != nullptr; }

  /// grid.reset(), which also clears the session (and its track names).
  void reset_grid() {
    grid_.reset();
    if (on()) track_ = session_->alloc_named_track("perfbench");
  }

  void begin(const char* name) {
    if (on()) session_->begin_span(track_, name, grid_.time());
  }
  void end() {
    if (on()) session_->end_span(track_, grid_.time());
  }

  /// Closes one op: folds the spans recorded since the last call into
  /// the host-time totals, exports them if this was the first op, and
  /// clears the session so a long phase never holds more than one op's
  /// spans. The time this takes is tallied in excluded_s().
  void op_done() {
    if (!on()) return;
    const auto t0 = Clock::now();
    fold_.add(*session_, grid_.num_locales(), track_);
    if (!exported_) {
      exported_ = true;
      const auto e0 = Clock::now();
      std::filesystem::create_directories(dir_);
      pgb::obs::Profile prof =
          pgb::obs::build_profile(*session_, grid_.metrics().snapshot());
      prof.workload = stem_;
      prof.write(dir_ + "/" + stem_ + ".profile.json");
      session_->write_chrome_trace(dir_ + "/" + stem_ + ".trace.json");
      export_s_ = seconds_since(e0);
    }
    session_->clear();
    track_ = session_->alloc_named_track("perfbench");
    excluded_s_ += seconds_since(t0);
  }

  double excluded_s() const { return excluded_s_; }
  double export_s() const { return export_s_; }
  const HostFold& fold() const { return fold_; }

 private:
  pgb::LocaleGrid& grid_;
  std::unique_ptr<pgb::obs::TraceSession> session_;
  std::string dir_, stem_;
  int track_ = -1;
  HostFold fold_;
  bool exported_ = false;
  double excluded_s_ = 0.0;
  double export_s_ = 0.0;
};

class Span {
 public:
  Span(Tracer& t, const char* name) : t_(t) { t_.begin(name); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { t_.end(); }

 private:
  Tracer& t_;
};

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/// Outcome of one timed phase. Everything except run_s, stretch_s and
/// op_ms is modeled or counted, hence bit-reproducible per seed.
struct Phase {
  double run_s = 0.0;               ///< host time (trace folding excluded)
  std::vector<double> stretch_s;    ///< run_s cut at each op's end
  std::vector<double> op_ms;        ///< host time per op
  double modeled_s = 0.0;           ///< simulated time of the phase
  std::vector<double> latency_ms;   ///< modeled latency per served request
  std::int64_t requests = 0;        ///< requests attempted
  std::int64_t served = 0;          ///< requests answered in time
  std::int64_t failed = 0;          ///< shed, rejected or expired requests
  pgb::obs::MetricsSnapshot counts;  ///< registry delta over the phase
  double gather_modeled_s = 0.0;    ///< grid.trace() phase deltas
  double local_modeled_s = 0.0;
  double scatter_modeled_s = 0.0;
  std::uint64_t outputs = kFnvBasis;  ///< hash of every op's output
  // serve-ingest only (empty or zero elsewhere)
  std::vector<double> publish_lag_ms;      ///< batch due -> published
  std::vector<double> publish_modeled_ms;  ///< modeled time of publish()
  std::int64_t shed = 0;     ///< out of retries or throttled
  std::int64_t expired = 0;  ///< deadline expired
};

/// Opens a phase: snapshots what Phase reports as deltas.
class PhaseClock {
 public:
  PhaseClock(pgb::LocaleGrid& grid, const Tracer& tr)
      : grid_(grid),
        tr_(tr),
        counts0_(grid.metrics().snapshot()),
        modeled0_(grid.time()),
        g0_(grid.trace().get("gather")),
        l0_(grid.trace().get("local")),
        s0_(grid.trace().get("scatter")),
        excluded0_(tr.excluded_s()),
        t0_(Clock::now()) {}

  /// Ends a stretch of the phase's host time (call after each op).
  void split(Phase& p) {
    const double t = elapsed_s();
    p.stretch_s.push_back(t - split_s_);
    split_s_ = t;
  }

  void close(Phase& p) {
    split(p);
    p.run_s = split_s_;
    p.modeled_s = grid_.time() - modeled0_;
    p.counts = pgb::obs::MetricsSnapshot::diff(grid_.metrics().snapshot(),
                                               counts0_);
    p.gather_modeled_s = grid_.trace().get("gather") - g0_;
    p.local_modeled_s = grid_.trace().get("local") - l0_;
    p.scatter_modeled_s = grid_.trace().get("scatter") - s0_;
  }

 private:
  pgb::LocaleGrid& grid_;
  const Tracer& tr_;
  double elapsed_s() const {
    return seconds_since(t0_) - (tr_.excluded_s() - excluded0_);
  }

  pgb::obs::MetricsSnapshot counts0_;
  double modeled0_, g0_, l0_, s0_, excluded0_;
  Clock::time_point t0_;
  double split_s_ = 0.0;
};

/// Everything of a phase except its host times: passes over the same ops
/// must agree on it bit for bit.
bool same_outcome(const Phase& a, const Phase& b) {
  return a.outputs == b.outputs && a.modeled_s == b.modeled_s &&
         a.requests == b.requests && a.served == b.served &&
         a.failed == b.failed && a.counts.json() == b.counts.json();
}

std::int64_t count(const Phase& p, const std::string& key) {
  return p.counts.counter(key);
}

template <typename T>
std::int64_t matrix_bytes(const pgb::DistCsr<T>& a) {
  std::int64_t b = 0;
  for (int l = 0; l < a.grid().num_locales(); ++l) {
    const auto& c = a.block(l).csr;
    b += static_cast<std::int64_t>(c.rowptr().size() * sizeof(Index) +
                                   c.colids().size() * sizeof(Index) +
                                   c.values().size() * sizeof(T));
  }
  return b;
}

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the workload's resident state from scratch (grid, graph,
  /// service): everything before the first timed op.
  virtual void setup() = 0;
  /// Re-arms state a timed phase consumes, so the phase can run again.
  virtual void prepare() {}
  /// The timed phase over the first `max_ops` of the workload's ops.
  virtual Phase run(Tracer& tr, std::int64_t max_ops) = 0;
  /// Output checks over the last phase; returns the number that failed.
  virtual std::int64_t check() = 0;

  virtual pgb::LocaleGrid& grid() = 0;
  virtual std::int64_t working_set_bytes() const = 0;
  virtual std::int64_t ops() const = 0;

  double gen_s = 0.0;         ///< host time of graph generation
  double distribute_s = 0.0;  ///< host time of COO -> DistCsr
};

/// Closed-loop solo ops (one SpMSpV call or one BFS): one client issues
/// the next op when the previous one returns, so each request's modeled
/// latency is the op's modeled time.
void solo_op_done(Phase& p, double host_ms, double modeled_ms) {
  p.op_ms.push_back(host_ms);
  p.latency_ms.push_back(modeled_ms);
  ++p.requests;
  ++p.served;
}

// ---- fig8-spmspv ----------------------------------------------------

struct Fig8Size {
  Index n;
  int locales;
  double ops_per_second;
};

/// The paper's Fig-8 input: ER n=1M, d=16 on the 8x8 grid, x at f=0.02,
/// comm schedule chosen per site by the inspector (--comm=auto).
class Fig8 : public Workload {
 public:
  Fig8(const Fig8Size& sz, std::uint64_t seed, std::uint64_t stream,
       std::int64_t n_ops)
      : sz_(sz), seed_(seed) {
    Rng rng{stream ^ 0x243f6a8885a308d3ull};
    for (std::int64_t i = 0; i < n_ops; ++i) x_seeds_.push_back(rng.next());
  }

  void setup() override {
    grid_ = std::make_unique<pgb::LocaleGrid>(
        pgb::LocaleGrid::square(sz_.locales, kThreadsPerLocale));
    const auto t0 = Clock::now();
    a_ = std::make_unique<pgb::DistCsr<std::int64_t>>(
        pgb::erdos_renyi_dist<std::int64_t>(*grid_, sz_.n, kDegree, seed_));
    gen_s = seconds_since(t0);
  }

  Phase run(Tracer& tr, std::int64_t max_ops) override {
    tr.reset_grid();
    Phase p;
    PhaseClock pc(*grid_, tr);
    pgb::SpmspvOptions opt;
    opt.comm = pgb::CommMode::kAuto;
    const auto sr = pgb::arithmetic_semiring<std::int64_t>();
    hashes_.assign(std::min<std::size_t>(x_seeds_.size(), max_ops), 0);
    for (std::size_t i = 0; i < hashes_.size(); ++i) {
      std::optional<pgb::DistSparseVec<std::int64_t>> x;
      {
        Span s(tr, "layer.gen.random_vec");
        x.emplace(make_x(i));
      }
      const double m0 = grid_->time();
      const auto t0 = Clock::now();
      std::optional<pgb::DistSparseVec<std::int64_t>> y;
      {
        Span s(tr, "layer.core.spmspv_dist");
        y.emplace(pgb::spmspv_dist(*a_, *x, sr, opt));
      }
      solo_op_done(p, 1e3 * seconds_since(t0), 1e3 * (grid_->time() - m0));
      {
        Span s(tr, "bench.hash_output");
        hashes_[i] = hash_dist(*y);
      }
      tr.op_done();
      pc.split(p);
    }
    pc.close(p);
    for (std::uint64_t h : hashes_) p.outputs = fnv(p.outputs, h);
    return p;
  }

  /// Each y against a plain serial y = x A over the resident blocks (no
  /// second copy of the matrix), compared by content hash.
  std::int64_t check() override {
    const auto& dist = a_->dist();
    const int pcols = grid_->cols();
    std::vector<std::int64_t> acc(static_cast<std::size_t>(sz_.n), 0);
    std::vector<std::uint8_t> seen(static_cast<std::size_t>(sz_.n), 0);
    std::vector<Index> touched;
    std::int64_t bad = 0;
    for (std::size_t i = 0; i < hashes_.size(); ++i) {
      const auto x = make_x(i);
      touched.clear();
      for (int l = 0; l < grid_->num_locales(); ++l) {
        const auto& xs = x.local(l);
        for (Index p = 0; p < xs.nnz(); ++p) {
          const Index r = xs.index_at(p);
          const std::int64_t xv = xs.value_at(p);
          const int prow = dist.rowd().owner(r);
          for (int pcol = 0; pcol < pcols; ++pcol) {
            const auto& b = a_->block(prow * pcols + pcol);
            const auto cols = b.csr.row_colids(r - b.rlo);
            const auto vals = b.csr.row_values(r - b.rlo);
            for (std::size_t k = 0; k < cols.size(); ++k) {
              const auto c = static_cast<std::size_t>(cols[k]);
              if (seen[c] == 0) {
                seen[c] = 1;
                touched.push_back(cols[k]);
              }
              acc[c] += xv * vals[k];
            }
          }
        }
      }
      std::sort(touched.begin(), touched.end());
      std::uint64_t h = kFnvBasis;
      for (Index j : touched) {
        const auto ju = static_cast<std::size_t>(j);
        h = fnv(fnv(h, j), acc[ju]);
        acc[ju] = 0;
        seen[ju] = 0;
      }
      if (h != hashes_[i]) ++bad;
    }
    return bad;
  }

  pgb::LocaleGrid& grid() override { return *grid_; }
  std::int64_t working_set_bytes() const override { return matrix_bytes(*a_); }
  std::int64_t ops() const override {
    return static_cast<std::int64_t>(x_seeds_.size());
  }

 private:
  static constexpr double kDegree = 16.0;
  static constexpr double kDensity = 0.02;

  pgb::DistSparseVec<std::int64_t> make_x(std::size_t i) const {
    return pgb::random_dist_sparse_vec<std::int64_t>(
        *grid_, sz_.n,
        static_cast<Index>(kDensity * static_cast<double>(sz_.n)),
        x_seeds_[i]);
  }

  static std::uint64_t hash_dist(const pgb::DistSparseVec<std::int64_t>& y) {
    std::uint64_t h = kFnvBasis;
    for (int l = 0; l < y.grid().num_locales(); ++l) {
      const auto& ys = y.local(l);
      for (Index p = 0; p < ys.nnz(); ++p) {
        h = fnv(fnv(h, ys.index_at(p)), ys.value_at(p));
      }
    }
    return h;
  }

  Fig8Size sz_;
  std::uint64_t seed_;
  std::vector<std::uint64_t> x_seeds_;
  std::vector<std::uint64_t> hashes_;
  std::unique_ptr<pgb::LocaleGrid> grid_;
  std::unique_ptr<pgb::DistCsr<std::int64_t>> a_;
};

// ---- bfs-rmat-1024 --------------------------------------------------

struct BfsSize {
  int scale;
  int locales;
  double ops_per_second;
};

/// R-MAT (skewed degrees) on a 32x32 grid with the aggregated schedule
/// fixed, so the inspector is bypassed. Little work per locale and many
/// locales: per-locale runtime overhead shows here first.
class BfsRmat : public Workload {
 public:
  BfsRmat(const BfsSize& sz, std::uint64_t seed, std::uint64_t stream,
          std::int64_t n_ops)
      : sz_(sz), seed_(seed), ops_seed_(stream), n_ops_(n_ops) {}

  void setup() override {
    grid_ = std::make_unique<pgb::LocaleGrid>(
        pgb::LocaleGrid::square(sz_.locales, kThreadsPerLocale));
    pgb::RmatParams p;
    p.scale = sz_.scale;
    p.seed = seed_;
    auto t0 = Clock::now();
    auto coo = std::make_unique<pgb::Coo<std::int64_t>>(pgb::rmat_coo(p));
    gen_s = seconds_since(t0);
    t0 = Clock::now();
    a_ = std::make_unique<pgb::DistCsr<std::int64_t>>(
        pgb::DistCsr<std::int64_t>::from_coo(*grid_, *coo));
    distribute_s = seconds_since(t0);
    coo.reset();
    draw_sources();
  }

  Phase run(Tracer& tr, std::int64_t max_ops) override {
    tr.reset_grid();
    Phase p;
    PhaseClock pc(*grid_, tr);
    pgb::SpmspvOptions opt;
    opt.comm = pgb::CommMode::kAggregated;
    results_.clear();
    results_.resize(std::min<std::size_t>(sources_.size(), max_ops));
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const double m0 = grid_->time();
      const auto t0 = Clock::now();
      pgb::BfsResult res;
      {
        Span s(tr, "layer.algo.bfs");
        res = pgb::bfs(*a_, sources_[i], opt);
      }
      solo_op_done(p, 1e3 * seconds_since(t0), 1e3 * (grid_->time() - m0));
      {
        Span s(tr, "bench.keep_output");
        results_[i] = std::move(res);
      }
      tr.op_done();
      pc.split(p);
    }
    pc.close(p);
    for (const auto& r : results_) {
      p.outputs = pgb::fnv1a_extend(p.outputs, r.parent.data(),
                                    r.parent.size() * sizeof(Index));
    }
    return p;
  }

  /// Level-structure check of every traversal: each reached vertex at
  /// level k > 0 has its parent at level k-1 joined by a stored edge, and
  /// no edge leaves a reached vertex for one more than a level deeper or
  /// for an unreached one (the graph is symmetric, so no neighbour sits
  /// below k-1 either). Level sizes must match the reported ones.
  std::int64_t check() override {
    const Index n = a_->nrows();
    std::int64_t bad = 0;
    std::vector<Index> level(static_cast<std::size_t>(n));
    std::vector<Index> path;
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const auto& r = results_[i];
      const Index src = sources_[i];
      bool ok = r.parent.size() == static_cast<std::size_t>(n) &&
                r.parent[static_cast<std::size_t>(src)] == src;
      std::fill(level.begin(), level.end(), Index{-1});
      if (ok) level[static_cast<std::size_t>(src)] = 0;
      for (Index v = 0; ok && v < n; ++v) {
        // Walk up to a vertex with a known level, then unwind.
        path.clear();
        Index u = v;
        while (ok && level[static_cast<std::size_t>(u)] < 0 &&
               r.parent[static_cast<std::size_t>(u)] >= 0) {
          path.push_back(u);
          u = r.parent[static_cast<std::size_t>(u)];
          ok = u < n && static_cast<Index>(path.size()) <= n;
        }
        if (!ok) break;
        if (level[static_cast<std::size_t>(u)] < 0) continue;  // unreached
        for (auto it = path.rbegin(); it != path.rend(); ++it) {
          const Index p = r.parent[static_cast<std::size_t>(*it)];
          const auto& b = a_->block(a_->dist().locale_of(p, *it));
          ok = ok && b.csr.find(p - b.rlo, *it) != nullptr;
          level[static_cast<std::size_t>(*it)] =
              level[static_cast<std::size_t>(p)] + 1;
        }
      }
      std::vector<Index> sizes;
      for (Index v = 0; ok && v < n; ++v) {
        const Index k = level[static_cast<std::size_t>(v)];
        if (k < 0) continue;
        if (static_cast<std::size_t>(k) >= sizes.size()) {
          sizes.resize(static_cast<std::size_t>(k) + 1, 0);
        }
        ++sizes[static_cast<std::size_t>(k)];
      }
      ok = ok && sizes == r.level_sizes;
      for (int l = 0; ok && l < grid_->num_locales(); ++l) {
        const auto& b = a_->block(l);
        for (Index lr = 0; ok && lr < b.csr.nrows(); ++lr) {
          const Index ku = level[static_cast<std::size_t>(b.rlo + lr)];
          if (ku < 0) continue;
          for (Index c : b.csr.row_colids(lr)) {
            const Index kv = level[static_cast<std::size_t>(c)];
            if (kv < 0 || kv > ku + 1) {
              ok = false;
              break;
            }
          }
        }
      }
      bad += ok ? 0 : 1;
    }
    return bad;
  }

  pgb::LocaleGrid& grid() override { return *grid_; }
  std::int64_t working_set_bytes() const override { return matrix_bytes(*a_); }
  std::int64_t ops() const override { return n_ops_; }

 private:
  /// Sources from the largest connected component (every member has
  /// nonzero degree): about a third of an R-MAT graph's vertices are
  /// isolated or stranded, and uniform sources would make the per-op
  /// time bimodal.
  void draw_sources() {
    const Index n = a_->nrows();
    std::vector<Index> root(static_cast<std::size_t>(n));
    std::iota(root.begin(), root.end(), Index{0});
    const auto find = [&root](Index v) {
      while (root[static_cast<std::size_t>(v)] != v) {
        auto& rv = root[static_cast<std::size_t>(v)];
        rv = root[static_cast<std::size_t>(rv)];
        v = rv;
      }
      return v;
    };
    for (int l = 0; l < grid_->num_locales(); ++l) {
      const auto& b = a_->block(l);
      for (Index lr = 0; lr < b.csr.nrows(); ++lr) {
        for (Index c : b.csr.row_colids(lr)) {
          const Index x = find(b.rlo + lr), y = find(c);
          if (x != y) root[static_cast<std::size_t>(std::max(x, y))] =
              std::min(x, y);
        }
      }
    }
    std::vector<Index> size(static_cast<std::size_t>(n), 0);
    for (Index v = 0; v < n; ++v) ++size[static_cast<std::size_t>(find(v))];
    const Index main = static_cast<Index>(
        std::max_element(size.begin(), size.end()) - size.begin());
    std::vector<Index> pool;
    for (Index v = 0; v < n; ++v) {
      if (find(v) == main) pool.push_back(v);
    }
    PGB_REQUIRE(pool.size() > 1, "bfs-rmat: graph has no component");
    Rng rng{ops_seed_ ^ 0x13198a2e03707344ull};
    sources_.clear();
    for (std::int64_t i = 0; i < n_ops_; ++i) {
      sources_.push_back(
          pool[static_cast<std::size_t>(rng.below(
              static_cast<Index>(pool.size())))]);
    }
  }

  BfsSize sz_;
  std::uint64_t seed_;    ///< the graph
  std::uint64_t ops_seed_;  ///< the sources
  std::int64_t n_ops_;
  std::vector<Index> sources_;
  std::vector<pgb::BfsResult> results_;
  std::unique_ptr<pgb::LocaleGrid> grid_;
  std::unique_ptr<pgb::DistCsr<std::int64_t>> a_;
};

// ---- serve-ingest ---------------------------------------------------

struct ServeSize {
  Index n;
  int locales;
  double queries_per_second;  ///< host-time sizing of the phase
  /// Open-loop rate, simulated queries/s. A constant of the workload,
  /// measured once when the benchmark was written and never recalibrated:
  /// saturated capacity (200 queries queued at once) was 13.0-14.7 q/s
  /// over seeds 1-6, median 13.7, but only because a full queue fuses
  /// 16-wide batches. At 0.7x of it (9.6 q/s) batches stay ~1 wide, the
  /// queue random-walks and the latency tail grows with run length, so
  /// the rate is 8.0 q/s (0.58x), where queueing is present but stable.
  double arrival_qps;
  double deadline_s;          ///< per-query budget, simulated seconds
};

/// The pgb_serve loop on the public GraphService API, with seeded ingest
/// batches (each followed by a publish) beside an open-loop query stream.
class ServeIngest : public Workload {
 public:
  ServeIngest(const ServeSize& sz, std::uint64_t seed, std::uint64_t stream,
              std::int64_t n_queries)
      : sz_(sz), seed_(seed), ops_seed_(stream), n_queries_(n_queries) {}

  void setup() override {
    grid_ = std::make_unique<pgb::LocaleGrid>(
        pgb::LocaleGrid::square(sz_.locales, kThreadsPerLocale));
    const auto t0 = Clock::now();
    a_ = std::make_unique<pgb::DistCsr<double>>(
        pgb::erdos_renyi_dist<double>(*grid_, sz_.n, kDegree, seed_));
    gen_s = seconds_since(t0);
    prepare();
  }

  /// Fresh service + ingest stream over the generated graph (the service
  /// load and the stream's base replication are part of setup).
  void prepare() override {
    stream_.reset();
    svc_.reset();
    grid_->reset();
    pgb::ServiceConfig cfg;
    cfg.queue_depth = kQueueDepth;
    cfg.batch_max = kBatchMax;
    cfg.spmspv.comm = pgb::CommMode::kAuto;
    svc_ = std::make_unique<pgb::GraphService>(*grid_, cfg);
    h_ = svc_->store().load(std::make_shared<pgb::DistCsr<double>>(*a_));
    stream_ = std::make_unique<pgb::IngestStream>(*grid_, svc_->store(), h_,
                                                  *a_);
  }

  Phase run(Tracer& tr, std::int64_t max_ops) override;
  std::int64_t check() override;

  pgb::LocaleGrid& grid() override { return *grid_; }
  /// The generated graph plus its two resident copies (the service's
  /// published epoch and the ingest stream's base).
  std::int64_t working_set_bytes() const override {
    return 3 * matrix_bytes(*a_);
  }
  std::int64_t ops() const override { return n_queries_; }

 private:
  static constexpr double kDegree = 8.0;
  static constexpr int kTenants = 3;
  static constexpr int kQueueDepth = 64;
  static constexpr int kBatchMax = 16;
  static constexpr int kRetryMax = 3;
  static constexpr int kIngestBatch = 256;  ///< mutations per batch

  struct Event {
    double at = 0.0;   ///< submit time (arrival, or a backoff retry)
    double due = 0.0;  ///< the original arrival
    std::uint64_t seq = 0;
    int attempts = 0;
    pgb::QuerySpec spec;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  /// The seeded mutation stream: one batch per two queries.
  std::vector<pgb::MutationBatch> make_batches(std::int64_t queries) const {
    pgb::MutationRng rng{ops_seed_ * 0xa0761d6478bd642full +
                         0xe7037ed1a0b428dbull};
    pgb::IngestMix mix;
    mix.insert = 9;
    mix.erase = 1;
    std::vector<pgb::MutationBatch> out;
    for (std::int64_t k = 0; k < queries / 2; ++k) {
      out.push_back(pgb::make_mutation_batch(rng, sz_.n, kIngestBatch, mix,
                                             k + 1));
    }
    return out;
  }

  ServeSize sz_;
  std::uint64_t seed_;    ///< the graph
  std::uint64_t ops_seed_;  ///< queries, retries and mutations
  std::int64_t n_queries_;
  std::unique_ptr<pgb::LocaleGrid> grid_;
  std::unique_ptr<pgb::DistCsr<double>> a_;
  std::unique_ptr<pgb::GraphService> svc_;
  pgb::GraphStore::HandleId h_ = 0;
  std::unique_ptr<pgb::IngestStream> stream_;

  std::int64_t queries_run_ = 0;  ///< queries in the last phase
  std::int64_t late_ = 0;         ///< results returned after their deadline
};

Phase ServeIngest::run(Tracer& tr, std::int64_t max_ops) {
  Phase p;
  PhaseClock pc(*grid_, tr);
  const double t_start = grid_->time();
  queries_run_ = std::min(n_queries_, max_ops);
  const std::vector<pgb::MutationBatch> batches = make_batches(queries_run_);

  // Open loop at a fixed rate: query i is due at (i+1)/arrival_qps
  // simulated seconds whatever the service is doing, and ingest batch k
  // at twice that spacing. Every 12 consecutive queries hold the mix
  // bfs:6, sssp:3, pr:1, ego:2 in seeded order. Fixed spacing and a
  // stratified mix keep the seed from moving the queueing delay, so
  // latency percentiles stay comparable across seeds; the seed draws the
  // graph, the order, the sources and the tenants.
  Rng rng{ops_seed_ * 0x9e3779b97f4a7c15ull + 0x5851f42d4c957f2dull};
  Rng retry_rng{ops_seed_ * 0xd1342543de82ef95ull + 0x2545f4914f6cdd1dull};
  std::priority_queue<Event, std::vector<Event>, EventLater> events;
  std::uint64_t seq = 0;
  std::array<Index, 12> block{};
  for (std::int64_t i = 0; i < queries_run_; ++i) {
    if (i % 12 == 0) {
      std::iota(block.begin(), block.end(), Index{0});
      for (Index j = 11; j > 0; --j) {
        std::swap(block[static_cast<std::size_t>(j)],
                  block[static_cast<std::size_t>(rng.below(j + 1))]);
      }
    }
    Event e;
    e.at = e.due =
        t_start + static_cast<double>(i + 1) / sz_.arrival_qps;
    e.seq = seq++;
    const Index w = block[static_cast<std::size_t>(i % 12)];
    e.spec.kind = w < 6    ? pgb::QueryKind::kBfs
                  : w < 9  ? pgb::QueryKind::kSssp
                  : w < 10 ? pgb::QueryKind::kPagerankSubgraph
                           : pgb::QueryKind::kEgoNet;
    e.spec.source = rng.below(sz_.n);
    e.spec.depth = 2;
    e.spec.tenant = static_cast<int>(rng.below(kTenants));
    e.spec.deadline_s = sz_.deadline_s;
    events.push(e);
  }
  std::vector<double> ingest_at;
  for (std::size_t k = 0; k < batches.size(); ++k) {
    ingest_at.push_back(t_start + 2.0 * static_cast<double>(k + 1) /
                                      sz_.arrival_qps);
  }

  late_ = 0;
  std::vector<double> due_of;  // query id -> original arrival
  std::int64_t next_harvest = svc_->records_retired() + svc_->records_live();
  std::size_t next_ingest = 0;
  const auto harvest = [&] {
    Span s(tr, "layer.service.harvest");
    while (next_harvest < svc_->records_retired() + svc_->records_live()) {
      const pgb::QueryRecord& rec = svc_->record(next_harvest);
      if (rec.state == pgb::QueryState::kQueued) break;
      if (rec.state == pgb::QueryState::kDone) {
        ++p.served;
        late_ += rec.completion > rec.deadline ? 1 : 0;
        p.latency_ms.push_back(
            1e3 * (rec.completion - due_of[static_cast<std::size_t>(rec.id)]));
      } else {
        ++p.expired;
      }
      svc_->release(next_harvest);
      ++next_harvest;
    }
  };

  while (!events.empty() || svc_->queue_size() > 0 ||
         next_ingest < batches.size()) {
    const double now = grid_->time();
    // A due ingest batch goes between scheduling rounds; with the service
    // idle, whichever of (next arrival, next batch) is earlier goes first,
    // the server idling until it is due.
    if (next_ingest < batches.size()) {
      const double at = ingest_at[next_ingest];
      const double next_event_at =
          events.empty() ? std::numeric_limits<double>::infinity()
                         : events.top().at;
      if (at <= now || (svc_->queue_size() == 0 && at <= next_event_at)) {
        for (int l = 0; l < grid_->num_locales(); ++l) {
          grid_->clock(l).advance_to(at);
        }
        {
          Span s(tr, "layer.ingest.apply");
          stream_->apply(batches[next_ingest]);
        }
        const double m0 = grid_->time();
        {
          Span s(tr, "layer.ingest.publish");
          stream_->publish();
        }
        p.publish_modeled_ms.push_back(1e3 * (grid_->time() - m0));
        p.publish_lag_ms.push_back(1e3 * (grid_->time() - at));
        ++next_ingest;
        tr.op_done();
        pc.split(p);
        continue;
      }
    }
    while (!events.empty() &&
           (events.top().at <= now || svc_->queue_size() == 0)) {
      Event ev = events.top();
      events.pop();
      pgb::GraphService::Submitted s;
      {
        Span sp(tr, "layer.service.submit");
        s = svc_->submit(h_, ev.spec, ev.at);
      }
      if (s.code == pgb::AdmitCode::kAdmitted) {
        if (due_of.size() <= static_cast<std::size_t>(s.id)) {
          due_of.resize(static_cast<std::size_t>(s.id) + 1, 0.0);
        }
        due_of[static_cast<std::size_t>(s.id)] = ev.due;
      } else if (s.code == pgb::AdmitCode::kQueueFull &&
                 ev.attempts < kRetryMax) {
        // Exponential backoff on the server's hint, jittered (0.75-1.25].
        ev.at = std::max(ev.at, now) + s.retry_after_s *
                                           std::pow(2.0, ev.attempts) *
                                           (0.75 + 0.5 * retry_rng.unit());
        ev.seq = seq++;
        ++ev.attempts;
        events.push(ev);
      } else {
        ++p.shed;
      }
    }
    const auto t0 = Clock::now();
    {
      Span s(tr, "layer.service.step");
      svc_->step();
    }
    p.op_ms.push_back(1e3 * seconds_since(t0));
    harvest();
    tr.op_done();
    pc.split(p);
  }
  harvest();
  pc.close(p);
  p.requests = queries_run_;
  p.failed = p.shed + p.expired;
  p.served -= late_;
  p.outputs = fnv(fnv(fnv(p.outputs, late_), p.shed), p.expired);
  for (double v : p.latency_ms) p.outputs = fnv(p.outputs, v);
  for (double v : p.publish_lag_ms) p.outputs = fnv(p.outputs, v);
  p.outputs = fnv(p.outputs, pgb::ingest_graph_hash(
                                 *svc_->store().snapshot(h_).graph));
  return p;
}

/// The final published graph against an independent serial replay of
/// the same mutation stream over the generated graph (insert overwrites,
/// delete of an absent edge is a no-op), hashed in ingest_graph_hash's
/// layout; plus the deadline contract: no result returned late.
std::int64_t ServeIngest::check() {
  std::vector<std::vector<std::pair<Index, double>>> rows(
      static_cast<std::size_t>(sz_.n));
  for (int l = 0; l < grid_->num_locales(); ++l) {
    const auto& b = a_->block(l);
    for (Index lr = 0; lr < b.csr.nrows(); ++lr) {
      const auto cols = b.csr.row_colids(lr);
      const auto vals = b.csr.row_values(lr);
      auto& row = rows[static_cast<std::size_t>(b.rlo + lr)];
      for (std::size_t k = 0; k < cols.size(); ++k) {
        row.emplace_back(cols[k], vals[k]);
      }
    }
  }
  for (auto& row : rows) std::sort(row.begin(), row.end());
  for (const auto& batch : make_batches(queries_run_)) {
    for (const auto& d : batch.deltas) {
      auto& row = rows[static_cast<std::size_t>(d.row)];
      auto it = std::lower_bound(
          row.begin(), row.end(), d.col,
          [](const std::pair<Index, double>& e, Index c) { return e.first < c; });
      const bool present = it != row.end() && it->first == d.col;
      if (d.op == pgb::DeltaOp::kInsert) {
        if (present) {
          it->second = d.val;
        } else {
          row.insert(it, {d.col, d.val});
        }
      } else if (present) {
        row.erase(it);
      }
    }
  }
  std::uint64_t h = kFnvBasis;
  h = fnv(fnv(h, a_->nrows()), a_->ncols());
  std::vector<Index> rowptr, colids;
  std::vector<double> vals;
  for (int l = 0; l < grid_->num_locales(); ++l) {
    const auto& b = a_->block(l);
    rowptr.assign(1, 0);
    colids.clear();
    vals.clear();
    for (Index r = b.rlo; r < b.rhi; ++r) {
      for (const auto& [c, v] : rows[static_cast<std::size_t>(r)]) {
        if (c < b.clo || c >= b.chi) continue;
        colids.push_back(c);
        vals.push_back(v);
      }
      rowptr.push_back(static_cast<Index>(colids.size()));
    }
    h = pgb::fnv1a_extend(h, rowptr.data(), rowptr.size() * sizeof(Index));
    h = pgb::fnv1a_extend(h, colids.data(), colids.size() * sizeof(Index));
    h = pgb::fnv1a_extend(h, vals.data(), vals.size() * sizeof(double));
  }
  const std::uint64_t got =
      pgb::ingest_graph_hash(*svc_->store().snapshot(h_).graph);
  return (got == h ? 0 : 1) + late_;
}

/// Service and ingest layers; zero on the workloads that do not serve.
void service_ingest_metrics(Report& r, const Phase& p, const HostFold& f) {
  const HostTime submit = f.get("layer.service.submit");
  const HostTime step = f.get("layer.service.step");
  const HostTime apply = f.get("layer.ingest.apply");
  const HostTime publish = f.get("layer.ingest.publish");
  const std::int64_t batches = count(p, "service.batches");
  r.add("service.submit_host_us",
        ratio(submit.incl_us, static_cast<double>(submit.count)), "us");
  r.add("service.step_host_ms",
        ratio(step.incl_us, 1e3 * static_cast<double>(step.count)), "ms");
  r.add("service.batches", static_cast<double>(batches), "count");
  const auto width = p.counts.values.find("service.batch.width");
  r.add("service.fusion_width",
        width == p.counts.values.end()
            ? 0.0
            : ratio(static_cast<double>(width->second.hist_sum),
                    static_cast<double>(width->second.hist_count)),
        "queries/batch");
  r.add("service.shed", static_cast<double>(p.shed), "count");
  r.add("service.expired", static_cast<double>(p.expired), "count");
  r.add("ingest.apply_host_ms",
        ratio(apply.incl_us, 1e3 * static_cast<double>(apply.count)), "ms");
  r.add("ingest.publish_host_ms",
        ratio(publish.incl_us, 1e3 * static_cast<double>(publish.count)),
        "ms");
  r.add("ingest.publish_modeled_ms", mean(p.publish_modeled_ms), "ms");
  r.add("ingest.log_bytes", static_cast<double>(count(p, "ingest.log_bytes")),
        "bytes");
  r.add("ingest.compactions",
        static_cast<double>(count(p, "ingest.compactions")), "count");
  r.add("ingest.publish_lag_p50_ms", median(p.publish_lag_ms), "ms");
  r.add("ingest.publish_lag_tail_ms", tail(p.publish_lag_ms).value, "ms");
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

/// The graph and the ops both come from `seed`; one pass holds a
/// (kSetups x kPasses)-th of the `seconds` of work.
std::unique_ptr<Workload> make_workload(const std::string& name, bool small,
                                        std::uint64_t seed, double seconds) {
  const std::uint64_t stream = seed;
  const auto n_ops = [&](double per_second, std::int64_t floor) {
    return std::max<std::int64_t>(
        floor, std::llround(seconds * per_second / (kSetups * kPasses)));
  };
  if (name == "fig8-spmspv") {
    const Fig8Size sz = small ? Fig8Size{20000, 16, 10.0}
                              : Fig8Size{1000000, 64, 10.0};
    return std::make_unique<Fig8>(sz, seed, stream,
                                  n_ops(sz.ops_per_second, 4));
  }
  if (name == "bfs-rmat-1024") {
    const BfsSize sz = small ? BfsSize{12, 64, 3.0} : BfsSize{16, 1024, 8.0};
    return std::make_unique<BfsRmat>(sz, seed, stream,
                                     n_ops(sz.ops_per_second, 2));
  }
  if (name == "serve-ingest") {
    const ServeSize sz = small ? ServeSize{5000, 16, 12.0, 8.0, 2.0}
                               : ServeSize{100000, 64, 12.0, 8.0, 2.0};
    return std::make_unique<ServeIngest>(sz, seed, stream,
                                         n_ops(sz.queries_per_second, 8));
  }
  throw pgb::InvalidArgument(
      "--workload must be fig8-spmspv, bfs-rmat-1024 or serve-ingest; got '" +
      name + "'");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void end_to_end(Report& r, const Phase& p, double setup_s) {
  const Tail op_tail = tail(p.op_ms);
  const Tail q_tail = tail(p.latency_ms);
  std::printf("op samples: %zu (tail = p%.1f); request samples: %zu "
              "(tail = p%.1f)\n",
              p.op_ms.size(), op_tail.percentile, p.latency_ms.size(),
              q_tail.percentile);
  r.add("setup_s", setup_s, "s");
  r.add("run_s", p.run_s, "s");
  r.add("op_p50_ms", median(p.op_ms), "ms");
  r.add("op_tail_ms", op_tail.value, "ms");
  r.add("modeled_s", p.modeled_s, "s");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  r.add("query_p50_ms", median(p.latency_ms), "ms");
  r.add("query_tail_ms", q_tail.value, "ms");
  r.add("serve_host_qps", ratio(static_cast<double>(p.served), p.run_s),
        "1/s");
  r.add("goodput_qps", ratio(static_cast<double>(p.served), p.modeled_s),
        "1/s");
}

void per_layer(Report& r, const Workload& w, const Phase& base,
               const Phase& traced, const Tracer& tr, int locales) {
  const HostFold& f = tr.fold();
  const double ops = static_cast<double>(base.op_ms.size());
  const auto per_op = [ops](double v) { return ratio(v, ops); };
  r.add("gen.host_s", w.gen_s, "s");
  r.add("sparse.distribute_host_s", w.distribute_s, "s");
  for (const char* ph : {"gather", "local", "scatter", "spa", "sort"}) {
    r.add(std::string("core.spmspv.") + ph + "_host_ms",
          per_op(f.get(std::string("spmspv.") + ph).self_us / 1e3), "ms/op");
  }
  r.add("core.spmspv.gather_modeled_ms", per_op(1e3 * base.gather_modeled_s),
        "ms/op");
  r.add("core.spmspv.local_modeled_ms", per_op(1e3 * base.local_modeled_s),
        "ms/op");
  r.add("core.spmspv.scatter_modeled_ms",
        per_op(1e3 * base.scatter_modeled_s), "ms/op");
  r.add("runtime.comm.messages",
        per_op(static_cast<double>(count(base, "comm.messages"))), "count/op");
  r.add("runtime.comm.bytes",
        per_op(static_cast<double>(count(base, "comm.bytes"))), "bytes/op");
  r.add("runtime.comm.bulks",
        per_op(static_cast<double>(count(base, "comm.bulks"))), "count/op");
  r.add("runtime.agg.flushes",
        per_op(static_cast<double>(count(base, "agg.flushes"))), "count/op");
  const double waves = static_cast<double>(
      count(base, "kernel.calls{kernel=spmspv_dist}") +
      count(base, "kernel.calls{kernel=spmspv_dist_multi}"));
  r.add("runtime.host_us_per_locale_level",
        ratio(1e3 * std::accumulate(base.op_ms.begin(), base.op_ms.end(), 0.0),
              waves * locales),
        "us");
  for (const char* s : {"fine", "bulk", "agg", "replicate"}) {
    r.add(std::string("runtime.inspector.decisions.") + s,
          per_op(static_cast<double>(count(
              base, std::string("inspector.decisions{strategy=") + s + "}"))),
          "count/op");
  }
  const double hits = static_cast<double>(count(base, "inspector.cache.hits"));
  r.add("runtime.inspector.cache_hit_ratio",
        ratio(hits,
              hits + static_cast<double>(
                         count(base, "inspector.cache.installs"))),
        "ratio");
  const bool batched = count(base, "algo.calls{algo=bfs.batch}") > 0;
  const std::string algo = batched ? "bfs.batch" : "bfs";
  r.add("algo.bfs.levels",
        ratio(static_cast<double>(
                  count(base, "algo.iterations{algo=" + algo + "}")),
              static_cast<double>(count(base, "algo.calls{algo=" + algo + "}"))),
        "levels");
  const HostTime lvl = f.get(batched ? "bfs.batch.level" : "bfs.level");
  r.add("algo.bfs.level_host_ms",
        ratio(lvl.incl_us, 1e3 * static_cast<double>(lvl.count)), "ms");
  service_ingest_metrics(r, base, f);
  r.add("obs.export_host_s", tr.export_s(), "s");
  r.add("obs.trace_overhead_frac", traced.run_s / base.run_s - 1.0, "ratio");
  double layer_us = 0.0;
  for (const char* s :
       {"layer.gen.random_vec", "layer.core.spmspv_dist", "layer.algo.bfs",
        "layer.service.submit", "layer.service.step", "layer.service.harvest",
        "layer.ingest.apply", "layer.ingest.publish"}) {
    layer_us += f.get(s).incl_us;
  }
  r.add("bench.layer_span_coverage", ratio(layer_us / 1e6, traced.run_s),
        "ratio");
}

int run(int argc, char** argv) {
  pgb::Cli cli(argc, argv);
  const std::string name = cli.get("workload", "", "workload name");
  const auto seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 1, "input seed"));
  const double seconds =
      cli.get_double("seconds", 10.0, "timed-phase length (sets op count)");
  const std::int64_t trace = cli.get_int(
      "trace", 0, "0 = end-to-end metrics, 1 = traced per-layer metrics");
  const std::string size =
      cli.get("size", "full", "full | small (reduced inputs for tests)");
  const std::string out =
      cli.get("out", "perfbench-out", "directory for the traced run's export");
  cli.finish();
  PGB_REQUIRE(trace == 0 || trace == 1, "--trace must be 0 or 1");
  PGB_REQUIRE(size == "full" || size == "small", "--size must be full or small");
  PGB_REQUIRE(seconds > 0.0 && seconds <= 600.0,
              "--seconds must be in (0, 600]");

  const bool small = size == "small";
  std::printf("workload: %s  seed: %llu  size: %s  trace: %lld\n",
              name.c_str(), static_cast<unsigned long long>(seed),
              size.c_str(), static_cast<long long>(trace));

  Report r;
  std::int64_t bad = 0;
  std::int64_t attempted = 0, failed = 0;
  Phase p;
  std::unique_ptr<Workload> w;
  // Every pass runs the same ops from a reset grid (and on serve-ingest a
  // fresh service), and each set-up rebuilds the inputs from the seed, so
  // all passes of a run must agree bit for bit on everything but host
  // time. Host time does not agree: on a shared host an identical op moved
  // between 60 and 93 ms for stretches of several seconds as neighbours
  // came and went, so the median over a run flipped with how much of it
  // had been slowed. The host metrics therefore come from the fastest
  // passes (the first pass after a set-up also pays allocator and cache
  // warm-up): op i and the stretch of host time that ends with it do the
  // same work in every pass, so each is taken at its fastest over the
  // passes, and run_s is the sum of the fastest stretches. setup_s is the
  // median of the set-ups.
  const auto pass = [&](Tracer& tr, int k) {
    if (k > 0) w->prepare();
    Phase ph = w->run(tr, w->ops());
    attempted += ph.requests;
    failed += ph.failed;
    std::printf("pass: run %.4f s, op p50 %.4f ms\n", ph.run_s,
                median(ph.op_ms));
    return ph;
  };
  std::optional<Phase> fastest;
  const auto keep_min = [&](std::vector<double>& best,
                            const std::vector<double>& v) {
    if (best.size() != v.size()) {
      ++bad;
      return;
    }
    for (std::size_t i = 0; i < v.size(); ++i) best[i] = std::min(best[i], v[i]);
  };
  const auto keep_fastest = [&](Phase ph) {
    if (!fastest) {
      fastest = std::move(ph);
      return;
    }
    if (!same_outcome(*fastest, ph)) ++bad;
    keep_min(fastest->op_ms, ph.op_ms);
    keep_min(fastest->stretch_s, ph.stretch_s);
  };
  const auto take_fastest = [&] {
    Phase ph = std::move(*fastest);
    ph.run_s = std::accumulate(ph.stretch_s.begin(), ph.stretch_s.end(), 0.0);
    return ph;
  };
  if (trace == 0) {
    std::vector<double> setups;
    for (int s = 0; s < kSetups; ++s) {
      w.reset();  // free the previous copy before building the next
      w = make_workload(name, small, seed, seconds);
      const auto t0 = Clock::now();
      w->setup();
      setups.push_back(seconds_since(t0));
      for (int k = 0; k < kPasses; ++k) {
        Tracer off(w->grid());
        keep_fastest(pass(off, k));
      }
    }
    bad += w->check();  // the other passes matched this one's outputs
    p = take_fastest();
    end_to_end(r, p, median(setups));
  } else {
    w = make_workload(name, small, seed, seconds);
    w->setup();
    for (int k = 0; k < kPasses; ++k) {
      Tracer off(w->grid());
      keep_fastest(pass(off, k));
    }
    const Phase base = take_fastest();
    w->prepare();
    Tracer tr(w->grid());
    tr.attach(out, name);
    p = w->run(tr, w->ops());
    attempted += p.requests;
    failed += p.failed;
    bad += w->check();
    // Tracing must not move the modeled outcome.
    if (p.outputs != base.outputs || p.modeled_s != base.modeled_s) ++bad;
    per_layer(r, *w, base, p, tr, w->grid().num_locales());
  }
  const std::int64_t ws = w->working_set_bytes();
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::printf("working set: %.1f MiB resident graph data", ws / 1048576.0);
  if (llc > 0) {
    std::printf(" (%.2fx the %.0f MiB LLC)", static_cast<double>(ws) / llc,
                llc / 1048576.0);
  }
  std::printf("\n");
  std::printf("requests: %lld attempted, %lld failed over all passes "
              "(failed_frac %.4f); output checks failed: %lld\n",
              static_cast<long long>(attempted),
              static_cast<long long>(failed),
              ratio(static_cast<double>(failed + bad),
                    static_cast<double>(attempted)),
              static_cast<long long>(bad));
  const std::string counts = p.counts.json();
  std::printf("digest: %016llx modeled_s=%a counts=%016llx\n",
              static_cast<unsigned long long>(p.outputs), p.modeled_s,
              static_cast<unsigned long long>(
                  pgb::fnv1a_extend(kFnvBasis, counts.data(), counts.size())));
  r.print_lines();
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              bad == 0 ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed + bad), r.json().c_str());
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pgb_perfbench: error: %s\n", e.what());
    return 2;
  }
}
