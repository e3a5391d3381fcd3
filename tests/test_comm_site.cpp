// Golden charging table for every kernel comm site.
//
// Each case runs one distributed kernel on a fresh grid under one comm
// schedule and folds everything the schedule is allowed to influence
// into one FNV-1a hash: the output content, the bits of grid.time(),
// the comm.messages/bytes/bulks and agg.flushes totals, every
// comm.messages{path=*} counter (key set included) and every
// inspector.site.decisions{site=,strategy=} counter. The literals pin
// the charges of the fine, bulk, aggregated and auto schedules on a 4x4
// and a 2x8 grid (the non-square grid catches a swapped pr/pc fanout),
// so a refactor of the comm-site dispatch must reproduce them bit for
// bit. Auto cases run twice on one grid so read-only sites can hit the
// replica cache; the degraded cases remap one logical locale onto its
// buddy before the kernel runs. Every kernel must also produce the same
// output under every schedule.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/assign.hpp"
#include "core/assign_general.hpp"
#include "core/extract.hpp"
#include "core/ops.hpp"
#include "core/spmspv.hpp"
#include "fault/fault.hpp"
#include "fault/replica.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/random_vec.hpp"
#include "obs/trace.hpp"
#include "sparse/coo.hpp"
#include "util/fnv.hpp"

namespace pgb {
namespace {

class Fnv {
 public:
  void bytes(const void* p, std::size_t n) { h_ = fnv1a_extend(h_, p, n); }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void str(const std::string& s) { bytes(s.data(), s.size()); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = kFnvOffsetBasis;
};

template <typename T>
void hash_vec(Fnv& h, const SparseVec<T>& v) {
  h.u64(static_cast<std::uint64_t>(v.capacity()));
  h.u64(static_cast<std::uint64_t>(v.nnz()));
  for (Index p = 0; p < v.nnz(); ++p) {
    h.u64(static_cast<std::uint64_t>(v.index_at(p)));
    h.u64(std::bit_cast<std::uint64_t>(static_cast<double>(v.value_at(p))));
  }
}

template <typename T>
std::uint64_t output_hash(const SparseVec<T>& v) {
  Fnv h;
  hash_vec(h, v);
  return h.value();
}

/// Output hash folded with everything the schedule charged.
std::uint64_t charge_hash(const LocaleGrid& grid, std::uint64_t output) {
  Fnv h;
  h.u64(output);
  h.u64(std::bit_cast<std::uint64_t>(grid.time()));
  const CommStats cs = grid.comm_stats();
  h.u64(static_cast<std::uint64_t>(cs.messages));
  h.u64(static_cast<std::uint64_t>(cs.bytes));
  h.u64(static_cast<std::uint64_t>(cs.bulks));
  h.u64(static_cast<std::uint64_t>(cs.agg_flushes));
  for (const auto& [key, v] : grid.metrics().snapshot().values) {
    if (key.rfind("comm.messages{path=", 0) == 0 ||
        key.rfind("inspector.site.decisions{", 0) == 0) {
      h.str(key);
      h.u64(static_cast<std::uint64_t>(v.counter));
    }
  }
  return h.value();
}

struct Shape {
  int rows;
  int cols;
  const char* name;
};
constexpr Shape kShapes[] = {{4, 4, "4x4"}, {2, 8, "2x8"}};

LocaleGrid make_grid(const Shape& s) {
  return LocaleGrid(GridConfig{.rows = s.rows,
                               .cols = s.cols,
                               .threads_per_locale = 4,
                               .locales_per_node = 1,
                               .model = MachineModel::edison()});
}

/// One schedule variant of a case.
struct Variant {
  const char* name;
  CommMode comm;
  bool collectives = false;
};
const std::vector<Variant> kModes = {{"fine", CommMode::kFine},
                                     {"bulk", CommMode::kBulk},
                                     {"agg", CommMode::kAggregated},
                                     {"auto", CommMode::kAuto}};

SpmspvOptions options(const Variant& v) {
  SpmspvOptions opt;
  opt.comm = v.comm;
  opt.use_collectives = v.collectives;
  return opt;
}

/// Passes a case runs: auto twice (replica-cache hits), fixed once.
int passes(const Variant& v) { return v.comm == CommMode::kAuto ? 2 : 1; }

/// The logical locale the degraded cases remap onto its buddy. On both
/// grids its buddy owns part of its scatter window, so the co-hosted
/// scatter branch runs.
constexpr int kRemapped = 7;

using Golden = std::map<std::string, std::uint64_t>;

/// Runs `kernel(grid, variant)` — which builds its operands, resets the
/// grid and returns the output hash — for every shape x variant, checks
/// each `hash(grid, output)` (by default the charge hash) against
/// `golden` and requires one output per shape across all variants.
template <typename Kernel, typename Hash = decltype(&charge_hash)>
void check_table(const Golden& golden, const std::vector<Variant>& variants,
                 Kernel&& kernel, Hash&& hash = &charge_hash) {
  int checked = 0;
  for (const Shape& s : kShapes) {
    std::uint64_t first_output = 0;
    for (std::size_t i = 0; i < variants.size(); ++i) {
      auto grid = make_grid(s);
      const std::uint64_t out = kernel(grid, variants[i]);
      const std::string key = std::string(s.name) + "/" + variants[i].name;
      const std::uint64_t got = hash(grid, out);
      if (i == 0) first_output = out;
      EXPECT_EQ(out, first_output)
          << key << ": output differs from " << variants[0].name;
      const auto it = golden.find(key);
      if (it == golden.end()) {
        ADD_FAILURE() << "no golden entry for " << key;
        std::printf("      {\"%s\", 0x%016llxull},\n", key.c_str(),
                    static_cast<unsigned long long>(got));
        continue;
      }
      ++checked;
      EXPECT_EQ(got, it->second)
          << key << ": charges moved; got 0x" << std::hex << got;
    }
  }
  EXPECT_EQ(checked, static_cast<int>(golden.size()));
}

constexpr Index kN = 2400;
const auto kSr = arithmetic_semiring<double>();

/// spmspv_dist / spmspv_dist_masked on an ER graph, optionally with one
/// locale remapped onto its buddy.
std::uint64_t run_spmspv(LocaleGrid& g, const Variant& v, bool masked,
                         bool degraded) {
  auto a = erdos_renyi_dist<double>(g, kN, 6.0, 11);
  auto x = random_dist_sparse_vec<double>(g, kN, 240, 12);
  auto mask = random_dist_bool_vec(g, kN, 0.5, 13);
  g.reset();
  if (degraded) {
    g.remap_locale(kRemapped, replica_buddy_of(kRemapped, g.num_locales()));
  }
  const SpmspvOptions opt = options(v);
  std::uint64_t out = 0;
  for (int pass = 0; pass < passes(v); ++pass) {
    auto y = masked ? spmspv_dist_masked(a, x, mask, MaskMode::kComplement,
                                         kSr, opt)
                    : spmspv_dist(a, x, kSr, opt);
    out = output_hash(y.to_local());
  }
  return out;
}

/// spmspv_dist_multi over three lanes, the middle one masked.
std::uint64_t run_multi(LocaleGrid& g, const Variant& v, bool degraded) {
  auto a = erdos_renyi_dist<double>(g, kN, 6.0, 11);
  auto x0 = random_dist_sparse_vec<double>(g, kN, 240, 12);
  auto x1 = random_dist_sparse_vec<double>(g, kN, 90, 14);
  auto x2 = random_dist_sparse_vec<double>(g, kN, 400, 15);
  auto mask = random_dist_bool_vec(g, kN, 0.5, 13);
  g.reset();
  if (degraded) {
    g.remap_locale(kRemapped, replica_buddy_of(kRemapped, g.num_locales()));
  }
  const SpmspvOptions opt = options(v);
  std::uint64_t out = 0;
  for (int pass = 0; pass < passes(v); ++pass) {
    auto ys = spmspv_dist_multi<double, double>(
        a, {&x0, &x1, &x2}, {nullptr, &mask, nullptr}, MaskMode::kComplement,
        kSr, opt);
    Fnv h;
    for (const auto& y : ys) hash_vec(h, y.to_local());
    out = h.value();
  }
  return out;
}

TEST(CommSiteGolden, SpmspvDist) {
  std::vector<Variant> variants = kModes;
  variants.push_back({"coll_fine", CommMode::kFine, true});
  variants.push_back({"coll_agg", CommMode::kAggregated, true});
  variants.push_back({"coll_auto", CommMode::kAuto, true});
  const Golden golden = {
      {"4x4/fine", 0xa980e7c27a8a0b30ull},
      {"4x4/bulk", 0xaa38ef15e65dc4b2ull},
      {"4x4/agg", 0xd3ce1f2a16f4828cull},
      {"4x4/auto", 0xb5278f8092f357e6ull},
      {"4x4/coll_fine", 0xd7b30d026378b8c1ull},
      {"4x4/coll_agg", 0xd7b30d026378b8c1ull},
      {"4x4/coll_auto", 0x9a59d1f62a7d7362ull},
      {"2x8/fine", 0xed287af5b68e70e6ull},
      {"2x8/bulk", 0x15d6743369f731ecull},
      {"2x8/agg", 0xdc91ab69082c4772ull},
      {"2x8/auto", 0x4a8d212d08b43293ull},
      {"2x8/coll_fine", 0xa6466ab849500090ull},
      {"2x8/coll_agg", 0xa6466ab849500090ull},
      {"2x8/coll_auto", 0x4a5a0e5a8cbe78c0ull},
  };
  check_table(golden, variants, [](LocaleGrid& g, const Variant& v) {
    return run_spmspv(g, v, /*masked=*/false, /*degraded=*/false);
  });
}

TEST(CommSiteGolden, SpmspvDistMasked) {
  const Golden golden = {
      {"4x4/fine", 0xb885e19db07a38b9ull},
      {"4x4/bulk", 0x7f54ea3d6a204cd2ull},
      {"4x4/agg", 0xa74270035563fadfull},
      {"4x4/auto", 0x969b137b9a7d0b95ull},
      {"2x8/fine", 0x9dbbaa2357fde904ull},
      {"2x8/bulk", 0xa8977094c9226f33ull},
      {"2x8/agg", 0x4213d2f1f5f86191ull},
      {"2x8/auto", 0xc25de3650ac64015ull},
  };
  check_table(golden, kModes, [](LocaleGrid& g, const Variant& v) {
    return run_spmspv(g, v, /*masked=*/true, /*degraded=*/false);
  });
}

TEST(CommSiteGolden, SpmspvDistMulti) {
  const Golden golden = {
      {"4x4/fine", 0xa109f4caedf2aa25ull},
      {"4x4/bulk", 0xb838e191d7e1a39aull},
      {"4x4/agg", 0x1d839849fa73a539ull},
      {"4x4/auto", 0x4bf0e45d924b6f78ull},
      {"2x8/fine", 0x7b07049e5680d3b8ull},
      {"2x8/bulk", 0x8f049130973047adull},
      {"2x8/agg", 0xf6877fdc19773a96ull},
      {"2x8/auto", 0xe3b7835bfe188226ull},
  };
  check_table(golden, kModes, [](LocaleGrid& g, const Variant& v) {
    return run_multi(g, v, /*degraded=*/false);
  });
}

TEST(CommSiteGolden, DegradedSpmspvDist) {
  const Golden golden = {
      {"4x4/fine", 0x6bd726bd7ea16874ull},
      {"4x4/bulk", 0x134ea06f8ef5db27ull},
      {"4x4/agg", 0xfefb1bc444b21c84ull},
      {"4x4/auto", 0x23da717201bf6ac8ull},
      {"2x8/fine", 0xac1790cf15705f35ull},
      {"2x8/bulk", 0x33e97b02a39d07adull},
      {"2x8/agg", 0x747d0398510b234bull},
      {"2x8/auto", 0x4f18b79b55d65419ull},
  };
  check_table(golden, kModes, [](LocaleGrid& g, const Variant& v) {
    return run_spmspv(g, v, /*masked=*/false, /*degraded=*/true);
  });
}

TEST(CommSiteGolden, DegradedSpmspvDistMulti) {
  const Golden golden = {
      {"4x4/fine", 0x65126a2d3babe5f6ull},
      {"4x4/bulk", 0x70f72cce8f8454f8ull},
      {"4x4/agg", 0xb27ff8846a8e9042ull},
      {"4x4/auto", 0x184f6b5c4c337550ull},
      {"2x8/fine", 0x46056fb0980be658ull},
      {"2x8/bulk", 0xd9ec9a903dbe26b0ull},
      {"2x8/agg", 0x8937647d1ab3213cull},
      {"2x8/auto", 0x6bc5eb077fab7f65ull},
  };
  check_table(golden, kModes, [](LocaleGrid& g, const Variant& v) {
    return run_multi(g, v, /*degraded=*/true);
  });
}

// ---- co-hosted peers are charged like local ones ----------------------
//
// Both tests remap logical locale 1 of a two-locale grid onto host 0, so
// every peer of every initiator is local or co-hosted.

TEST(SpmspvCoHosted, ScatterChargesCoHostedOwnerLikeLocal) {
  // On a 2x1 grid block r's row range is x's owner r (the gather is
  // local) and its output columns span both owners. A diagonal matrix
  // keeps each block's output at home; an anti-diagonal one sends all of
  // it to the other logical locale, which the remap made co-hosted. With
  // the owner charged like a local one, both cost exactly the same under
  // every schedule.
  constexpr Index n = 400;
  auto run = [&](bool anti, CommMode mode) {
    auto g = LocaleGrid(GridConfig{.rows = 2, .cols = 1});
    Coo<double> coo(n, n);
    for (Index i = 0; i < n; ++i) coo.add(anti ? n - 1 - i : i, i, 1.0);
    auto a = DistCsr<double>::from_coo(g, coo);
    std::vector<Index> idx(static_cast<std::size_t>(n));
    for (Index i = 0; i < n; ++i) idx[static_cast<std::size_t>(i)] = i;
    auto x = DistSparseVec<double>::from_sorted(
        g, n, idx, std::vector<double>(static_cast<std::size_t>(n), 2.0));
    g.reset();
    g.remap_locale(1, 0);
    SpmspvOptions opt;
    opt.comm = mode;
    auto y = spmspv_dist(a, x, kSr, opt);
    EXPECT_EQ(y.nnz(), n);
    return std::make_pair(
        g.metrics().counter("runtime.parallel_regions").value, g.time());
  };
  for (const Variant& v : kModes) {
    const auto home = run(false, v.comm);
    const auto away = run(true, v.comm);
    EXPECT_EQ(away.first, home.first) << v.name << ": regions";
    EXPECT_EQ(away.second, home.second) << v.name << ": time";
  }
}

TEST(SpmspvCoHosted, GatherNeverReplicatesCoHostedSource) {
  // On a 1x2 grid every block reads both x owners, one of them co-hosted
  // after the remap. Repeated identical auto waves bind replication, but
  // a co-hosted source is local memory: nothing ships and no replica is
  // installed.
  auto g = LocaleGrid(GridConfig{.rows = 1, .cols = 2});
  auto a = erdos_renyi_dist<double>(g, kN, 6.0, 11);
  auto x = random_dist_sparse_vec<double>(g, kN, 500, 12);
  g.reset();
  g.remap_locale(1, 0);
  SpmspvOptions opt;
  opt.comm = CommMode::kAuto;
  const auto ref = spmspv_dist(a, x, kSr).to_local();
  for (int pass = 0; pass < 8; ++pass) {
    EXPECT_TRUE(spmspv_dist(a, x, kSr, opt).to_local() == ref);
  }
  const auto& mx = g.metrics();
  const obs::Counter* repl = mx.find_counter(
      "inspector.site.decisions",
      {{"site", "spmspv.gather"}, {"strategy", "replicate"}});
  ASSERT_NE(repl, nullptr);
  EXPECT_GT(repl->value, 0);
  const obs::Counter* shipped = mx.find_counter("inspector.replicated_bytes");
  EXPECT_EQ(shipped == nullptr ? 0 : shipped->value, 0);
}

TEST(CommSiteGolden, ExtractCompact) {
  const Golden golden = {
      {"4x4/fine", 0x2f8b12e440cdefd9ull},
      {"4x4/bulk", 0x6217b7dc1a3dc124ull},
      {"4x4/agg", 0x9e54d8480fe4b332ull},
      {"4x4/auto", 0x77e5b94c8bbd8317ull},
      {"2x8/fine", 0x2f8b12e440cdefd9ull},
      {"2x8/bulk", 0x6217b7dc1a3dc124ull},
      {"2x8/agg", 0x9e54d8480fe4b332ull},
      {"2x8/auto", 0x77e5b94c8bbd8317ull},
  };
  check_table(golden, kModes, [](LocaleGrid& g, const Variant& v) {
    auto x = random_dist_sparse_vec<double>(g, kN, 600, 21);
    g.reset();
    std::uint64_t out = 0;
    for (int pass = 0; pass < passes(v); ++pass) {
      out = output_hash(extract_compact(x, 300, 1900, v.comm).to_local());
    }
    return out;
  });
}

TEST(CommSiteGolden, AssignIndexed) {
  const Golden golden = {
      {"4x4/fine", 0xba202675a6766c29ull},
      {"4x4/bulk", 0x04804d0549a73180ull},
      {"4x4/agg", 0x7a6f35140d3e5cf4ull},
      {"4x4/auto", 0x7ab9e03ce773d30aull},
      {"2x8/fine", 0xba202675a6766c29ull},
      {"2x8/bulk", 0x04804d0549a73180ull},
      {"2x8/agg", 0x7a6f35140d3e5cf4ull},
      {"2x8/auto", 0x7ab9e03ce773d30aull},
  };
  check_table(golden, kModes, [](LocaleGrid& g, const Variant& v) {
    constexpr Index kM = 1200;
    auto a = random_dist_sparse_vec<double>(g, kN, 300, 22);
    auto b = random_dist_sparse_vec<double>(g, kM, 400, 23);
    std::vector<Index> map(static_cast<std::size_t>(kM));
    for (Index k = 0; k < kM; ++k) {
      map[static_cast<std::size_t>(k)] = (k * 7 + 3) % kN;  // injective
    }
    g.reset();
    for (int pass = 0; pass < passes(v); ++pass) {
      assign_indexed(a, map, b, OutputMode::kMerge, v.comm);
    }
    return output_hash(a.to_local());
  });
}

TEST(CommSiteGolden, ExtractIndexed) {
  const Golden golden = {
      {"4x4/fine", 0xbecca04185e7e617ull},
      {"4x4/bulk", 0xc19325f75f7a2d26ull},
      {"4x4/agg", 0xd34e88ec4ddcb7b4ull},
      {"4x4/auto", 0xdbbf4598d1cb1a4bull},
      {"2x8/fine", 0xbecca04185e7e617ull},
      {"2x8/bulk", 0xc19325f75f7a2d26ull},
      {"2x8/agg", 0xd34e88ec4ddcb7b4ull},
      {"2x8/auto", 0xdbbf4598d1cb1a4bull},
  };
  check_table(golden, kModes, [](LocaleGrid& g, const Variant& v) {
    auto a = random_dist_sparse_vec<double>(g, kN, 600, 24);
    std::vector<Index> map(1800);
    for (std::size_t k = 0; k < map.size(); ++k) {
      map[k] = static_cast<Index>((k * 37 + 11) % kN);
    }
    g.reset();
    std::uint64_t out = 0;
    for (int pass = 0; pass < passes(v); ++pass) {
      out = output_hash(extract_indexed(a, map, v.comm).to_local());
    }
    return out;
  });
}

TEST(CommSiteGolden, Assign) {
  const Golden golden = {
      {"4x4/fine", 0xf4105cd8d5ccfa66ull},
      {"4x4/bulk", 0x10bff2037722fdf9ull},
      {"4x4/agg", 0x10bff2037722fdf9ull},
      {"4x4/auto", 0x3712e30ac94aaa5cull},
      {"2x8/fine", 0xf4105cd8d5ccfa66ull},
      {"2x8/bulk", 0x10bff2037722fdf9ull},
      {"2x8/agg", 0x10bff2037722fdf9ull},
      {"2x8/auto", 0x3712e30ac94aaa5cull},
  };
  check_table(golden, kModes, [](LocaleGrid& g, const Variant& v) {
    auto a = random_dist_sparse_vec<double>(g, kN, 300, 25);
    auto b = random_dist_sparse_vec<double>(g, kN, 500, 26);
    g.reset();
    for (int pass = 0; pass < passes(v); ++pass) assign(a, b, v.comm);
    return output_hash(a.to_local());
  });
}

// ---- the SpMSpV wave's observables ----
//
// The tables above pin what a wave charges. SpmspvWaveObservables pins
// what an SpMSpV wave records besides, on a detail trace with the comm
// matrix on: the outputs, the clocks, the whole registry (kernel.calls,
// spmspv.multi.width, spmspv.{messages,bytes}{phase=*}, the
// agg.occupancy histograms, ...), every span, instant and counter sample
// in simulated time (the wall-time fields left out) and the comm matrix.

/// The SpMSpV calls the observables table runs.
enum class Wave { kSolo, kMasked, kMulti3, kMulti1, kCollectives, kShed };

/// Folds everything `s` recorded in simulated time into `h`.
void hash_trace(Fnv& h, const obs::TraceSession& s) {
  const auto args = [&](const obs::TraceArgs& as) {
    for (const auto& a : as) {
      h.str(a.key);
      h.str(a.value);
    }
  };
  for (const auto& e : s.spans()) {
    h.str(e.name);
    h.u64(static_cast<std::uint64_t>(e.track));
    h.u64(static_cast<std::uint64_t>(e.depth));
    h.u64(std::bit_cast<std::uint64_t>(e.sim_begin));
    h.u64(std::bit_cast<std::uint64_t>(e.sim_end));
    args(e.args);
  }
  for (const auto& e : s.instants()) {
    h.str(e.name);
    h.u64(static_cast<std::uint64_t>(e.track));
    h.u64(std::bit_cast<std::uint64_t>(e.sim_ts));
    args(e.args);
  }
  for (const auto& c : s.counter_samples()) {
    h.str(c.name);
    h.u64(std::bit_cast<std::uint64_t>(c.sim_ts));
    h.u64(std::bit_cast<std::uint64_t>(c.value));
  }
}

/// Runs `w` on fresh operands with `session` attached and the comm
/// matrix on; returns the output hash.
std::uint64_t run_wave(LocaleGrid& g, const Variant& v, Wave w,
                       obs::TraceSession& session) {
  auto a = erdos_renyi_dist<double>(g, kN, 6.0, 11);
  auto x0 = random_dist_sparse_vec<double>(g, kN, 240, 12);
  auto x1 = random_dist_sparse_vec<double>(g, kN, 90, 14);
  auto x2 = random_dist_sparse_vec<double>(g, kN, 400, 15);
  auto mask = random_dist_bool_vec(g, kN, 0.5, 13);
  g.reset();
  session.clear();
  g.set_trace_session(&session);
  g.enable_comm_matrix();
  SpmspvOptions opt = options(v);
  opt.use_collectives = w == Wave::kCollectives;
  if (w == Wave::kShed) {
    // A straggler record for locale 1's host, made as the Straggler
    // tests make it.
    FaultPlan plan(FaultSpec::parse("stall:locale=1,ms=5"), 1);
    g.set_fault_plan(&plan);
    g.set_straggler_threshold(1e-3);
    g.coforall_locales([&](LocaleCtx& ctx) {
      ctx.remote_msgs((ctx.locale() + 1) % g.num_locales(), 10, 16);
    });
    g.barrier_all();
    g.set_fault_plan(nullptr);
    EXPECT_GE(g.straggler_hits(1), 1);
    opt.straggler_shed = 0.4;
  }
  Fnv h;
  for (int pass = 0; pass < passes(v); ++pass) {
    h = Fnv();
    switch (w) {
      case Wave::kMasked:
        hash_vec(h, spmspv_dist_masked(a, x0, mask, MaskMode::kComplement,
                                       kSr, opt)
                        .to_local());
        break;
      case Wave::kMulti3:
        for (const auto& y : spmspv_dist_multi<double, double>(
                 a, {&x0, &x1, &x2}, {nullptr, &mask, nullptr},
                 MaskMode::kComplement, kSr, opt)) {
          hash_vec(h, y.to_local());
        }
        break;
      case Wave::kMulti1:
        for (const auto& y : spmspv_dist_multi<double, double>(
                 a, {&x0}, {}, MaskMode::kNone, kSr, opt)) {
          hash_vec(h, y.to_local());
        }
        break;
      default:
        hash_vec(h, spmspv_dist(a, x0, kSr, opt).to_local());
        break;
    }
  }
  if (w == Wave::kShed) {
    const auto* shed = g.metrics().find_counter("spmspv.rebalanced");
    EXPECT_TRUE(shed != nullptr && shed->value >= 1);
  }
  return h.value();
}

TEST(CommSiteGolden, SpmspvWaveObservables) {
  obs::TraceSession session(/*detail=*/true);
  const auto observables = [&](LocaleGrid& g, std::uint64_t output) {
    Fnv h;
    h.u64(output);
    h.u64(std::bit_cast<std::uint64_t>(g.time()));
    for (int l = 0; l < g.num_locales(); ++l) {
      h.u64(std::bit_cast<std::uint64_t>(g.clock(l).now()));
    }
    h.str(g.metrics().json());
    hash_trace(h, session);
    h.str(g.comm_matrix_csv());
    return h.value();
  };
  const std::pair<Wave, Golden> cases[] = {
      {Wave::kSolo,
       {
           {"4x4/fine", 0x965edd8a092e8805ull},
           {"4x4/bulk", 0xc5e52a55ce71400aull},
           {"4x4/agg", 0x099a65b3e4540f62ull},
           {"4x4/auto", 0x7352cfdd8080ec8bull},
           {"2x8/fine", 0x337169c435ffbcb5ull},
           {"2x8/bulk", 0xc46e2c1957248b3cull},
           {"2x8/agg", 0x4e700f66c7024444ull},
           {"2x8/auto", 0xfdb9ffefda801e7dull},
       }},
      {Wave::kMasked,
       {
           {"4x4/fine", 0x77c1fad993046644ull},
           {"4x4/bulk", 0x3c2fbdf812b87e4bull},
           {"4x4/agg", 0x7798ddb38ab89aa8ull},
           {"4x4/auto", 0xf933c7958b7e3c5full},
           {"2x8/fine", 0x51800621554568a3ull},
           {"2x8/bulk", 0xa57432d444812ccdull},
           {"2x8/agg", 0x889778177b2f9058ull},
           {"2x8/auto", 0xb1f971e8788defbdull},
       }},
      {Wave::kMulti3,
       {
           {"4x4/fine", 0x7a40e31f113c8e54ull},
           {"4x4/bulk", 0x74865b02a11b2871ull},
           {"4x4/agg", 0xaee4cb10ad427d96ull},
           {"4x4/auto", 0xc30b4412ad9590adull},
           {"2x8/fine", 0xaeb578d682122bebull},
           {"2x8/bulk", 0xe01b8399025fa629ull},
           {"2x8/agg", 0x23af19d364c5f060ull},
           {"2x8/auto", 0xfc6ccd01598da051ull},
       }},
      {Wave::kMulti1,
       {
           {"4x4/fine", 0x68909098e133b443ull},
           {"4x4/bulk", 0xd42ec7e033240df8ull},
           {"4x4/agg", 0x5c9ecef3d7b82dd3ull},
           {"4x4/auto", 0x017271e1217430d9ull},
           {"2x8/fine", 0x2fa10a0cd4e8be75ull},
           {"2x8/bulk", 0xbc5c6027e98f62c4ull},
           {"2x8/agg", 0xf8a0ce6ad9f40f92ull},
           {"2x8/auto", 0xaf8050fdf49eeaccull},
       }},
      {Wave::kCollectives,
       {
           {"4x4/fine", 0x31a392da49326d8aull},
           {"4x4/bulk", 0x31a392da49326d8aull},
           {"4x4/agg", 0x31a392da49326d8aull},
           {"4x4/auto", 0x0d1fe50ca98c04ccull},
           {"2x8/fine", 0xa2dd51dd09fec154ull},
           {"2x8/bulk", 0xa2dd51dd09fec154ull},
           {"2x8/agg", 0xa2dd51dd09fec154ull},
           {"2x8/auto", 0xfff91388f31058d8ull},
       }},
      {Wave::kShed,
       {
           {"4x4/fine", 0x5a93508902099addull},
           {"4x4/bulk", 0x2f6d81404f6653d6ull},
           {"4x4/agg", 0xf73fc98c69c2d96eull},
           {"4x4/auto", 0x6b1c41822c6cf4c9ull},
           {"2x8/fine", 0xb1731d58d63ceea3ull},
           {"2x8/bulk", 0x0769489b22c705a6ull},
           {"2x8/agg", 0xf362d27c45b01347ull},
           {"2x8/auto", 0x7a5e0186efa8294bull},
       }},
  };
  for (const auto& [wave, golden] : cases) {
    SCOPED_TRACE(static_cast<int>(wave));
    check_table(
        golden, kModes,
        [&](LocaleGrid& g, const Variant& v) {
          return run_wave(g, v, wave, session);
        },
        observables);
  }
}

// ---- run-length charges ----
//
// An accumulate initiator charges each run of its sorted output with one
// Scatter::push_count(peer, n). Under every schedule that must charge
// exactly what n single pushes through the serial loop do, and PutCounts
// exactly what a DstAggregator of the same element size does.

struct Elem16 {
  Index j;
  double v;
};

/// One initiator's runs, (peer, n) in push order.
using Runs = std::vector<std::pair<int, std::int64_t>>;

struct RunCase {
  const char* name;
  Runs (*runs)(int l, int n);
  bool collective = false;
  bool remap = false;  ///< logical 5 co-hosted on 4
};

const RunCase kRunCases[] = {
    {"straddle",  // runs across, onto and past capacity boundaries
     [](int l, int n) {
       return Runs{{(l + 1) % n, 5}, {(l + 1) % n, 4}, {(l + 1) % n, 15},
                   {(l + 3) % n, 7}, {(l + 2) % n, 2048},
                   {(l + 2) % n, 2050}, {l, 9}};
     }},
    {"lanes",  // two lanes revisiting the same peers
     [](int l, int n) {
       return Runs{{(l + 1) % n, 5}, {(l + 3) % n, 7}, {l, 6},
                   {(l + 1) % n, 9}, {(l + 3) % n, 1}, {l, 3}};
     }},
    {"cohosted",
     [](int l, int n) { return Runs{{4, 6}, {5, 8}, {(l + 2) % n, 10}}; },
     false, true},
    {"collective",
     [](int l, int n) {
       return Runs{{(l + 1) % n, 5}, {l, 4}, {(l + 1) % n, 8}};
     },
     true},
};

std::string bits_of(double v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  return buf;
}

/// Clock bits, the registry and, when `s` is given, its instants (the
/// detail trace's flush sequence).
std::string grid_state(LocaleGrid& g, const obs::TraceSession* s = nullptr) {
  std::string out;
  for (int l = 0; l < g.num_locales(); ++l) {
    out += bits_of(g.clock(l).now()) + " ";
  }
  out += '\n';
  out += g.metrics().json();
  if (s != nullptr) {
    for (const auto& e : s->instants()) {
      out += e.name + " t" + std::to_string(e.track) + " " +
             bits_of(e.sim_ts);
      for (const auto& a : e.args) out += " " + a.key + "=" + a.value;
      out += "\n";
    }
  }
  return out;
}

TEST(RunLengthCharges, PushCountMatchesSinglePushes) {
  const std::pair<const char*, CommMode> modes[] = {
      {"fine", CommMode::kFine},
      {"bulk", CommMode::kBulk},
      {"agg", CommMode::kAggregated}};
  for (const RunCase& rc : kRunCases) {
    for (const auto& [mode_name, mode] : modes) {
      for (const std::int64_t cap : {1, 7, 2048}) {
        auto run = [&](bool counted) {
          auto g = make_grid(kShapes[0]);
          if (rc.remap) g.remap_locale(5, 4);
          CommSite site(g,
                        {.name = "test.scatter",
                         .shape = SiteShape::kAccumulate,
                         .bytes_each = 16,
                         .fanout = g.rows(),
                         .collective = rc.collective},
                        mode, cap,
                        [](SiteFootprint&) {});
          const int n = g.num_locales();
          if (counted) {
            site.coforall([&](LocaleCtx& ctx) {
              auto out = site.scatter<Elem16>(ctx);
              for (const auto& [peer, k] : rc.runs(ctx.locale(), n)) {
                out.push_count(peer, k);
              }
              out.finish();
            });
          } else {
            g.coforall_locales([&](LocaleCtx& ctx) {
              auto out =
                  site.scatter<Elem16>(ctx, [](int, const Elem16&) {});
              for (const auto& [peer, k] : rc.runs(ctx.locale(), n)) {
                for (std::int64_t i = 0; i < k; ++i) out.push(peer, {});
              }
              out.finish();
            });
          }
          site.end_wave();
          return grid_state(g);
        };
        EXPECT_EQ(run(true), run(false))
            << rc.name << "/" << mode_name << "/cap=" << cap;
      }
    }
  }
}

TEST(RunLengthCharges, PutCountsMatchDstAggregator) {
  for (const RunCase& rc : kRunCases) {
    for (const std::int64_t cap : {1, 7, 2048}) {
      auto run = [&](bool counted, AggregatorStats& stats) {
        auto g = make_grid(kShapes[0]);
        obs::TraceSession session(/*detail=*/true);
        g.set_trace_session(&session);
        if (rc.remap) g.remap_locale(5, 4);
        LocaleCtx ctx(g, 4);
        if (counted) {
          PutCounts agg(ctx, cap, /*contention=*/1.0, sizeof(Elem16));
          for (const auto& [peer, k] : rc.runs(4, g.num_locales())) {
            agg.push(peer, k);
          }
          agg.flush_all();
          stats = agg.stats();
        } else {
          DstAggregator<Elem16> agg(ctx, [](int, std::vector<Elem16>&) {},
                                    cap);
          for (const auto& [peer, k] : rc.runs(4, g.num_locales())) {
            for (std::int64_t i = 0; i < k; ++i) agg.push(peer, {});
          }
          agg.flush_all();
          stats = agg.stats();
        }
        return grid_state(g, &session);
      };
      AggregatorStats a, b;
      const std::string key = std::string(rc.name) + "/cap=" +
                              std::to_string(cap);
      EXPECT_EQ(run(true, a), run(false, b)) << key;
      EXPECT_EQ(a.pushed, b.pushed) << key;
      EXPECT_EQ(a.flushes, b.flushes) << key;
      EXPECT_EQ(a.local_flushes, b.local_flushes) << key;
      EXPECT_EQ(a.messages, b.messages) << key;
      EXPECT_EQ(a.bytes, b.bytes) << key;
      EXPECT_EQ(a.resends, b.resends) << key;
    }
  }
}

// ---- the comm-matrix export of a pooled wave ----
//
// A plan that injects nothing keeps a grid on the serial loop without
// changing a charge, so it is the serial reference for one pooled
// spmspv_dist wave per schedule.

TEST(CommMatrixExport, PooledSpmspvWaveMatchesTheSerialLoop) {
  for (const Variant& v : kModes) {
    auto run = [&](bool serial, std::string& csv) {
      auto g = make_grid(kShapes[1]);
      auto a = erdos_renyi_dist<double>(g, kN, 6.0, 11);
      auto x = random_dist_sparse_vec<double>(g, kN, 240, 12);
      g.reset();
      g.enable_comm_matrix();
      FaultPlan quiet(FaultSpec::parse("drop:p=0"), 1);
      if (serial) g.set_fault_plan(&quiet);
      const std::uint64_t out =
          output_hash(spmspv_dist(a, x, kSr, options(v)).to_local());
      g.set_fault_plan(nullptr);
      const CommStats cs = g.comm_stats();
      EXPECT_EQ(g.comm_matrix_total_messages(), cs.messages) << v.name;
      EXPECT_EQ(g.comm_matrix_total_bytes(), cs.bytes) << v.name;
      EXPECT_GT(cs.messages, 0) << v.name;
      csv = g.comm_matrix_csv();
      std::string clocks;
      for (int l = 0; l < g.num_locales(); ++l) {
        clocks += bits_of(g.clock(l).now()) + " ";
      }
      return g.comm_matrix_json() + clocks + std::to_string(out);
    };
    std::string pooled_csv, serial_csv;
    EXPECT_EQ(run(false, pooled_csv), run(true, serial_csv)) << v.name;
    EXPECT_EQ(pooled_csv, serial_csv) << v.name;
    EXPECT_NE(pooled_csv.find('\n'), pooled_csv.rfind('\n')) << v.name;
  }
}

}  // namespace
}  // namespace pgb
