// One comm site's schedule for one wave, and the per-initiator executors
// that charge it.
//
// Every distributed kernel moves data at a few comm *sites*: the SpMSpV
// input gathers and output scatters, the 1-D routes of
// extract_compact/assign_indexed and the indexed pulls of
// extract_indexed. A kernel declares a CommSite per wave with what moves
// there (name, shape, element bytes, fanout, whether the data is
// read-only) and then only says, per initiator, which pieces or elements
// go to which peer. The site owns everything the schedules differ in:
//
//   - resolving the schedule once per wave: a fixed CommMode maps to its
//     strategy; CommMode::kAuto builds the wave's footprint from each
//     initiator's (pairs, elements) load — only then, so fixed modes
//     never pay for that loop — and binds the inspector's decision;
//   - the aggregator capacity (the decision's, under kAuto) and the
//     receiver-side contention (the fanout);
//   - the per-(initiator, peer) charge of every schedule for the four
//     site shapes below, with co-hosted peers (a degraded-mode remap
//     placed them on the initiator's host) treated as local — except
//     that a pull leaves them to the comm funnel;
//   - the replica cache of read-only gathers and pulls;
//   - the dispatch of a wave's initiator bodies (coforall): on the host
//     pool, unless the wave replicates;
//   - reporting each kAuto wave's charged time to Inspector::observe.
//
// Data always moves in-process and the schedules differ only in their
// charging, so outputs are byte-identical across schedules. How the
// data moves depends on the shape:
//
//   - a gather's kernel reads the pieces itself;
//   - a route delivers each element through the kernel's functor as it
//     is pushed, and a pull resolves each request through the kernel's
//     functor (the aggregated schedule from its flushes, in per-peer
//     FIFO order);
//   - an accumulate scatter moves nothing during the wave. Each
//     initiator charges its sorted output one owner run at a time and
//     records where the run lies (Scatter::push_sorted). After the wave
//     every owner reads its runs in initiator order (runs_to), so each
//     of its accumulator slots sees the adds in the order per-element
//     delivery made them, and no body writes another locale's data.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "machine/cost.hpp"
#include "runtime/aggregator.hpp"
#include "runtime/inspector.hpp"
#include "runtime/locale_grid.hpp"

namespace pgb {

/// The communication pattern of a site.
enum class SiteShape {
  /// Each initiator reads known-size pieces from a set of sources (the
  /// SpMSpV input gathers): a size round trip per remote source,
  /// then the piece under the schedule. Read-only pieces may replicate.
  kGather,
  /// Each initiator accumulates elements into their owners' accumulators
  /// (the SpMSpV output scatters). The site also charges the
  /// owner-side accumulate and the per-destination packing.
  kAccumulate,
  /// Each initiator routes records to their owners, which install them
  /// after the wave (extract_compact, assign_indexed, assign).
  kRoute,
  /// Each initiator pulls single elements by index out of their owners'
  /// sorted blocks (extract_indexed): an 8-byte index goes out and
  /// bytes_each - 8 come back. Read-only blocks may replicate.
  kPull,
};

/// What a kernel declares about one comm site.
struct SiteSpec {
  const char* name = "";  ///< inspector site id, e.g. "spmspv.gather"
  SiteShape shape = SiteShape::kRoute;
  std::int64_t bytes_each = 16;  ///< payload bytes per element
  /// Simultaneous requesters per target: the receiver-side contention
  /// every schedule pays.
  int fanout = 1;
  /// Immutable for the whole wave, so a gather or pull may replicate.
  bool read_only = false;
  /// Gather: dependent round trips per element of the fine schedule.
  double chain_rts = 0.0;
  /// Gather: pieces whose sizes share one size round trip (the lanes of
  /// a fused multi-source wave).
  int lanes = 1;
  /// Remote pairs are charged by a collective outside the site
  /// (SpmspvOptions::use_collectives): the site charges local work only.
  bool collective = false;
};

/// One run of an owner-side accumulate: elements [begin, end) of lane
/// `lane` of initiator `from`'s sorted output, all bound for one owner.
struct AccumRun {
  int from = 0;
  int lane = 0;
  Index begin = 0;
  Index end = 0;
};

class CommSite {
 public:
  /// Resolves the wave's schedule. Under kAuto (and no collective),
  /// `load(fp)` adds each initiator's remote load with
  /// SiteFootprint::add_initiator — it may also refine chain_rts or
  /// block_bytes — and the grid's inspector prices the footprint; fixed
  /// modes never call `load`. `agg_capacity` is the aggregator capacity
  /// of the aggregated schedule; under kAuto the decision's replaces it.
  /// The site's aggregators take the fanout as their contention.
  template <typename Load>
  CommSite(LocaleGrid& grid, const SiteSpec& spec, CommMode mode,
           std::int64_t agg_capacity, Load&& load)
      : grid_(grid), spec_(spec), name_(spec.name),
        agg_capacity_(agg_capacity) {
    strategy_ = mode == CommMode::kBulk         ? SiteStrategy::kBulk
                : mode == CommMode::kAggregated ? SiteStrategy::kAggregated
                                                : SiteStrategy::kFine;
    if (mode == CommMode::kAuto && !spec.collective) {
      insp_ = &grid.inspector();
      SiteFootprint fp = footprint();
      load(fp);
      if (spec.shape == SiteShape::kGather) {
        // Replication ships whole pieces.
        fp.block_bytes = fp.bytes_each * fp.max_initiator_elements;
      }
      const SiteDecision d = insp_->decide(name_, fp);
      strategy_ = d.strategy;
      agg_capacity_ = d.agg_capacity;
    }
    if (spec.shape == SiteShape::kAccumulate) {
      sent_.resize(static_cast<std::size_t>(grid.num_locales()));
    }
    t0_ = grid.time();
  }

  CommSite(const CommSite&) = delete;
  CommSite& operator=(const CommSite&) = delete;

  SiteStrategy strategy() const { return strategy_; }

  /// Ends the wave: returns the grid time charged since the site
  /// resolved and, under kAuto, reports it to Inspector::observe.
  double end_wave() {
    const double t = grid_.time() - t0_;
    if (insp_ != nullptr) insp_->observe(name_, t);
    return t;
  }

  /// Runs the wave's initiator bodies: on the host pool
  /// (LocaleGrid::coforall_compute), except for a replicating wave, whose
  /// initiators all read and fill the inspector's replica cache; that one
  /// keeps the serial loop.
  void coforall(const std::function<void(LocaleCtx&)>& body) {
    if (strategy_ == SiteStrategy::kReplicate) {
      grid_.coforall_locales(body);
    } else {
      grid_.coforall_compute(body);
    }
  }

  class Gather;
  class Scatter;
  template <typename Elem, typename Deliver>
  class Route;
  template <typename Req, typename Resolve>
  class Pull;

  /// One initiator's gather (SiteShape::kGather).
  Gather gather(LocaleCtx& ctx);

  /// One initiator's accumulate scatter of Elem-sized elements; it only
  /// charges (SiteShape::kAccumulate).
  template <typename Elem>
  Scatter scatter(LocaleCtx& ctx);

  /// One initiator's route of Elem-sized elements. `deliver(peer, elem)`
  /// performs the write at `peer`.
  template <typename Elem, typename Deliver>
  Route<Elem, Deliver> scatter(LocaleCtx& ctx, Deliver deliver) {
    return Route<Elem, Deliver>(*this, ctx, std::move(deliver));
  }

  /// Groups the runs the wave's initiators recorded by owner. Call once,
  /// after the initiators' dispatch and before the owners read.
  void group_runs() {
    const int n = grid_.num_locales();
    run_start_.assign(static_cast<std::size_t>(n) + 1, 0);
    for (const auto& sent : sent_) {
      for (const SentRun& r : sent) {
        ++run_start_[static_cast<std::size_t>(r.owner) + 1];
      }
    }
    for (int o = 0; o < n; ++o) {
      run_start_[static_cast<std::size_t>(o) + 1] +=
          run_start_[static_cast<std::size_t>(o)];
    }
    runs_.resize(run_start_.back());
    std::vector<std::size_t> next(run_start_.begin(), run_start_.end() - 1);
    for (int from = 0; from < n; ++from) {
      for (const SentRun& r : sent_[static_cast<std::size_t>(from)]) {
        runs_[next[static_cast<std::size_t>(r.owner)]++] =
            AccumRun{from, r.lane, r.begin, r.end};
      }
    }
  }

  /// Owner `owner`'s runs, in initiator order and, per initiator, in
  /// lane order: the order per-element delivery would have added them.
  std::span<const AccumRun> runs_to(int owner) const {
    const auto o = static_cast<std::size_t>(owner);
    return std::span<const AccumRun>(runs_).subspan(
        run_start_[o], run_start_[o + 1] - run_start_[o]);
  }

  /// One initiator's pulls (SiteShape::kPull). `resolve(owner, req)`
  /// looks the request up in the owner's block and stores the result.
  template <typename Req, typename Resolve>
  Pull<Req, Resolve> pull(LocaleCtx& ctx, Resolve resolve) {
    return Pull<Req, Resolve>(*this, ctx, std::move(resolve));
  }

 private:
  static constexpr std::int64_t kPullRequestBytes = 8;

  SiteFootprint footprint() const {
    SiteFootprint fp;
    fp.bytes_each = spec_.bytes_each;
    fp.fanout = static_cast<double>(spec_.fanout);
    fp.chain_rts = spec_.chain_rts;
    fp.read_only = spec_.read_only;
    fp.gather = spec_.shape == SiteShape::kGather ||
                spec_.shape == SiteShape::kPull;
    // The accumulate bulk schedule spawns one packing region per
    // destination; its task-spawn floor is what bulk costs over fine/agg.
    if (spec_.shape == SiteShape::kAccumulate) {
      fp.bulk_pair_overhead = grid_.region_floor();
    }
    return fp;
  }

  bool aggregated() const {
    return strategy_ == SiteStrategy::kAggregated && !spec_.collective;
  }

  /// Receiver-side contention of every schedule: the fanout.
  double contention() const { return static_cast<double>(spec_.fanout); }

  /// A logical peer living on `self_host` after a degraded-mode remap.
  bool co_hosted(int self_host, int peer) const {
    return grid_.membership().remapped() && grid_.host_of(peer) == self_host;
  }

  /// Replica-cache read of `src`'s block (tag `tag`, `bytes` long) from
  /// ctx's host: a hit is free; a miss ships the block once through a
  /// binomial broadcast tree over the fanout readers and installs it.
  void replicate(LocaleCtx& ctx, int src, std::int64_t bytes,
                 std::uint64_t tag) {
    if (insp_->cache_lookup(name_, src, ctx.host(), tag)) return;
    ctx.remote_rt(src, 8);
    ctx.remote_bulk(src, bytes);
    const int depth =
        replication_tree_depth(static_cast<double>(spec_.fanout));
    if (depth > 1) {
      const bool intra = grid_.same_node(ctx.host(), grid_.host_of(src));
      ctx.clock().advance(static_cast<double>(depth - 1) *
                          grid_.net().bulk(bytes, intra, grid_.colocated()));
    }
    insp_->cache_install(name_, src, ctx.host(), tag, bytes);
  }

  /// A run as its initiator records it.
  struct SentRun {
    int owner;
    int lane;
    Index begin;
    Index end;
  };

  LocaleGrid& grid_;
  SiteSpec spec_;
  std::string name_;
  std::int64_t agg_capacity_;
  SiteStrategy strategy_ = SiteStrategy::kFine;
  Inspector* insp_ = nullptr;  ///< non-null under kAuto only
  double t0_ = 0.0;
  /// Accumulate sites: each initiator's runs, written by its body only.
  std::vector<std::vector<SentRun>> sent_;
  std::vector<AccumRun> runs_;         ///< grouped by owner
  std::vector<std::size_t> run_start_;  ///< owner o: [start[o], start[o+1])
};

/// A gather's remote pieces, one call per source. Every schedule builds
/// the initiator's channel, so the agg.* metric family is part of every
/// gathering kernel's key set.
class CommSite::Gather {
 public:
  Gather(CommSite& site, LocaleCtx& ctx)
      : site_(site),
        ctx_(ctx),
        self_host_(ctx.host()),
        chan_(ctx, site.agg_capacity_, site.contention()) {}

  /// Charges reading `elems` elements from `src`. A source that is this
  /// locale or co-hosted with it is local memory and costs nothing here.
  void piece(int src, std::int64_t elems) {
    if (!remote(src)) return;
    PGB_ASSERT(site_.strategy_ != SiteStrategy::kReplicate,
               "replicated gather needs the source block");
    charge(src, elems);
  }

  /// Same, for a read-only source whose whole block `block` (anything
  /// with nnz() and fingerprint()) is what replication ships and caches.
  template <typename Block>
  void piece(int src, std::int64_t elems, const Block& block) {
    if (!remote(src)) return;
    if (site_.strategy_ == SiteStrategy::kReplicate) {
      site_.replicate(ctx_, src, site_.spec_.bytes_each * block.nnz(),
                      block.fingerprint());
      return;
    }
    charge(src, elems);
  }

  /// Joins the channel's in-flight transfers.
  void finish() { chan_.drain(); }

 private:
  bool remote(int src) const {
    return src != ctx_.locale() && !site_.spec_.collective &&
           !site_.co_hosted(self_host_, src);
  }

  void charge(int src, std::int64_t elems) {
    const SiteSpec& s = site_.spec_;
    const auto fanout = static_cast<double>(s.fanout);
    ctx_.remote_rt(src, 8 * s.lanes);  // the pieces' sizes
    switch (site_.strategy_) {
      case SiteStrategy::kAggregated:
        chan_.get_elems(src, elems, s.bytes_each);
        break;
      case SiteStrategy::kBulk:
        // The source serves each of its fanout readers one bulk copy,
        // serially: receiver-side contention scales the transfer.
        ctx_.remote_bulk(src, s.bytes_each * elems * s.fanout);
        break;
      default:
        ctx_.remote_chain(src, elems, s.chain_rts, s.bytes_each, fanout);
        break;
    }
  }

  CommSite& site_;
  LocaleCtx& ctx_;
  int self_host_;
  AggChannel chan_;
};

inline CommSite::Gather CommSite::gather(LocaleCtx& ctx) {
  return Gather(*this, ctx);
}

/// An accumulate scatter's or a route's charges for one initiator.
/// Per-peer counts cover only the span of peers pushed to.
class CommSite::Scatter {
 public:
  Scatter(CommSite& site, LocaleCtx& ctx, std::int64_t elem_bytes)
      : site_(site), ctx_(ctx), self_host_(ctx.host()) {
    if (site.aggregated()) {
      agg_.emplace(ctx, site.agg_capacity_, site.contention(), elem_bytes);
    }
  }

  Scatter(const Scatter&) = delete;
  Scatter& operator=(const Scatter&) = delete;

  /// Charges `n` elements bound for `peer`: the same counts, and the
  /// same aggregator flushes, as n single pushes.
  void push_count(int peer, std::int64_t n) {
    counts_.at(peer) += n;
    if (agg_) agg_->push(peer, n);
  }

  /// Charges lane `lane` of the initiator's sorted output, whose indices
  /// `idx` are owned per `dist`: one push_count per owner run, in index
  /// order. Records each run for the owners (runs_to). Accumulate sites
  /// only; call lanes in ascending order.
  void push_sorted(int lane, std::span<const Index> idx,
                   const BlockDist1D& dist) {
    PGB_ASSERT(site_.spec_.shape == SiteShape::kAccumulate,
               "push_sorted outside an accumulate site");
    auto& sent = site_.sent_[static_cast<std::size_t>(ctx_.locale())];
    const auto n = static_cast<Index>(idx.size());
    for (Index p = 0; p < n;) {
      const int o = dist.owner(idx[static_cast<std::size_t>(p)]);
      const Index e = std::lower_bound(idx.begin() + p, idx.end(),
                                       dist.hi(o)) -
                      idx.begin();
      push_count(o, e - p);
      sent.push_back(SentRun{o, lane, p, e});
      p = e;
    }
  }

  /// Charges the initiator's wave. An accumulate scatter charges the
  /// owner-side accumulate of local and co-hosted owners and each remote
  /// owner's schedule. A route charges `node_work` — the initiator's own
  /// scan — as one region between the aggregated drain and the remote
  /// owners' fine/bulk transfers; co-hosted owners cost it nothing more.
  void finish(const CostVector& node_work = {}) {
    if (agg_) agg_->flush_all();
    if (site_.spec_.shape == SiteShape::kAccumulate) {
      accumulate_charges();
      return;
    }
    ctx_.parallel_region(node_work);
    for (int o = counts_.first(); o < counts_.end(); ++o) {
      const std::int64_t n = counts_.value(o);
      if (n == 0 || o == ctx_.locale() || site_.co_hosted(self_host_, o)) {
        continue;
      }
      wire(o, n);
    }
  }

 private:
  /// Adds the accumulate of `n` elements at a local owner to `c`.
  static void local_accumulate(CostVector& c, std::int64_t n) {
    c.add(CostKind::kRandAccess, static_cast<double>(n));
    c.add(CostKind::kCpuOps, 20.0 * static_cast<double>(n));
  }

  /// Adds the packing of `n` elements bound for one destination to `c`.
  void pack(CostVector& c, std::int64_t n) const {
    c.add(CostKind::kCpuOps, 10.0 * static_cast<double>(n));
    c.add(CostKind::kStreamBytes,
          static_cast<double>(site_.spec_.bytes_each * n));
  }

  /// The fine (one message per element) or bulk (one transfer per
  /// destination) charge for `n` elements to remote owner `o`; each
  /// owner drains fanout senders at once.
  void wire(int o, std::int64_t n) {
    const SiteSpec& s = site_.spec_;
    if (site_.strategy_ == SiteStrategy::kBulk) {
      ctx_.remote_bulk(o, s.bytes_each * n * s.fanout);
    } else if (site_.strategy_ == SiteStrategy::kFine) {
      ctx_.remote_msgs(o, n, s.bytes_each, static_cast<double>(s.fanout));
    }
  }

  void accumulate_charges() {
    const int l = ctx_.locale();
    if (agg_) {
      // One region: local accumulation plus the packing of every remote
      // batch (the flushes already charged the wire).
      CostVector c;
      local_accumulate(c, counts_.value(l));
      for (int o = counts_.first(); o < counts_.end(); ++o) {
        const std::int64_t n = counts_.value(o);
        if (o == l || n == 0) continue;
        if (site_.co_hosted(self_host_, o)) {
          local_accumulate(c, n);
        } else {
          pack(c, n);
        }
      }
      ctx_.parallel_region(c);
      return;
    }
    for (int o = counts_.first(); o < counts_.end(); ++o) {
      const std::int64_t n = counts_.value(o);
      if (n == 0) continue;
      if (o != l && site_.spec_.collective) continue;  // charged outside
      CostVector c;
      if (o == l || site_.co_hosted(self_host_, o)) {
        local_accumulate(c, n);
        ctx_.parallel_region(c);
        continue;
      }
      if (site_.strategy_ == SiteStrategy::kBulk) {
        pack(c, n);
        ctx_.parallel_region(c);
      }
      wire(o, n);
    }
  }

  CommSite& site_;
  LocaleCtx& ctx_;
  int self_host_;
  PeerSpan<std::int64_t> counts_;
  std::optional<PutCounts> agg_;
};

template <typename Elem>
CommSite::Scatter CommSite::scatter(LocaleCtx& ctx) {
  return Scatter(*this, ctx, static_cast<std::int64_t>(sizeof(Elem)));
}

/// A route's elements: each push delivers at once and is charged as a
/// Scatter push_count of one.
template <typename Elem, typename Deliver>
class CommSite::Route {
 public:
  Route(CommSite& site, LocaleCtx& ctx, Deliver deliver)
      : charge_(site, ctx, static_cast<std::int64_t>(sizeof(Elem))),
        deliver_(std::move(deliver)) {}

  void push(int peer, const Elem& e) {
    deliver_(peer, e);
    charge_.push_count(peer, 1);
  }

  void finish(const CostVector& node_work = {}) { charge_.finish(node_work); }

 private:
  Scatter charge_;
  Deliver deliver_;
};

/// An initiator's pulls, one get per requested element. Co-hosted owners
/// are left to the comm funnel, which charges them no wire time.
template <typename Req, typename Resolve>
class CommSite::Pull {
 public:
  Pull(CommSite& site, LocaleCtx& ctx, Resolve resolve)
      : site_(site), ctx_(ctx), resolve_(std::move(resolve)) {
    if (site.aggregated()) {
      agg_.emplace(
          ctx,
          [this](int peer, std::vector<Req>& batch) {
            for (const Req& r : batch) resolve_(peer, r);
          },
          site.agg_capacity_, site.contention(),
          site.spec_.bytes_each - kPullRequestBytes);
    }
  }

  Pull(const Pull&) = delete;
  Pull& operator=(const Pull&) = delete;

  void get(int owner, const Req& r) {
    ++counts_.at(owner);
    if (agg_) {
      agg_->get(owner, r);
    } else {
      resolve_(owner, r);
    }
  }

  /// Charges the initiator's wave: each remote owner's schedule, then
  /// `node_work` plus one binary search per pull into the block it hits
  /// — the local block's, or a replica's — as one region. `block(o)`
  /// returns owner o's sorted block (nnz() and fingerprint()).
  template <typename BlockOf>
  void finish(CostVector node_work, BlockOf&& block) {
    if (agg_) agg_->flush_all();
    const int l = ctx_.locale();
    const SiteSpec& s = site_.spec_;
    add_searches(node_work, block(l).nnz(), counts_.value(l));
    for (int o = counts_.first(); o < counts_.end(); ++o) {
      const std::int64_t n = counts_.value(o);
      if (o == l || n == 0) continue;
      const auto& b = block(o);
      switch (site_.strategy_) {
        case SiteStrategy::kReplicate:
          site_.replicate(ctx_, o, s.bytes_each * b.nnz(), b.fingerprint());
          add_searches(node_work, b.nnz(), n);
          break;
        case SiteStrategy::kFine:
          // Each pull is a dependent binary search into the owner's
          // sorted domain.
          ctx_.remote_chain(o, n,
                            remote_search_rts(static_cast<double>(b.nnz())),
                            s.bytes_each - kPullRequestBytes,
                            static_cast<double>(s.fanout));
          break;
        case SiteStrategy::kBulk:  // the requests out, the responses back
          ctx_.remote_bulk(o, kPullRequestBytes * n * s.fanout);
          ctx_.remote_bulk(o,
                           (s.bytes_each - kPullRequestBytes) * n * s.fanout);
          break;
        case SiteStrategy::kAggregated:
          break;  // the flushes charged themselves
      }
    }
    ctx_.parallel_region(node_work);
  }

 private:
  /// `pulls` binary searches into a sorted block of `nnz` entries.
  static void add_searches(CostVector& c, std::int64_t nnz,
                           std::int64_t pulls) {
    c.add(CostKind::kDependentAccess,
          search_probes(static_cast<double>(nnz)) *
              static_cast<double>(pulls));
  }

  CommSite& site_;
  LocaleCtx& ctx_;
  Resolve resolve_;
  PeerSpan<std::int64_t> counts_;
  std::optional<SrcAggregator<Req>> agg_;
};

}  // namespace pgb
