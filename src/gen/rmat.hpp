// R-MAT (recursive matrix) power-law graph generator, used by the example
// applications (BFS, connected components) for more realistic skewed-degree
// graphs than Erdős–Rényi.
//
// Edge e of the m = edge_factor * 2^scale edges takes draws [e * scale,
// (e + 1) * scale) of one Xoshiro256 stream seeded with `seed`, one draw
// per level, most significant bit first. Edges are generated in chunks on
// the host thread pool, each chunk from its own copy of the stream jumped
// to its first draw (Xoshiro256::advance), so the triples, and their
// order, do not depend on the chunking or the thread count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "runtime/host_pool.hpp"
#include "runtime/locale_grid.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/dist_csr.hpp"
#include "util/rng.hpp"

namespace pgb {

struct RmatParams {
  int scale = 14;          ///< n = 2^scale vertices
  Index edge_factor = 16;  ///< edge_factor * n edges drawn (self-loops dropped)
  double a = 0.57, b = 0.19, c = 0.19;  ///< corner probabilities (d = 1-a-b-c)
  bool symmetric = true;   ///< also add the reverse of every edge
  std::uint64_t seed = 1;
};

/// Throws InvalidArgument unless rmat_coo can honour `p`: scale and
/// edge_factor non-negative, with n = 2^scale, m = edge_factor * n, 2m and
/// the stream position m * scale all within 64 bits; a, b and c not NaN,
/// not negative, and summing to at most 1.
void check_rmat_params(const RmatParams& p);

/// Edge list as COO with unit values, in draw order: each edge that is
/// not a self-loop, followed by its reverse when `symmetric`. Duplicate
/// edges are kept.
template <typename T = std::int64_t>
Coo<T> rmat_coo(const RmatParams& p) {
  check_rmat_params(p);
  constexpr Index kChunkEdges = Index{1} << 15;
  const Index n = Index{1} << p.scale;
  const Index m = p.edge_factor * n;
  const Index per_edge = p.symmetric ? 2 : 1;
  // The quadrant of a draw u: row bit u >= a+b; column bit set in
  // [a, a+b) and [a+b+c, 1). b, c >= 0 keeps the thresholds in order.
  const double ab = p.a + p.b;
  const double abc = p.a + p.b + p.c;
  std::vector<Triple<T>> t(static_cast<std::size_t>(m * per_edge));
  const Index nchunks = (m + kChunkEdges - 1) / kChunkEdges;
  std::vector<Index> kept(static_cast<std::size_t>(nchunks));
  HostPool::instance().run(static_cast<int>(nchunks), [&](int k) {
    const Index lo = k * kChunkEdges;
    const Index hi = std::min(m, lo + kChunkEdges);
    Xoshiro256 rng(p.seed);
    rng.advance(static_cast<std::uint64_t>(lo) *
                static_cast<std::uint64_t>(p.scale));
    Triple<T>* out = t.data() + lo * per_edge;
    Index w = 0;
    for (Index e = lo; e < hi; ++e) {
      Index r = 0, c = 0;
      for (int level = 0; level < p.scale; ++level) {
        const double u = rng.next_double();
        r = (r << 1) | static_cast<Index>(u >= ab);
        c = (c << 1) |
            static_cast<Index>(((u >= p.a) != (u >= ab)) != (u >= abc));
      }
      if (r == c) continue;  // drop self-loops
      out[w++] = Triple<T>{r, c, T(1)};
      if (p.symmetric) out[w++] = Triple<T>{c, r, T(1)};
    }
    kept[static_cast<std::size_t>(k)] = w;
  });
  // Close the self-loop gaps, chunk by chunk in order.
  Index size = 0;
  for (Index k = 0; k < nchunks; ++k) {
    const Triple<T>* from = t.data() + k * kChunkEdges * per_edge;
    if (from != t.data() + size) {
      std::copy(from, from + kept[static_cast<std::size_t>(k)],
                t.data() + size);
    }
    size += kept[static_cast<std::size_t>(k)];
  }
  t.resize(static_cast<std::size_t>(size));
  return Coo<T>(n, n, std::move(t));
}

/// Local CSR adjacency matrix; duplicate edges collapse to one unit entry.
Csr<std::int64_t> rmat_csr(const RmatParams& p);

/// 2-D distributed adjacency matrix: from_coo of rmat_coo. Every value is
/// 1, so keeping the last duplicate gives rmat_csr's entries.
template <typename T = std::int64_t>
DistCsr<T> rmat_dist(LocaleGrid& grid, const RmatParams& p) {
  return DistCsr<T>::from_coo(grid, rmat_coo<T>(p));
}

}  // namespace pgb
