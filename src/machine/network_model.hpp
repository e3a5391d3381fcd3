// The network half of the simulator: an alpha-beta (latency-bandwidth)
// model of the Aries interconnect plus the software costs of Chapel/GASNet
// fine-grained remote access, which the paper identifies as the dominant
// distributed-memory bottleneck.
#pragma once

#include <cmath>
#include <cstdint>

#include "machine/machine_model.hpp"

namespace pgb {

class NetworkModel {
 public:
  explicit NetworkModel(const NetParams& p) : p_(p) {}

  const NetParams& params() const { return p_; }

  /// One-way message carrying `bytes` between two locales.
  /// `intra_node` selects the shared-memory path (co-located locales);
  /// `colocated` scales software latency by AM-handler contention.
  double message(std::int64_t bytes, bool intra_node, int colocated) const;

  /// A blocking round trip (request + reply carrying `bytes` back).
  double round_trip(std::int64_t bytes, bool intra_node, int colocated) const;

  /// `count` *independent* small messages issued by one locale, overlapped
  /// up to max_outstanding (e.g. the distributed SpMSpV scatter of Listing
  /// 8, one element at a time).
  double overlapped_messages(std::int64_t count, std::int64_t bytes_each,
                             bool intra_node, int colocated) const;

  /// `count` *dependent* element accesses, each costing `rts_per_elem`
  /// serialized round trips (e.g. a remote binary search into a sorted
  /// sparse domain: ~log2(nnz) dependent probes). This is the mechanism
  /// behind Apply1/Assign1's distributed-memory collapse.
  double dependent_chain(std::int64_t count, double rts_per_elem,
                         std::int64_t bytes_each, bool intra_node,
                         int colocated) const;

  /// Bulk transfer of `bytes` (one large put/get).
  double bulk(std::int64_t bytes, bool intra_node, int colocated) const;

  /// Spawning a task on a remote locale (coforall ... on). The initiator
  /// pays this per target, serialized (Chapel 1.14's on-statement spawn).
  double fork(bool intra_node, int colocated) const;

  /// Barrier across `locales` participants.
  double barrier(int locales) const;

 private:
  double alpha(bool intra_node, int colocated) const;
  double beta(bool intra_node) const;

  NetParams p_;
};

/// Probes of one binary search into a sorted sparse domain of `nnz`
/// entries (at least one).
inline double search_probes(double nnz) {
  return nnz > 1.0 ? std::ceil(std::log2(nnz)) : 1.0;
}

/// Dependent round trips of one remote *indexed* access into a sparse
/// domain/array of nnz entries: the binary-search probes plus a
/// descriptor fetch and the final element access. Used by Assign1 in
/// distributed memory and by the fine schedule of indexed pulls.
inline double remote_search_rts(double local_nnz) {
  return search_probes(local_nnz) + 2.0;
}

}  // namespace pgb
