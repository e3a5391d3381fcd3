// Per-kernel charge constants.
//
// These encode the *software* overhead per element of Chapel 1.14's
// generic/sparse iterators, on top of the hardware terms (stream bytes,
// random accesses, atomics) that each kernel charges. They were calibrated
// once against the single-thread intercepts of the paper's figures:
//   - Fig 1 left:  Apply over 10M nonzeros,   ~0.15-0.25 s at 1 thread
//   - Fig 2 left:  Assign2 over 1M nonzeros,  ~0.15-0.25 s at 1 thread
//   - Fig 4:       eWiseMult over 100M,       ~6-8 s at 1 thread
//   - Fig 7:       SpMSpV sort dominating SPA and output steps
// A hand-tuned C++ kernel would charge ~5-10 ops per element; Chapel's
// zippered sparse iterators cost an order of magnitude more, and that gap
// is part of what the paper measures.
#pragma once

namespace pgb {

/// forall over one local sparse array (Apply's loop body).
inline constexpr double kApplyOpsPerElem = 36.0;

/// Per-element cost of Assign1's indexed access, *excluding* the
/// binary-search probes (those are charged as kRandAccess = log2(nnz)).
inline constexpr double kAssignLookupOps = 40.0;

/// Assign2's zippered local copy loops (domain pass + value pass each).
inline constexpr double kAssignBulkOps = 60.0;

/// eWiseMult's zipped sparse/dense iteration per x nonzero.
inline constexpr double kEwiseOpsPerElem = 110.0;

/// Extra per-element cost of the prefix-sum (two-pass) eWiseMult variant's
/// counting pass.
inline constexpr double kEwiseScanPassOps = 30.0;

/// eWiseMult output construction (domain bulk-add + value copy) per kept
/// element.
inline constexpr double kEwiseOutputOps = 40.0;

/// SpMSpV SPA phase, per visited matrix nonzero.
inline constexpr double kSpaOpsPerNnz = 80.0;

/// SpMSpV SPA phase, per x nonzero (row fetch bookkeeping).
inline constexpr double kSpaOpsPerRow = 60.0;

/// SpMSpV output phase, per output nonzero.
inline constexpr double kSpmspvOutputOps = 60.0;

/// Dependent round trips of one remote element access through a wide
/// pointer (descriptor fetch + data fetch), no search. Used by Apply1's
/// non-localized forall and SpMSpV's element-wise gather.
inline constexpr double kRemoteElemRts = 2.0;

}  // namespace pgb
