// Sorting kernels used by the GraphBLAS layer.
//
// The paper's SpMSpV sorts the SPA's nonzero index list with Chapel's
// parallel merge sort and observes that sorting dominates; it suggests an
// integer radix sort would be cheaper. The SpMSpV kernels charge either
// sort (merge_sort_cost / radix_sort_cost in core/kernel_costs.hpp) but
// run neither: a SPA built for one output yields its sorted index list
// from its isthere flags (Spa::for_each_sorted) for less. The routines
// here sort where such a walk would not pay — mxm_local's SPA is reset
// per row, so a walk would cost ncols/64 per row — and where no bitmap
// exists, as in sparse-vector construction from unordered pairs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace pgb {

/// Bottom-up merge sort (stable). Sorts `v` in place using a scratch
/// buffer. This mirrors Chapel's mergeSort used in Listing 7.
void merge_sort(std::span<std::int64_t> v);

/// LSD radix sort on non-negative 64-bit integers, 11-bit digits.
/// Values must be >= 0 (sparse indices always are).
void radix_sort(std::span<std::int64_t> v);

/// True if v is sorted ascending.
bool is_sorted_ascending(std::span<const std::int64_t> v);

/// Sorts parallel arrays (idx, val) by idx, stable. Used when building
/// sparse vectors from unordered (index, value) pairs.
template <typename T>
void sort_pairs_by_index(std::vector<std::int64_t>& idx, std::vector<T>& val);

/// Merges two sorted index lists into a sorted union (no duplicates).
std::vector<std::int64_t> sorted_union(std::span<const std::int64_t> a,
                                       std::span<const std::int64_t> b);

// ---- implementation of templates ----

template <typename T>
void sort_pairs_by_index(std::vector<std::int64_t>& idx, std::vector<T>& val) {
  const std::size_t n = idx.size();
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  // Stable sort of the permutation by key; then apply to both arrays.
  std::vector<std::size_t> tmp(n);
  // bottom-up merge on perm
  for (std::size_t width = 1; width < n; width *= 2) {
    for (std::size_t lo = 0; lo < n; lo += 2 * width) {
      const std::size_t mid = std::min(lo + width, n);
      const std::size_t hi = std::min(lo + 2 * width, n);
      std::size_t i = lo, j = mid, k = lo;
      while (i < mid && j < hi) {
        tmp[k++] = (idx[perm[j]] < idx[perm[i]]) ? perm[j++] : perm[i++];
      }
      while (i < mid) tmp[k++] = perm[i++];
      while (j < hi) tmp[k++] = perm[j++];
      for (std::size_t t = lo; t < hi; ++t) perm[t] = tmp[t];
    }
  }
  std::vector<std::int64_t> idx2(n);
  std::vector<T> val2(n);
  for (std::size_t i = 0; i < n; ++i) {
    idx2[i] = idx[perm[i]];
    val2[i] = std::move(val[perm[i]]);
  }
  idx = std::move(idx2);
  val = std::move(val2);
}

}  // namespace pgb
