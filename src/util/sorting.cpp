#include "util/sorting.hpp"

#include <algorithm>
#include <array>

namespace pgb {

void merge_sort(std::span<std::int64_t> v) {
  const std::size_t n = v.size();
  if (n < 2) return;
  std::vector<std::int64_t> buf(n);
  std::int64_t* src = v.data();
  std::int64_t* dst = buf.data();
  for (std::size_t width = 1; width < n; width *= 2) {
    for (std::size_t lo = 0; lo < n; lo += 2 * width) {
      const std::size_t mid = std::min(lo + width, n);
      const std::size_t hi = std::min(lo + 2 * width, n);
      std::size_t i = lo, j = mid, k = lo;
      while (i < mid && j < hi) dst[k++] = (src[j] < src[i]) ? src[j++] : src[i++];
      while (i < mid) dst[k++] = src[i++];
      while (j < hi) dst[k++] = src[j++];
    }
    std::swap(src, dst);
  }
  if (src != v.data()) std::copy(src, src + n, v.data());
}

void radix_sort(std::span<std::int64_t> v) {
  const std::size_t n = v.size();
  if (n < 2) return;
  constexpr int kBits = 11;
  constexpr std::size_t kBuckets = std::size_t{1} << kBits;
  constexpr std::uint64_t kMask = kBuckets - 1;

  std::uint64_t maxv = 0;
  for (auto x : v) maxv |= static_cast<std::uint64_t>(x);
  std::vector<std::int64_t> buf(n);
  std::int64_t* src = v.data();
  std::int64_t* dst = buf.data();
  std::array<std::size_t, kBuckets + 1> cnt{};
  for (int shift = 0; (maxv >> shift) != 0; shift += kBits) {
    cnt.fill(0);
    for (std::size_t i = 0; i < n; ++i) {
      ++cnt[((static_cast<std::uint64_t>(src[i]) >> shift) & kMask) + 1];
    }
    for (std::size_t b = 0; b < kBuckets; ++b) cnt[b + 1] += cnt[b];
    for (std::size_t i = 0; i < n; ++i) {
      dst[cnt[(static_cast<std::uint64_t>(src[i]) >> shift) & kMask]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != v.data()) std::copy(src, src + n, v.data());
}

bool is_sorted_ascending(std::span<const std::int64_t> v) {
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i - 1] > v[i]) return false;
  }
  return true;
}

std::vector<std::int64_t> sorted_union(std::span<const std::int64_t> a,
                                       std::span<const std::int64_t> b) {
  std::vector<std::int64_t> out;
  out.reserve(a.size() + b.size());
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      out.push_back(a[i++]);
    } else if (b[j] < a[i]) {
      out.push_back(b[j++]);
    } else {
      out.push_back(a[i]);
      ++i;
      ++j;
    }
  }
  while (i < a.size()) out.push_back(a[i++]);
  while (j < b.size()) out.push_back(b[j++]);
  return out;
}

}  // namespace pgb
