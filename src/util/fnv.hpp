// FNV-1a, 64-bit: the one byte step behind every checksum and content
// hash in the library, its tools and its tests.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pgb {

/// The published FNV-1a 64-bit offset basis.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
/// The library's basis (checkpoint and delta-log checksums,
/// ingest_graph_hash, the tools' digests): the published basis's decimal
/// digits less the last. Stored checksums and pinned digests depend on it.
inline constexpr std::uint64_t kPgbFnvBasis = 1469598103934665603ull;

/// Extends FNV-1a hash `h` over n more bytes.
inline std::uint64_t fnv1a_extend(std::uint64_t h, const void* data,
                                  std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ull;
  return h;
}

/// FNV-1a over a byte range from the library's basis.
inline std::uint64_t fnv1a(const void* data, std::size_t n) {
  return fnv1a_extend(kPgbFnvBasis, data, n);
}

}  // namespace pgb
