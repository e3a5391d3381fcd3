// Deterministic random number generation.
//
// All workload generators in pgas-graphblas derive their streams from
// SplitMix64 / Xoshiro256** seeded explicitly, so every experiment is
// reproducible bit-for-bit across runs and platforms, and generation can
// be sharded per row / per locale without coordination (each shard seeds
// its own stream from (seed, shard_id)). A generator that draws one
// stream in order can still be split into chunks: each chunk's copy of
// the stream jumps to its first draw with Xoshiro256::advance.
#pragma once

#include <cstdint>

namespace pgb {

/// SplitMix64: tiny, fast, passes BigCrush; used to expand seeds.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256**: the main generator for bulk sampling.
class Xoshiro256 {
 public:
  /// Seeds the four words from SplitMix64(seed), as recommended by the
  /// generator's authors.
  explicit Xoshiro256(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& w : s_) w = sm.next();
  }

  /// Convenience: derive an independent stream for a shard (row, locale...).
  Xoshiro256(std::uint64_t seed, std::uint64_t shard)
      : Xoshiro256(mix(seed, shard)) {}

  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    step(s_);
    return result;
  }

  /// Skips the next n draws: the stream continues exactly as after n
  /// calls to next(). The state step is linear over GF(2), so this
  /// multiplies the state by the powers T^(2^k) of its 256x256 bit matrix
  /// for the set bits of n: at most 64 matrix-vector products, none of
  /// the skipped draws. The 64 powers (512 KiB) are built once per
  /// process, on the first call, in a few milliseconds.
  void advance(std::uint64_t n);

  /// Uniform in [0, bound). Uses Lemire's multiply-shift reduction
  /// (negligible modulo bias for bound << 2^64, fine for workload gen).
  std::uint64_t next_below(std::uint64_t bound) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// True with probability p.
  bool next_bernoulli(double p) { return next_double() < p; }

  static std::uint64_t mix(std::uint64_t seed, std::uint64_t shard) {
    SplitMix64 sm(seed ^ (0x9E3779B97F4A7C15ULL * (shard + 1)));
    return sm.next();
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  struct JumpTable;

  /// The state transition behind every draw.
  static void step(std::uint64_t (&s)[4]) {
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
  }

  std::uint64_t s_[4];
};

}  // namespace pgb
