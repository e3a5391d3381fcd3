#include "util/rng.hpp"

#include <array>
#include <bit>
#include <vector>

namespace pgb {

namespace {

using Word4 = std::array<std::uint64_t, 4>;

void xor_into(Word4& y, const Word4& x) {
  y[0] ^= x[0];
  y[1] ^= x[1];
  y[2] ^= x[2];
  y[3] ^= x[3];
}

/// A 256x256 matrix over GF(2), stored by columns: col[j] is the image of
/// the state with only bit j (word j / 64, bit j % 64) set.
using BitMatrix = std::array<Word4, 256>;

/// m * x: the XOR of the columns that x's set bits select.
Word4 apply(const BitMatrix& m, const Word4& x) {
  Word4 y{};
  for (int j = 0; j < 256; ++j) {
    const std::uint64_t take = 0 - ((x[j / 64] >> (j % 64)) & 1);
    for (int w = 0; w < 4; ++w) y[w] ^= m[j][w] & take;
  }
  return y;
}

/// m * m, by the method of four Russians: a table of the XORs of every
/// subset of each 8 consecutive columns turns each product column into
/// 32 lookups.
void square(const BitMatrix& m, BitMatrix& out, std::vector<Word4>& subsets) {
  subsets.assign(32 * 256, Word4{});
  for (int g = 0; g < 32; ++g) {
    Word4* t = &subsets[static_cast<std::size_t>(g) * 256];
    for (int v = 1; v < 256; ++v) {
      const Word4& col = m[g * 8 + std::countr_zero(static_cast<unsigned>(v))];
      t[v] = t[v & (v - 1)];
      xor_into(t[v], col);
    }
  }
  for (int j = 0; j < 256; ++j) {
    Word4 y{};
    for (int g = 0; g < 32; ++g) {
      const unsigned byte = (m[j][g / 8] >> (8 * (g % 8))) & 0xff;
      xor_into(y, subsets[static_cast<std::size_t>(g) * 256 + byte]);
    }
    out[j] = y;
  }
}

}  // namespace

/// powers[k] = T^(2^k), where T is the matrix of Xoshiro256::step.
struct Xoshiro256::JumpTable {
  JumpTable() {
    for (int j = 0; j < 256; ++j) {
      std::uint64_t s[4] = {0, 0, 0, 0};
      s[j / 64] = std::uint64_t{1} << (j % 64);
      step(s);
      powers[0][j] = Word4{s[0], s[1], s[2], s[3]};
    }
    std::vector<Word4> subsets;
    for (int k = 1; k < 64; ++k) square(powers[k - 1], powers[k], subsets);
  }

  std::array<BitMatrix, 64> powers;
};

void Xoshiro256::advance(std::uint64_t n) {
  static const JumpTable table;
  Word4 x{s_[0], s_[1], s_[2], s_[3]};
  for (int k = 0; n != 0; ++k, n >>= 1) {
    if (n & 1) x = apply(table.powers[k], x);
  }
  for (int w = 0; w < 4; ++w) s_[w] = x[w];
}

}  // namespace pgb
