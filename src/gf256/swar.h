// SWAR (SIMD-within-a-register) GF(2^8) multiplication: one coefficient
// byte times a packed word of 4 or 8 field elements.
//
// This is the exact operation the paper's loop-based GPU kernel performs
// per thread ("single byte by 4-byte word GF-multiplication", Sec. 4.1):
// CUDA cores have plain 32-bit ALUs, so each thread multiplies a
// coefficient into one 32-bit word of the source block per step. The
// 64-bit form is the CPU analog that bench/micro_gf256 times.
#pragma once

#include <cstdint>

#include "gf256/gf.h"

namespace extnc::gf256 {

// Per-byte xtime on 4 packed field elements.
constexpr std::uint32_t xtime_packed(std::uint32_t w) {
  const std::uint32_t high_bits = w & 0x80808080u;
  // (high_bits >> 7) has a 0/1 in each byte's LSB; multiplying by 0x1b
  // expands each 1 into the reduction constant without cross-byte carries.
  return ((w & 0x7f7f7f7fu) << 1) ^ ((high_bits >> 7) * kPolyLow);
}

constexpr std::uint64_t xtime_packed(std::uint64_t w) {
  const std::uint64_t high_bits = w & 0x8080808080808080ull;
  return ((w & 0x7f7f7f7f7f7f7f7full) << 1) ^ ((high_bits >> 7) * kPolyLow);
}

// coefficient * packed word, looping over the set bits of the coefficient
// (the paper's "loop-based" multiplication, average ~7 iterations for a
// random nonzero coefficient).
constexpr std::uint32_t mul_byte_word(std::uint8_t c, std::uint32_t w) {
  std::uint32_t result = 0;
  while (c != 0) {
    if (c & 1) result ^= w;
    w = xtime_packed(w);
    c = static_cast<std::uint8_t>(c >> 1);
  }
  return result;
}

constexpr std::uint64_t mul_byte_word(std::uint8_t c, std::uint64_t w) {
  std::uint64_t result = 0;
  while (c != 0) {
    if (c & 1) result ^= w;
    w = xtime_packed(w);
    c = static_cast<std::uint8_t>(c >> 1);
  }
  return result;
}

// Iterations the loop-based multiply executes for this coefficient: the
// position of its highest set bit (0 for c == 0). Used by the GPU timing
// model to charge the same per-coefficient cost the hardware would see.
constexpr int loop_iterations(std::uint8_t c) {
  int bits = 0;
  while (c != 0) {
    ++bits;
    c = static_cast<std::uint8_t>(c >> 1);
  }
  return bits;
}

}  // namespace extnc::gf256
