// SSSE3 / AVX2 region backends (pshufb nibble-table multiplication), the
// GFNI backends (native GF(2^8) multiply at 256- and 512-bit width) and
// the runtime backend registry.
//
// The nibble-table trick: for a fixed coefficient c, precompute
//   lo[i] = c * i          (i = low nibble)
//   hi[i] = c * (i << 4)   (i = high nibble)
// then c * b == lo[b & 0xf] ^ hi[b >> 4], which pshufb evaluates for 16
// (SSSE3) or 32 (AVX2) bytes per instruction. This is the modern
// equivalent of the paper's SSE2 loop-based vectorization, and strictly
// faster. The paper's loop-based multiply lives on in gf256/swar.h for the
// simulated kernels; as a host backend it ran slower than the scalar table
// lookup, so it is not on the ladder.
//
// Every backend also ships a fused mul_add_regions kernel: sources are
// processed in register-resident groups against a destination block that
// stays cache-hot, so the encoder inner loop loads/stores each
// destination vector once per group of sources instead of once per source
// row.
#include <algorithm>
#include <array>
#include <cstring>

#include "gf256/gf.h"
#include "gf256/region.h"
#include "gf256/region_backends.h"

#if defined(__x86_64__) || defined(__i386__)
#define EXTNC_X86 1
#include <immintrin.h>
#else
#define EXTNC_X86 0
#endif

namespace extnc::gf256 {

namespace {

// Destination block that the fused kernels keep cache-resident while
// source groups stream over it (half a typical 64 KiB L1d half / well
// inside any L2, leaving room for one streaming source strip per group
// member).
constexpr std::size_t kFusedBlockBytes = 32 * 1024;

#if EXTNC_X86

struct NibbleTables {
  alignas(16) std::uint8_t lo[16];
  alignas(16) std::uint8_t hi[16];
};

NibbleTables make_nibble_tables(std::uint8_t c) {
  NibbleTables t;
  const std::uint8_t* row = &tables().mul[static_cast<std::size_t>(c) << 8];
  for (int i = 0; i < 16; ++i) {
    t.lo[i] = row[i];
    t.hi[i] = row[i << 4];
  }
  return t;
}

// ----------------------------------------------------------------- SSSE3

__attribute__((target("ssse3"))) inline __m128i mul_block_ssse3(
    __m128i src, __m128i lo, __m128i hi, __m128i low_mask) {
  const __m128i lo_nib = _mm_and_si128(src, low_mask);
  const __m128i hi_nib = _mm_and_si128(_mm_srli_epi64(src, 4), low_mask);
  return _mm_xor_si128(_mm_shuffle_epi8(lo, lo_nib),
                       _mm_shuffle_epi8(hi, hi_nib));
}

__attribute__((target("ssse3"))) void ssse3_add(std::uint8_t* dst,
                                                const std::uint8_t* src,
                                                std::size_t len) {
  std::size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    const __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), _mm_xor_si128(d, s));
  }
  for (; i < len; ++i) dst[i] ^= src[i];
}

__attribute__((target("ssse3"))) void ssse3_mul(std::uint8_t* dst,
                                                const std::uint8_t* src,
                                                std::uint8_t c,
                                                std::size_t len) {
  if (c == 0) {
    if (len != 0) std::memset(dst, 0, len);  // empty span may carry nullptr
    return;
  }
  const NibbleTables t = make_nibble_tables(c);
  const __m128i lo = _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo));
  const __m128i hi = _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi));
  const __m128i low_mask = _mm_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    const __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     mul_block_ssse3(s, lo, hi, low_mask));
  }
  const std::uint8_t* row = &tables().mul[static_cast<std::size_t>(c) << 8];
  for (; i < len; ++i) dst[i] = row[src[i]];
}

__attribute__((target("ssse3"))) void ssse3_mul_add(std::uint8_t* dst,
                                                    const std::uint8_t* src,
                                                    std::uint8_t c,
                                                    std::size_t len) {
  if (c == 0) return;
  const NibbleTables t = make_nibble_tables(c);
  const __m128i lo = _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo));
  const __m128i hi = _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi));
  const __m128i low_mask = _mm_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    const __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(dst + i),
        _mm_xor_si128(d, mul_block_ssse3(s, lo, hi, low_mask)));
  }
  const std::uint8_t* row = &tables().mul[static_cast<std::size_t>(c) << 8];
  for (; i < len; ++i) dst[i] ^= row[src[i]];
}

__attribute__((target("ssse3"))) void ssse3_scale(std::uint8_t* dst,
                                                  std::uint8_t c,
                                                  std::size_t len) {
  ssse3_mul(dst, dst, c, len);
}

__attribute__((target("ssse3"))) void ssse3_mul_add_regions(
    std::uint8_t* dst, const std::uint8_t* const* srcs,
    const std::uint8_t* coeffs, std::size_t count, std::size_t len) {
  constexpr std::size_t kGroup = 8;
  const std::uint8_t* group_src[kGroup];
  const std::uint8_t* group_row[kGroup];
  __m128i group_lo[kGroup];
  __m128i group_hi[kGroup];
  const __m128i low_mask = _mm_set1_epi8(0x0f);
  for (std::size_t base = 0; base < len; base += kFusedBlockBytes) {
    const std::size_t blen = std::min(kFusedBlockBytes, len - base);
    std::size_t next = 0;
    while (next < count) {
      std::size_t m = 0;
      for (; next < count && m < kGroup; ++next) {
        const std::uint8_t c = coeffs[next];
        if (c == 0) continue;
        const NibbleTables t = make_nibble_tables(c);
        group_src[m] = srcs[next] + base;
        group_row[m] = &tables().mul[static_cast<std::size_t>(c) << 8];
        group_lo[m] = _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo));
        group_hi[m] = _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi));
        ++m;
      }
      if (m == 0) continue;  // trailing zero coefficients
      std::uint8_t* out = dst + base;
      std::size_t i = 0;
      for (; i + 16 <= blen; i += 16) {
        __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(out + i));
        for (std::size_t j = 0; j < m; ++j) {
          const __m128i s = _mm_loadu_si128(
              reinterpret_cast<const __m128i*>(group_src[j] + i));
          d = _mm_xor_si128(
              d, mul_block_ssse3(s, group_lo[j], group_hi[j], low_mask));
        }
        _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), d);
      }
      for (; i < blen; ++i) {
        std::uint8_t d = out[i];
        for (std::size_t j = 0; j < m; ++j) d ^= group_row[j][group_src[j][i]];
        out[i] = d;
      }
    }
  }
}

// ------------------------------------------------------------------ AVX2

__attribute__((target("avx2"))) inline __m256i mul_block_avx2(
    __m256i src, __m256i lo, __m256i hi, __m256i low_mask) {
  const __m256i lo_nib = _mm256_and_si256(src, low_mask);
  const __m256i hi_nib = _mm256_and_si256(_mm256_srli_epi64(src, 4), low_mask);
  return _mm256_xor_si256(_mm256_shuffle_epi8(lo, lo_nib),
                          _mm256_shuffle_epi8(hi, hi_nib));
}

__attribute__((target("avx2"))) void avx2_add(std::uint8_t* dst,
                                              const std::uint8_t* src,
                                              std::size_t len) {
  std::size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, s));
  }
  for (; i < len; ++i) dst[i] ^= src[i];
}

__attribute__((target("avx2"))) void avx2_mul(std::uint8_t* dst,
                                              const std::uint8_t* src,
                                              std::uint8_t c, std::size_t len) {
  if (c == 0) {
    if (len != 0) std::memset(dst, 0, len);  // empty span may carry nullptr
    return;
  }
  const NibbleTables t = make_nibble_tables(c);
  const __m256i lo = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo)));
  const __m256i hi = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi)));
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        mul_block_avx2(s, lo, hi, low_mask));
  }
  const std::uint8_t* row = &tables().mul[static_cast<std::size_t>(c) << 8];
  for (; i < len; ++i) dst[i] = row[src[i]];
}

__attribute__((target("avx2"))) void avx2_mul_add(std::uint8_t* dst,
                                                  const std::uint8_t* src,
                                                  std::uint8_t c,
                                                  std::size_t len) {
  if (c == 0) return;
  const NibbleTables t = make_nibble_tables(c);
  const __m256i lo = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo)));
  const __m256i hi = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi)));
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm256_xor_si256(d, mul_block_avx2(s, lo, hi, low_mask)));
  }
  const std::uint8_t* row = &tables().mul[static_cast<std::size_t>(c) << 8];
  for (; i < len; ++i) dst[i] ^= row[src[i]];
}

__attribute__((target("avx2"))) void avx2_scale(std::uint8_t* dst,
                                                std::uint8_t c,
                                                std::size_t len) {
  avx2_mul(dst, dst, c, len);
}

__attribute__((target("avx2"))) void avx2_mul_add_regions(
    std::uint8_t* dst, const std::uint8_t* const* srcs,
    const std::uint8_t* coeffs, std::size_t count, std::size_t len) {
  constexpr std::size_t kGroup = 8;
  const std::uint8_t* group_src[kGroup];
  const std::uint8_t* group_row[kGroup];
  __m256i group_lo[kGroup];
  __m256i group_hi[kGroup];
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  for (std::size_t base = 0; base < len; base += kFusedBlockBytes) {
    const std::size_t blen = std::min(kFusedBlockBytes, len - base);
    std::size_t next = 0;
    while (next < count) {
      std::size_t m = 0;
      for (; next < count && m < kGroup; ++next) {
        const std::uint8_t c = coeffs[next];
        if (c == 0) continue;
        const NibbleTables t = make_nibble_tables(c);
        group_src[m] = srcs[next] + base;
        group_row[m] = &tables().mul[static_cast<std::size_t>(c) << 8];
        group_lo[m] = _mm256_broadcastsi128_si256(
            _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo)));
        group_hi[m] = _mm256_broadcastsi128_si256(
            _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi)));
        ++m;
      }
      if (m == 0) continue;  // trailing zero coefficients
      std::uint8_t* out = dst + base;
      std::size_t i = 0;
      // Paired strips break the per-source XOR dependency chain (see the
      // gfni512 kernel for the reasoning).
      for (; i + 64 <= blen; i += 64) {
        __m256i d0 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + i));
        __m256i d1 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + i + 32));
        for (std::size_t j = 0; j < m; ++j) {
          const __m256i s0 = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(group_src[j] + i));
          const __m256i s1 = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(group_src[j] + i + 32));
          d0 = _mm256_xor_si256(
              d0, mul_block_avx2(s0, group_lo[j], group_hi[j], low_mask));
          d1 = _mm256_xor_si256(
              d1, mul_block_avx2(s1, group_lo[j], group_hi[j], low_mask));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), d0);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 32), d1);
      }
      for (; i + 32 <= blen; i += 32) {
        __m256i d =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + i));
        for (std::size_t j = 0; j < m; ++j) {
          const __m256i s = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(group_src[j] + i));
          d = _mm256_xor_si256(
              d, mul_block_avx2(s, group_lo[j], group_hi[j], low_mask));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), d);
      }
      for (; i < blen; ++i) {
        std::uint8_t d = out[i];
        for (std::size_t j = 0; j < m; ++j) d ^= group_row[j][group_src[j][i]];
        out[i] = d;
      }
    }
  }
}

// -------------------------------------------------------------- GFNI-256
//
// Intel's Galois Field New Instructions multiply bytes directly in
// GF(2^8) with the Rijndael polynomial 0x11b — the very field this paper
// spends its Sec. 5.1 fighting to multiply in. One GF2P8MULB does 32
// multiplications per instruction with no tables at all; this backend is
// the 2020s answer to the problem the 2009 GPU ladder solves. The
// 256-bit variant serves GFNI parts without AVX-512 (and AVX-512 parts
// that downclock on 512-bit ops).

__attribute__((target("gfni,avx2"))) void gfni256_mul(std::uint8_t* dst,
                                                      const std::uint8_t* src,
                                                      std::uint8_t c,
                                                      std::size_t len) {
  if (c == 0) {
    if (len != 0) std::memset(dst, 0, len);  // empty span may carry nullptr
    return;
  }
  const __m256i factor = _mm256_set1_epi8(static_cast<char>(c));
  std::size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_gf2p8mul_epi8(s, factor));
  }
  const std::uint8_t* row = &tables().mul[static_cast<std::size_t>(c) << 8];
  for (; i < len; ++i) dst[i] = row[src[i]];
}

__attribute__((target("gfni,avx2"))) void gfni256_mul_add(
    std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
    std::size_t len) {
  if (c == 0) return;
  const __m256i factor = _mm256_set1_epi8(static_cast<char>(c));
  std::size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm256_xor_si256(d, _mm256_gf2p8mul_epi8(s, factor)));
  }
  const std::uint8_t* row = &tables().mul[static_cast<std::size_t>(c) << 8];
  for (; i < len; ++i) dst[i] ^= row[src[i]];
}

__attribute__((target("gfni,avx2"))) void gfni256_scale(std::uint8_t* dst,
                                                        std::uint8_t c,
                                                        std::size_t len) {
  gfni256_mul(dst, dst, c, len);
}

__attribute__((target("gfni,avx2"))) void gfni256_mul_add_regions(
    std::uint8_t* dst, const std::uint8_t* const* srcs,
    const std::uint8_t* coeffs, std::size_t count, std::size_t len) {
  constexpr std::size_t kGroup = 8;
  const std::uint8_t* group_src[kGroup];
  const std::uint8_t* group_row[kGroup];
  __m256i group_factor[kGroup];
  for (std::size_t base = 0; base < len; base += kFusedBlockBytes) {
    const std::size_t blen = std::min(kFusedBlockBytes, len - base);
    std::size_t next = 0;
    while (next < count) {
      std::size_t m = 0;
      for (; next < count && m < kGroup; ++next) {
        const std::uint8_t c = coeffs[next];
        if (c == 0) continue;
        group_src[m] = srcs[next] + base;
        group_row[m] = &tables().mul[static_cast<std::size_t>(c) << 8];
        group_factor[m] = _mm256_set1_epi8(static_cast<char>(c));
        ++m;
      }
      if (m == 0) continue;  // trailing zero coefficients
      std::uint8_t* out = dst + base;
      std::size_t i = 0;
      // Paired strips break the per-source XOR dependency chain (see the
      // gfni512 kernel for the reasoning).
      for (; i + 64 <= blen; i += 64) {
        __m256i d0 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + i));
        __m256i d1 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + i + 32));
        for (std::size_t j = 0; j < m; ++j) {
          const __m256i s0 = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(group_src[j] + i));
          const __m256i s1 = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(group_src[j] + i + 32));
          d0 = _mm256_xor_si256(d0, _mm256_gf2p8mul_epi8(s0, group_factor[j]));
          d1 = _mm256_xor_si256(d1, _mm256_gf2p8mul_epi8(s1, group_factor[j]));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), d0);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 32), d1);
      }
      for (; i + 32 <= blen; i += 32) {
        __m256i d =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + i));
        for (std::size_t j = 0; j < m; ++j) {
          const __m256i s = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(group_src[j] + i));
          d = _mm256_xor_si256(d, _mm256_gf2p8mul_epi8(s, group_factor[j]));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), d);
      }
      for (; i < blen; ++i) {
        std::uint8_t d = out[i];
        for (std::size_t j = 0; j < m; ++j) d ^= group_row[j][group_src[j][i]];
        out[i] = d;
      }
    }
  }
}

// -------------------------------------------------------------- GFNI-512
//
// The widest host path: 64 GF(2^8) multiplications per instruction via
// VGF2P8MULB against a broadcast coefficient (measurably faster here than
// the equivalent VGF2P8AFFINEQB formulation); AVX-512BW byte masks replace
// the scalar tail loop entirely (arbitrary lengths, no peeling).

__attribute__((target("gfni,avx512f,avx512bw"))) void gfni512_add(
    std::uint8_t* dst, const std::uint8_t* src, std::size_t len) {
  std::size_t i = 0;
  for (; i + 64 <= len; i += 64) {
    const __m512i d = _mm512_loadu_si512(dst + i);
    const __m512i s = _mm512_loadu_si512(src + i);
    _mm512_storeu_si512(dst + i, _mm512_xor_si512(d, s));
  }
  if (i < len) {
    const __mmask64 tail = ~std::uint64_t{0} >> (64 - (len - i));
    const __m512i d = _mm512_maskz_loadu_epi8(tail, dst + i);
    const __m512i s = _mm512_maskz_loadu_epi8(tail, src + i);
    _mm512_mask_storeu_epi8(dst + i, tail, _mm512_xor_si512(d, s));
  }
}

__attribute__((target("gfni,avx512f,avx512bw"))) void gfni512_mul(
    std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
    std::size_t len) {
  if (c == 0) {
    if (len != 0) std::memset(dst, 0, len);  // empty span may carry nullptr
    return;
  }
  const __m512i factor = _mm512_set1_epi8(static_cast<char>(c));
  std::size_t i = 0;
  for (; i + 64 <= len; i += 64) {
    const __m512i s = _mm512_loadu_si512(src + i);
    _mm512_storeu_si512(dst + i, _mm512_gf2p8mul_epi8(s, factor));
  }
  if (i < len) {
    const __mmask64 tail = ~std::uint64_t{0} >> (64 - (len - i));
    const __m512i s = _mm512_maskz_loadu_epi8(tail, src + i);
    _mm512_mask_storeu_epi8(dst + i, tail, _mm512_gf2p8mul_epi8(s, factor));
  }
}

__attribute__((target("gfni,avx512f,avx512bw"))) void gfni512_mul_add(
    std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
    std::size_t len) {
  if (c == 0) return;
  const __m512i factor = _mm512_set1_epi8(static_cast<char>(c));
  std::size_t i = 0;
  for (; i + 64 <= len; i += 64) {
    const __m512i s = _mm512_loadu_si512(src + i);
    const __m512i d = _mm512_loadu_si512(dst + i);
    _mm512_storeu_si512(dst + i,
                        _mm512_xor_si512(d, _mm512_gf2p8mul_epi8(s, factor)));
  }
  if (i < len) {
    const __mmask64 tail = ~std::uint64_t{0} >> (64 - (len - i));
    const __m512i s = _mm512_maskz_loadu_epi8(tail, src + i);
    const __m512i d = _mm512_maskz_loadu_epi8(tail, dst + i);
    _mm512_mask_storeu_epi8(
        dst + i, tail, _mm512_xor_si512(d, _mm512_gf2p8mul_epi8(s, factor)));
  }
}

__attribute__((target("gfni,avx512f,avx512bw"))) void gfni512_scale(
    std::uint8_t* dst, std::uint8_t c, std::size_t len) {
  gfni512_mul(dst, dst, c, len);
}

__attribute__((target("gfni,avx512f,avx512bw"))) void gfni512_mul_add_regions(
    std::uint8_t* dst, const std::uint8_t* const* srcs,
    const std::uint8_t* coeffs, std::size_t count, std::size_t len) {
  constexpr std::size_t kGroup = 8;
  const std::uint8_t* group_src[kGroup];
  __m512i group_factor[kGroup];
  for (std::size_t base = 0; base < len; base += kFusedBlockBytes) {
    const std::size_t blen = std::min(kFusedBlockBytes, len - base);
    std::size_t next = 0;
    while (next < count) {
      std::size_t m = 0;
      for (; next < count && m < kGroup; ++next) {
        const std::uint8_t c = coeffs[next];
        if (c == 0) continue;
        group_src[m] = srcs[next] + base;
        group_factor[m] = _mm512_set1_epi8(static_cast<char>(c));
        ++m;
      }
      if (m == 0) continue;  // trailing zero coefficients
      std::uint8_t* out = dst + base;
      std::size_t i = 0;
      // Two accumulators per iteration: the per-source XOR reduction is a
      // serial dependency chain, so a single accumulator leaves the GF
      // multiply ports idle waiting on it. Pairing strips restores ILP.
      for (; i + 128 <= blen; i += 128) {
        __m512i d0 = _mm512_loadu_si512(out + i);
        __m512i d1 = _mm512_loadu_si512(out + i + 64);
        for (std::size_t j = 0; j < m; ++j) {
          const __m512i s0 = _mm512_loadu_si512(group_src[j] + i);
          const __m512i s1 = _mm512_loadu_si512(group_src[j] + i + 64);
          d0 = _mm512_xor_si512(d0, _mm512_gf2p8mul_epi8(s0, group_factor[j]));
          d1 = _mm512_xor_si512(d1, _mm512_gf2p8mul_epi8(s1, group_factor[j]));
        }
        _mm512_storeu_si512(out + i, d0);
        _mm512_storeu_si512(out + i + 64, d1);
      }
      for (; i + 64 <= blen; i += 64) {
        __m512i d = _mm512_loadu_si512(out + i);
        for (std::size_t j = 0; j < m; ++j) {
          const __m512i s = _mm512_loadu_si512(group_src[j] + i);
          d = _mm512_xor_si512(d, _mm512_gf2p8mul_epi8(s, group_factor[j]));
        }
        _mm512_storeu_si512(out + i, d);
      }
      if (i < blen) {
        const __mmask64 tail = ~std::uint64_t{0} >> (64 - (blen - i));
        __m512i d = _mm512_maskz_loadu_epi8(tail, out + i);
        for (std::size_t j = 0; j < m; ++j) {
          const __m512i s = _mm512_maskz_loadu_epi8(tail, group_src[j] + i);
          d = _mm512_xor_si512(d, _mm512_gf2p8mul_epi8(s, group_factor[j]));
        }
        _mm512_mask_storeu_epi8(out + i, tail, d);
      }
    }
  }
}

const Ops kSsse3Ops{"ssse3",     ssse3_add,
                    ssse3_mul,   ssse3_mul_add,
                    ssse3_scale, ssse3_mul_add_regions};
const Ops kAvx2Ops{"avx2",     avx2_add,
                   avx2_mul,   avx2_mul_add,
                   avx2_scale, avx2_mul_add_regions};
const Ops kGfni256Ops{"gfni256",     avx2_add,
                      gfni256_mul,   gfni256_mul_add,
                      gfni256_scale, gfni256_mul_add_regions};
const Ops kGfni512Ops{"gfni512",     gfni512_add,
                      gfni512_mul,   gfni512_mul_add,
                      gfni512_scale, gfni512_mul_add_regions};

#endif  // EXTNC_X86

// Every name compiled into any build, in ladder order. find_backend and
// the error paths enumerate from here (and from available_backends()), so
// adding a backend updates every tool and message automatically.
constexpr std::array<std::string_view, 6> kRegisteredNames = {
    "gfni512", "gfni256", "avx2", "ssse3", "neon", "scalar"};

std::vector<const Ops*> detect_backends() {
  std::vector<const Ops*> backends;
#if EXTNC_X86
  __builtin_cpu_init();
  const bool gfni = __builtin_cpu_supports("gfni");
  if (gfni && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512f")) {
    backends.push_back(&kGfni512Ops);
  }
  if (gfni && __builtin_cpu_supports("avx2")) {
    backends.push_back(&kGfni256Ops);
  }
  if (__builtin_cpu_supports("avx2")) backends.push_back(&kAvx2Ops);
  if (__builtin_cpu_supports("ssse3")) backends.push_back(&kSsse3Ops);
#endif
  if (const Ops* neon = neon_backend()) backends.push_back(neon);
  backends.push_back(&scalar_ops());
  return backends;
}

}  // namespace

const std::vector<const Ops*>& available_backends() {
  static const std::vector<const Ops*> backends = detect_backends();
  return backends;
}

std::span<const std::string_view> registered_backend_names() {
  return kRegisteredNames;
}

const Ops* find_backend(std::string_view name) {
  for (const Ops* backend : available_backends()) {
    if (backend->name == name) return backend;
  }
  return nullptr;
}

}  // namespace extnc::gf256
