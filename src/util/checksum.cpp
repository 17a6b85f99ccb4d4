#include "util/checksum.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#define EXTNC_CRC_SSE42 1
#else
#define EXTNC_CRC_SSE42 0
#endif

namespace extnc {

namespace {

// Reflected-polynomial table, generated at static-init time (256 entries,
// 1 KB — cheaper than shipping the literal table and impossible to typo).
struct Crc32cTable {
  std::array<std::uint32_t, 256> entry;

  Crc32cTable() {
    constexpr std::uint32_t kPolyReflected = 0x82f63b78u;
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPolyReflected : 0);
      }
      entry[i] = crc;
    }
  }
};

const Crc32cTable& table() {
  static const Crc32cTable t;
  return t;
}

#if EXTNC_CRC_SSE42
// The CRC32 instruction computes exactly the reflected Castagnoli update of
// the table loop (no pre/post inversion of its own), so the two backends
// agree bit for bit on every state and input. One stream, 8 bytes per
// instruction; unaligned words are loaded with memcpy.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_update_sse42(
    std::uint32_t state, std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t len = data.size();
  std::uint64_t crc = state;
  for (; len >= 8; p += 8, len -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  for (; len > 0; ++p, --len) crc32 = _mm_crc32_u8(crc32, *p);
  return crc32;
}
#endif

struct Crc32cBackend {
  const char* name;
  std::uint32_t (*update)(std::uint32_t, std::span<const std::uint8_t>);
};

Crc32cBackend select_backend() {
#if EXTNC_CRC_SSE42
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) {
    return {"sse4.2", &crc32c_update_sse42};
  }
#endif
  return {"table", &crc32c_update_table};
}

const Crc32cBackend& backend() {
  static const Crc32cBackend selected = select_backend();
  return selected;
}

}  // namespace

std::uint32_t crc32c_update_table(std::uint32_t state,
                                  std::span<const std::uint8_t> data) {
  const auto& t = table();
  for (const std::uint8_t byte : data) {
    state = (state >> 8) ^ t.entry[(state ^ byte) & 0xff];
  }
  return state;
}

std::uint32_t crc32c_update(std::uint32_t state,
                            std::span<const std::uint8_t> data) {
  return backend().update(state, data);
}

const char* crc32c_backend() { return backend().name; }

std::uint32_t crc32c(std::span<const std::uint8_t> data) {
  return crc32c_final(crc32c_update(crc32c_init(), data));
}

std::uint64_t digest64(std::span<const std::uint8_t> data,
                       std::uint64_t seed) {
  // FNV-1a 64 over the bytes, then a SplitMix64 finalizer to spread the
  // low-entropy FNV state across all output bits.
  std::uint64_t h = 0xcbf29ce484222325ULL ^ seed;
  for (const std::uint8_t byte : data) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

}  // namespace extnc
