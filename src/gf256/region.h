// Bulk region operations over GF(2^8): the row operations of network
// coding (dst ^= c * src, dst = c * src, dst ^= src, dst *= c) plus the
// fused multi-source kernel dst ^= sum_i c_i * src_i.
//
// One function-pointer dispatch table is selected at startup from the best
// instruction set the host supports. The ladder, best first:
//
//   x86-64:  gfni512 > gfni256 > avx2 > ssse3 > scalar
//   arm64:   neon > scalar
//
// The environment variable EXTNC_GF256_BACKEND forces a specific backend
// process-wide (CI loops the unit tests over every supported name); an
// unknown or unsupported name aborts with the supported set spelled out,
// so a forced run can never silently fall back to a different kernel.
// Tests can also force any backend in-process to cross-check it against
// the scalar reference. All backends accept arbitrary lengths and
// alignments; the vector paths peel unaligned heads/tails (or mask them,
// on AVX-512).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace extnc::gf256 {

struct Ops {
  const char* name;

  // dst[i] ^= src[i]
  void (*add_region)(std::uint8_t* dst, const std::uint8_t* src,
                     std::size_t len);
  // dst[i] = c * src[i]
  void (*mul_region)(std::uint8_t* dst, const std::uint8_t* src,
                     std::uint8_t c, std::size_t len);
  // dst[i] ^= c * src[i]   (the network-coding inner loop)
  void (*mul_add_region)(std::uint8_t* dst, const std::uint8_t* src,
                         std::uint8_t c, std::size_t len);
  // dst[i] = c * dst[i]    (row scaling during Gauss-Jordan)
  void (*scale_region)(std::uint8_t* dst, std::uint8_t c, std::size_t len);
  // dst[i] ^= sum_j coeffs[j] * srcs[j][i]  (the fused encoder/recoder
  // inner loop: all source rows accumulate into dst in one
  // destination-blocked pass, so dst is read once per cache block instead
  // of once per source row; zero coefficients are skipped). Every backend
  // computes the same bytes as `count` sequential mul_add_region calls —
  // XOR accumulation is exact and order-independent.
  void (*mul_add_regions)(std::uint8_t* dst,
                          const std::uint8_t* const* srcs,
                          const std::uint8_t* coeffs, std::size_t count,
                          std::size_t len);
};

// Backend for this process (resolved once): the best available backend,
// unless EXTNC_GF256_BACKEND forces another (see resolve_backend).
const Ops& ops();

// All backends the current machine can run, best first. The scalar backend
// is always present and always last.
const std::vector<const Ops*>& available_backends();

// Every backend name compiled into this build, best first, whether or not
// this host supports it. The single source of truth for tools, tests and
// error messages — new backends appear here automatically.
std::span<const std::string_view> registered_backend_names();

// Comma-separated names of available_backends() (for error messages).
std::string available_backend_list();

// Look up a backend by name (any entry of registered_backend_names());
// nullptr if unknown or unsupported on this host.
const Ops* find_backend(std::string_view name);

// Resolve a backend-forcing request (the EXTNC_GF256_BACKEND contract):
// an empty name selects the best available backend; otherwise the named
// one. Unknown or host-unsupported names return nullptr and, when `error`
// is non-null, fill it with a message enumerating the supported set.
const Ops* resolve_backend(std::string_view name, std::string* error);

// Scalar reference backend (table-driven); used by tests as ground truth.
const Ops& scalar_ops();

}  // namespace extnc::gf256
