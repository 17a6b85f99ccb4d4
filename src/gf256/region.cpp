#include "gf256/region.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "gf256/gf.h"

namespace extnc::gf256 {

namespace {

// ---------------------------------------------------------------- scalar

void scalar_add(std::uint8_t* dst, const std::uint8_t* src, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) dst[i] ^= src[i];
}

void scalar_mul(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
                std::size_t len) {
  if (c == 0) {
    if (len != 0) std::memset(dst, 0, len);  // empty span may carry nullptr
    return;
  }
  const std::uint8_t* row = &tables().mul[static_cast<std::size_t>(c) << 8];
  for (std::size_t i = 0; i < len; ++i) dst[i] = row[src[i]];
}

void scalar_mul_add(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
                    std::size_t len) {
  if (c == 0) return;
  const std::uint8_t* row = &tables().mul[static_cast<std::size_t>(c) << 8];
  for (std::size_t i = 0; i < len; ++i) dst[i] ^= row[src[i]];
}

void scalar_scale(std::uint8_t* dst, std::uint8_t c, std::size_t len) {
  if (c == 0) {
    if (len != 0) std::memset(dst, 0, len);  // empty span may carry nullptr
    return;
  }
  if (c == 1) return;
  const std::uint8_t* row = &tables().mul[static_cast<std::size_t>(c) << 8];
  for (std::size_t i = 0; i < len; ++i) dst[i] = row[dst[i]];
}

// The reference for the fused kernel is literally the per-row loop; every
// vector backend must match it byte for byte.
void scalar_mul_add_regions(std::uint8_t* dst,
                            const std::uint8_t* const* srcs,
                            const std::uint8_t* coeffs, std::size_t count,
                            std::size_t len) {
  for (std::size_t j = 0; j < count; ++j) {
    scalar_mul_add(dst, srcs[j], coeffs[j], len);
  }
}

}  // namespace

const Ops& scalar_ops() {
  static constexpr Ops ops{"scalar",     scalar_add,
                           scalar_mul,   scalar_mul_add,
                           scalar_scale, scalar_mul_add_regions};
  return ops;
}

std::string available_backend_list() {
  std::string out;
  for (const Ops* backend : available_backends()) {
    if (!out.empty()) out += ", ";
    out += backend->name;
  }
  return out;
}

const Ops* resolve_backend(std::string_view name, std::string* error) {
  if (name.empty()) return available_backends().front();
  if (const Ops* backend = find_backend(name)) return backend;
  if (error != nullptr) {
    *error = "unknown or unsupported gf256 backend \"";
    *error += name;
    *error += "\"; supported on this host: ";
    *error += available_backend_list();
  }
  return nullptr;
}

const Ops& ops() {
  static const Ops& selected = []() -> const Ops& {
    const char* forced = std::getenv("EXTNC_GF256_BACKEND");
    std::string error;
    const Ops* backend = resolve_backend(forced ? forced : "", &error);
    if (backend == nullptr) {
      // Fail loud (but cleanly): a forced run that silently fell back to
      // another kernel would defeat the forced-backend CI matrix.
      std::fprintf(stderr, "extnc: EXTNC_GF256_BACKEND: %s\n", error.c_str());
      std::exit(1);
    }
    return *backend;
  }();
  return selected;
}

}  // namespace extnc::gf256
