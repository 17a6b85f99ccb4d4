// Integrity primitives for the wire layer.
//
// crc32c: the Castagnoli CRC (polynomial 0x1EDC6F41, reflected 0x82F63B78),
// the same checksum iSCSI/ext4 use — strong burst-error detection in 4
// bytes. Used as the XNC2 packet trailer and by every CRC-framed record
// (segment digests, the XNCJ journal). The backend is
// chosen once per process: the SSE4.2 CRC32 instruction on x86-64 CPUs
// that have it (crc32c_backend() == "sse4.2"), otherwise a byte-at-a-time
// table loop ("table"). The table loop is also the reference: both
// backends produce identical values for every input.
//
// digest64: a 64-bit content digest (FNV-1a with a SplitMix64 finalizer)
// for per-source-block manifests. Detects random corruption with 2^-64
// collision odds; it is NOT cryptographic — an adversary who can choose
// bytes can forge it (see "Threat model & integrity boundary" in DESIGN.md).
#pragma once

#include <cstdint>
#include <span>

namespace extnc {

// One-shot CRC32C of `data`.
std::uint32_t crc32c(std::span<const std::uint8_t> data);

// Incremental form: feed `crc32c_update` successive chunks starting from
// crc32c_init(), then finish. crc32c(x) == crc32c_final(crc32c_update(
// crc32c_init(), x)).
inline constexpr std::uint32_t crc32c_init() { return 0xffffffffu; }
std::uint32_t crc32c_update(std::uint32_t state,
                            std::span<const std::uint8_t> data);
inline constexpr std::uint32_t crc32c_final(std::uint32_t state) {
  return state ^ 0xffffffffu;
}

// The portable table loop: the fallback backend and the reference the
// hardware backend is tested against. Same contract as crc32c_update.
std::uint32_t crc32c_update_table(std::uint32_t state,
                                  std::span<const std::uint8_t> data);

// Name of the backend crc32c_update dispatches to: "sse4.2" or "table".
const char* crc32c_backend();

// 64-bit content digest. Seed lets callers domain-separate (e.g. mix in a
// block index so identical blocks at different positions digest apart).
std::uint64_t digest64(std::span<const std::uint8_t> data,
                       std::uint64_t seed = 0);

}  // namespace extnc
