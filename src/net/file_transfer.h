// Coded file container: a byte stream holding everything a receiver needs
// to reconstruct a file from RLNC packets.
//
//   offset  size  field
//   0       4     magic "XNCF"
//   4       4     n
//   8       4     k
//   12      8     original content length (little-endian u64)
//   20      4     generation count
//   24      4     packet count
//   28      4     flags (bit 0: packets use the checksummed XNC2 wire
//                 format; see coding/wire.h)
//   32      ...   packets, back to back (coding/wire.h format)
//
// The container is loss- and corruption-tolerant by construction:
// encode_file can emit redundant packets, drop a simulated loss fraction
// and damage a simulated corruption fraction in transit; decode_file
// rejects damaged packets at the wire layer (CRC) and succeeds whenever
// every generation still has n independent clean packets — the property
// the Avalanche line of work builds on.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "coding/coded_block.h"
#include "coding/params.h"
#include "coding/wire.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace extnc::net {

struct FileEncodeOptions {
  coding::Params params{.n = 32, .k = 1024};
  // Extra coded packets per generation beyond n, as a fraction (0.25 = 25%
  // overhead). Protects against loss and corruption.
  double redundancy = 0.0;
  // Fraction of packets dropped before writing (loss simulation).
  double loss = 0.0;
  // Fraction of surviving packets damaged before writing (corruption
  // simulation: one random bit flipped somewhere in the packet). Damaged
  // packets stay in the container — detecting them is the decoder's job.
  double corruption = 0.0;
  bool systematic = false;
  std::uint64_t seed = 1;
  // XNC2 (checksummed) by default; kV1 shaves 4 bytes/packet but makes
  // corruption undetectable — bench/compat use only.
  coding::WireFormat wire_format = coding::WireFormat::kV2;
  // Optional seed-encoder factory (same shape as the swarm hooks): invoked
  // once with (params, content); the returned closure produces each coded
  // block in place of the built-in GenerationEncoder, on the calling
  // thread, once per packet in packet order. Incompatible with
  // `systematic` (the hook only emits coded blocks). See
  // gpu::ResilientSeed::bind_content.
  using SeedBlockFn =
      std::function<coding::CodedBlock(std::uint32_t, Rng&)>;
  std::function<SeedBlockFn(const coding::Params&,
                            std::span<const std::uint8_t>)>
      make_seed_encoder;
};

struct FileInfo {
  coding::Params params;
  std::uint64_t content_bytes = 0;
  std::uint32_t generations = 0;
  std::uint32_t packets = 0;
  coding::WireFormat wire_format = coding::WireFormat::kV2;
};

// Threading: both calls run generation-parallel on `pool` (by default the
// process-wide default_pool()). The container, the decoded bytes, the
// counts and the error strings do not depend on the pool or its size:
// encode_file replays the seeded packet loop serially (coefficients, loss
// and corruption draws, and the seed hook, which therefore need not be
// thread-safe) and only then codes the payloads of the surviving packets
// in parallel; decode_file buckets packets by generation and decodes each
// generation as one receiver would, in container order.

// Encode `content` into a coded container.
std::vector<std::uint8_t> encode_file(std::span<const std::uint8_t> content,
                                      const FileEncodeOptions& options,
                                      ThreadPool& pool = default_pool());

// Parse just the container header; nullopt if malformed.
std::optional<FileInfo> describe_file(std::span<const std::uint8_t> container);

struct FileDecodeResult {
  bool ok = false;
  std::string error;  // human-readable reason when !ok
  std::vector<std::uint8_t> content;
  std::size_t packets_used = 0;
  std::size_t packets_dependent = 0;
  std::size_t packets_rejected = 0;
};

// Decode a container. Damaged, malformed or misrouted packets are counted
// as rejected, never fatal. On failure `error` names the first problem in
// this order: "container truncated" (the counts cover the whole packets
// that fit), "insufficient independent packets (X/Y generations
// complete)", "reassembled size inconsistent" (the header declares more
// content than its generations hold; `content` then holds every
// generation).
FileDecodeResult decode_file(std::span<const std::uint8_t> container,
                             ThreadPool& pool = default_pool());

}  // namespace extnc::net
