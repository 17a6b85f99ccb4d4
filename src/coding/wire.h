// Wire format for coded blocks.
//
// A coded block travels as a self-describing packet so that receivers can
// route it to the right generation decoder and validate its shape before
// touching the payload. Two versions exist on the wire:
//
//   v1 ("XNC1") — the legacy frame, no integrity protection:
//     offset  size  field
//     0       4     magic "XNC1"
//     4       4     generation id (little-endian u32)
//     8       4     n  (blocks per segment)
//     12      4     k  (block size, bytes)
//     16      n     coefficient vector
//     16+n    k     coded payload
//
//   v2 ("XNC2") — same layout plus a CRC32C trailer over everything that
//   precedes it (header + coefficients + payload):
//     16+n+k  4     CRC32C (little-endian u32)
//
// Serializers emit v2 by default (WireFormat::kV2); v1 remains available
// for benches that want the 4 bytes back and for compatibility with
// already-serialized containers. parse() accepts both, verifying the
// trailer on v2 packets and reporting ParseError::kBadChecksum on
// mismatch.
//
// Fixed little-endian encoding. Parsing never trusts the input: every
// field is validated against caller-provided limits and truncated or
// oversized buffers are rejected (no EXTNC_CHECK on network input —
// malformed packets return errors, they must not abort a server).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "coding/coded_block.h"

namespace extnc::coding {

inline constexpr std::uint32_t kWireMagic = 0x31434e58;    // "XNC1"
inline constexpr std::uint32_t kWireMagicV2 = 0x32434e58;  // "XNC2"
inline constexpr std::size_t kWireHeaderBytes = 16;
inline constexpr std::size_t kWireChecksumBytes = 4;

enum class WireFormat : std::uint8_t {
  kV1,  // legacy, no checksum
  kV2,  // CRC32C trailer
};

struct WireLimits {
  std::size_t max_n = 4096;
  std::size_t max_k = 1 << 20;
};

struct Packet {
  std::uint32_t generation = 0;
  WireFormat format = WireFormat::kV2;  // format the packet arrived in
  CodedBlock block;
};

// Zero-copy parse result: the block borrows the coefficient and payload
// regions of the validated frame instead of copying them out. Valid only
// while the buffer passed to parse_view() is; callers that keep the block
// past that (retention, reordering queues) must block.materialize().
struct PacketView {
  std::uint32_t generation = 0;
  WireFormat format = WireFormat::kV2;  // format the packet arrived in
  CodedBlockView block;
};

// Serialized size of a block for the given parameters and format.
constexpr std::size_t wire_size(const Params& params,
                                WireFormat format = WireFormat::kV2) {
  return kWireHeaderBytes + params.n + params.k +
         (format == WireFormat::kV2 ? kWireChecksumBytes : 0);
}

// Serialize into a fresh buffer.
std::vector<std::uint8_t> serialize(std::uint32_t generation,
                                    const CodedBlock& block,
                                    WireFormat format = WireFormat::kV2);

// Serialize into a caller buffer of exactly wire_size(block.params(),
// format); aborts on wrong buffer size (a programming error, not a network
// one).
void serialize_into(std::uint32_t generation, const CodedBlock& block,
                    std::span<std::uint8_t> out,
                    WireFormat format = WireFormat::kV2);

// In-place framing for producers that write a frame's coefficient and
// payload regions themselves (out.subspan(kWireHeaderBytes, n) and
// out.subspan(kWireHeaderBytes + n, k)): writes the header and, for v2,
// the CRC32C trailer over the finished body. `out` is exactly
// wire_size(params, format) bytes; serialize_into is a copy plus this.
void seal_frame(std::uint32_t generation, const Params& params,
                std::span<std::uint8_t> out,
                WireFormat format = WireFormat::kV2);

enum class ParseError {
  kTooShort,
  kBadMagic,
  kBadShape,       // n or k of zero or above limits
  kLengthMismatch, // buffer length != expected for the declared shape
  kBadChecksum,    // v2 CRC32C trailer does not match the content
};

// Every enumerator, for exhaustiveness tests (keep in sync with ParseError).
inline constexpr ParseError kAllParseErrors[] = {
    ParseError::kTooShort,        ParseError::kBadMagic,
    ParseError::kBadShape,        ParseError::kLengthMismatch,
    ParseError::kBadChecksum,
};

const char* parse_error_name(ParseError error);

// Parse one packet. Returns the packet or the reason it was rejected.
// (std::variant-free result type: check error() first.)
class ParseResult {
 public:
  static ParseResult success(Packet packet);
  static ParseResult failure(ParseError error);

  bool ok() const { return !error_.has_value(); }
  ParseError error() const { return *error_; }
  const Packet& packet() const { return packet_; }
  Packet take_packet() { return std::move(packet_); }

 private:
  ParseResult() = default;
  Packet packet_;
  std::optional<ParseError> error_;
};

ParseResult parse(std::span<const std::uint8_t> data,
                  const WireLimits& limits = {});

// Zero-copy counterpart of ParseResult (same check-error()-first shape).
class ParseViewResult {
 public:
  static ParseViewResult success(PacketView packet);
  static ParseViewResult failure(ParseError error);

  bool ok() const { return !error_.has_value(); }
  ParseError error() const { return *error_; }
  const PacketView& packet() const { return packet_; }

 private:
  ParseViewResult() = default;
  PacketView packet_;
  std::optional<ParseError> error_;
};

// Validate a frame (magic, shape, limits, length, v2 CRC) and return a
// borrowed view into it. This is the decode hot path: the payload is read
// straight out of the receive buffer by the codec, and is only copied if
// the consumer retains it. parse() is this plus an unconditional
// materialize().
ParseViewResult parse_view(std::span<const std::uint8_t> data,
                           const WireLimits& limits = {});

}  // namespace extnc::coding
