// Generation-level framing: coding an arbitrarily long byte stream.
//
// RLNC complexity is quadratic-ish in n, so real systems (the paper's
// streaming servers, Avalanche) never code a whole file as one generation
// — they split it into segments ("generations") and code within each.
// GenerationEncoder owns that split on the sender side; GenerationDecoder
// reassembles on the receiver side, tracking one progressive decoder per
// generation and discarding traffic for finished ones. Packets carry the
// generation id in their wire header (coding/wire.h).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "coding/encoder.h"
#include "coding/progressive_decoder.h"
#include "coding/segment_digest.h"
#include "coding/systematic.h"
#include "coding/wire.h"

namespace extnc::coding {

class GenerationEncoder {
 public:
  // Splits `content` into ceil(size / (n*k)) generations of shape
  // `params`; the last generation is zero-padded (the original length
  // travels out of band — callers typically know it from a manifest).
  // Packets are emitted in the checksummed XNC2 format unless a caller
  // (e.g. a bench counting bytes) opts back down to XNC1.
  GenerationEncoder(Params params, std::span<const std::uint8_t> content,
                    bool systematic = false,
                    WireFormat wire_format = WireFormat::kV2);

  std::size_t generations() const { return segments_.size(); }
  const Params& params() const { return params_; }
  std::size_t content_bytes() const { return content_bytes_; }

  // One coded block of generation g (wire-ready bytes).
  std::vector<std::uint8_t> encode_packet(std::uint32_t generation, Rng& rng);
  // Same packet (same rng draws), coded straight into a caller buffer of
  // exactly packet_bytes() — e.g. its slot in a container, with no
  // per-packet buffer.
  void encode_packet_into(std::uint32_t generation, Rng& rng,
                          std::span<std::uint8_t> out);
  // Wire size of every packet this encoder emits.
  std::size_t packet_bytes() const { return wire_size(params_, wire_format_); }

  // Round-robin across generations (a simple sender schedule).
  std::vector<std::uint8_t> encode_next_packet(Rng& rng);

  // Integrity manifest for generation g (see coding/segment_digest.h) —
  // what a receiver needs to verify its decode of that generation.
  SegmentDigest digest(std::uint32_t generation) const;

 private:
  Params params_;
  std::size_t content_bytes_;
  std::vector<Segment> segments_;
  std::vector<SystematicEncoder> systematic_;
  std::vector<Encoder> coded_;
  bool use_systematic_;
  WireFormat wire_format_;
  std::uint32_t round_robin_ = 0;
};

class GenerationDecoder {
 public:
  GenerationDecoder(Params params, std::size_t generations);

  // Feed one wire packet. Malformed packets, shape mismatches and unknown
  // generation ids are counted and dropped, never fatal.
  enum class Accept {
    kInnovative,
    kDependent,
    kGenerationComplete,  // this packet completed its generation
    kRejected,
  };
  Accept add_packet(std::span<const std::uint8_t> wire_bytes);

  bool is_complete() const { return completed_ == decoders_.size(); }
  std::size_t generations_complete() const { return completed_; }
  std::size_t packets_rejected() const { return rejected_; }
  std::size_t generations() const { return decoders_.size(); }

  // Per-generation progress (rank out of n) — the metadata peers gossip
  // when choosing what to send each other.
  std::size_t generation_rank(std::size_t generation) const;
  bool generation_complete(std::size_t generation) const;

  // Reassembled content (length generations * n * k, including the final
  // generation's padding); only valid when is_complete().
  std::vector<std::uint8_t> reassemble() const;

 private:
  Params params_;
  std::vector<std::unique_ptr<ProgressiveDecoder>> decoders_;
  std::size_t completed_ = 0;
  std::size_t rejected_ = 0;
};

}  // namespace extnc::coding
