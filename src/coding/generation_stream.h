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
#include "coding/segment.h"
#include "coding/wire.h"

namespace extnc::coding {

class GenerationEncoder {
 public:
  // Splits `content` into ceil(size / (n*k)) generations of shape
  // `params`; the last generation is zero-padded (the original length
  // travels out of band — callers typically know it from a manifest).
  // Packets are emitted in the checksummed XNC2 format unless a caller
  // (e.g. a bench counting bytes) opts back down to XNC1.
  //
  // The encoder borrows `content`: every full generation is coded straight
  // out of the caller's bytes, which must outlive the encoder and stay
  // unchanged. Only a partial last generation (or empty content, which
  // still makes one all-zero generation) is copied, zero-padded, into
  // storage the encoder owns.
  //
  // With `systematic`, emission i < n of each generation is the unit row
  // e_i (its payload is source block i); later emissions are coded. The
  // tests check this rule against a copy-based reference encoder.
  GenerationEncoder(Params params, std::span<const std::uint8_t> content,
                    bool systematic = false,
                    WireFormat wire_format = WireFormat::kV2);

  std::size_t generations() const { return generations_; }
  const Params& params() const { return params_; }
  std::size_t content_bytes() const { return content_bytes_; }

  // One coded block of generation g (wire-ready bytes).
  std::vector<std::uint8_t> encode_packet(std::uint32_t generation, Rng& rng);
  // Same packet (same rng draws), coded straight into a caller buffer of
  // exactly packet_bytes() — e.g. its slot in a container, with no
  // per-packet buffer. It is draw_coefficients into the frame body, then
  // code_frame.
  void encode_packet_into(std::uint32_t generation, Rng& rng,
                          std::span<std::uint8_t> out);
  // Wire size of every packet this encoder emits.
  std::size_t packet_bytes() const { return wire_size(params_, wire_format_); }

  // The two halves of a packet, for producers that draw every packet's
  // coefficients in order first and code the payloads later, possibly on
  // several threads (net::encode_file):
  //
  // The serial half: the n coefficients of generation g's next emission
  // (the systematic unit row, or a fresh draw from `rng`) into `row`.
  // Advances the generation's systematic counter, so calls must come in
  // emission order.
  void draw_coefficients(std::uint32_t generation, Rng& rng,
                         std::span<std::uint8_t> row);
  // The parallel half: codes the payload of a frame of packet_bytes() whose
  // coefficient region (out.subspan(kWireHeaderBytes, n)) already holds a
  // row, then seals it (coding/wire.h seal_frame). Reads only the borrowed
  // content and const state, so any number of threads may call it at once
  // on distinct frames.
  void code_frame(std::uint32_t generation, std::span<std::uint8_t> out) const;

  // Round-robin across generations (a simple sender schedule).
  std::vector<std::uint8_t> encode_next_packet(Rng& rng);

 private:
  // Source block 0 of generation g; the rest follow at stride k.
  const std::uint8_t* generation_blocks(std::uint32_t generation) const;

  Params params_;
  std::size_t content_bytes_;
  std::size_t generations_;
  const std::uint8_t* content_;  // borrowed; full generations only
  Segment tail_;  // owned, zero-padded copy of a partial last generation
  bool use_systematic_;
  // Per generation, the unit rows emitted so far (systematic mode only).
  std::vector<std::uint32_t> systematic_sent_;
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

  // add_packet in two steps, for receivers that keep their own decoder per
  // generation (net::decode_file decodes generations in parallel) and must
  // classify every packet exactly as add_packet would:
  //
  // The acceptance rule: the frame parses (on XNC2 its CRC matches), names
  // a generation below `generations` and has `params`' shape. nullopt is
  // add_packet's kRejected.
  static std::optional<PacketView> accept(
      std::span<const std::uint8_t> wire_bytes, const Params& params,
      std::size_t generations);
  // Adds an accepted packet to its generation's decoder and names the
  // outcome (never kRejected).
  static Accept feed(ProgressiveDecoder& decoder, const PacketView& packet);

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
