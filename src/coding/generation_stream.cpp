#include "coding/generation_stream.h"

#include <cstring>

#include "util/assert.h"

namespace extnc::coding {

GenerationEncoder::GenerationEncoder(Params params,
                                     std::span<const std::uint8_t> content,
                                     bool systematic, WireFormat wire_format)
    : params_(params),
      content_bytes_(content.size()),
      use_systematic_(systematic),
      wire_format_(wire_format) {
  params_.validate();
  const std::size_t per_generation = params_.segment_bytes();
  const std::size_t count =
      content.empty() ? 1 : (content.size() + per_generation - 1) / per_generation;
  segments_.reserve(count);
  for (std::size_t g = 0; g < count; ++g) {
    const std::size_t offset = g * per_generation;
    const std::size_t len =
        std::min(per_generation, content.size() - std::min(content.size(), offset));
    segments_.push_back(
        Segment::from_bytes(params_, content.subspan(offset, len)));
  }
  // Encoders hold pointers into segments_; construct only after the vector
  // is final.
  systematic_.reserve(count);
  coded_.reserve(count);
  for (const Segment& segment : segments_) {
    systematic_.emplace_back(segment);
    coded_.emplace_back(segment);
  }
}

std::vector<std::uint8_t> GenerationEncoder::encode_packet(
    std::uint32_t generation, Rng& rng) {
  std::vector<std::uint8_t> out(packet_bytes());
  encode_packet_into(generation, rng, out);
  return out;
}

void GenerationEncoder::encode_packet_into(std::uint32_t generation,
                                           Rng& rng,
                                           std::span<std::uint8_t> out) {
  EXTNC_CHECK(generation < segments_.size());
  EXTNC_CHECK(out.size() == packet_bytes());
  // Coded straight into the frame body, then framed in place.
  const auto coefficients = out.subspan(kWireHeaderBytes, params_.n);
  const auto payload = out.subspan(kWireHeaderBytes + params_.n, params_.k);
  if (use_systematic_) {
    systematic_[generation].next_into(rng, coefficients, payload);
  } else {
    coded_[generation].draw_coefficients(rng, coefficients);
    coded_[generation].encode_with_coefficients(coefficients, payload);
  }
  seal_frame(generation, params_, out, wire_format_);
}

SegmentDigest GenerationEncoder::digest(std::uint32_t generation) const {
  EXTNC_CHECK(generation < segments_.size());
  return SegmentDigest::compute(segments_[generation], generation);
}

std::vector<std::uint8_t> GenerationEncoder::encode_next_packet(Rng& rng) {
  const auto generation = round_robin_;
  round_robin_ = (round_robin_ + 1) % static_cast<std::uint32_t>(generations());
  return encode_packet(generation, rng);
}

GenerationDecoder::GenerationDecoder(Params params, std::size_t generations)
    : params_(params) {
  params_.validate();
  EXTNC_CHECK(generations >= 1);
  // Each generation's decoder (and its n x k basis) is built by the first
  // packet that reaches it.
  decoders_.resize(generations);
}

GenerationDecoder::Accept GenerationDecoder::add_packet(
    std::span<const std::uint8_t> wire_bytes) {
  // Zero-copy hot path: the decoder reduces the coefficient and payload
  // regions straight out of the validated frame; nothing is copied unless
  // the block lands in the RREF basis (which ProgressiveDecoder stores by
  // value either way).
  const ParseViewResult result = parse_view(wire_bytes);
  if (!result.ok()) {
    ++rejected_;
    return Accept::kRejected;
  }
  const PacketView& packet = result.packet();
  if (packet.generation >= decoders_.size() ||
      !(packet.block.params() == params_)) {
    ++rejected_;
    return Accept::kRejected;
  }
  auto& slot = decoders_[packet.generation];
  if (!slot) slot = std::make_unique<ProgressiveDecoder>(params_);
  ProgressiveDecoder& decoder = *slot;
  const auto outcome =
      decoder.add(packet.block.coefficients(), packet.block.payload());
  switch (outcome) {
    case ProgressiveDecoder::Result::kAccepted:
      if (decoder.is_complete()) {
        ++completed_;
        return Accept::kGenerationComplete;
      }
      return Accept::kInnovative;
    case ProgressiveDecoder::Result::kLinearlyDependent:
    case ProgressiveDecoder::Result::kAlreadyComplete:
      return Accept::kDependent;
  }
  return Accept::kRejected;
}

std::size_t GenerationDecoder::generation_rank(std::size_t generation) const {
  EXTNC_CHECK(generation < decoders_.size());
  return decoders_[generation] ? decoders_[generation]->rank() : 0;
}

bool GenerationDecoder::generation_complete(std::size_t generation) const {
  EXTNC_CHECK(generation < decoders_.size());
  return decoders_[generation] && decoders_[generation]->is_complete();
}

std::vector<std::uint8_t> GenerationDecoder::reassemble() const {
  EXTNC_CHECK(is_complete());
  // Reserved once and appended straight from each basis, so every output
  // byte is written exactly once (no temporary segment, no zero-fill pass
  // over the whole file).
  std::vector<std::uint8_t> out;
  out.reserve(decoders_.size() * params_.segment_bytes());
  for (const auto& decoder : decoders_) {
    const std::span<const std::uint8_t> bytes = decoder->decoded_bytes();
    out.insert(out.end(), bytes.begin(), bytes.end());
  }
  return out;
}

}  // namespace extnc::coding
