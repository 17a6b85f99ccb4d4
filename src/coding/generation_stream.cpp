#include "coding/generation_stream.h"

#include <algorithm>

#include "util/assert.h"

namespace extnc::coding {

GenerationEncoder::GenerationEncoder(Params params,
                                     std::span<const std::uint8_t> content,
                                     bool systematic, WireFormat wire_format)
    : params_(params),
      content_bytes_(content.size()),
      content_(content.data()),
      use_systematic_(systematic),
      wire_format_(wire_format) {
  params_.validate();
  const std::size_t per_generation = params_.segment_bytes();
  generations_ = content.empty()
                     ? 1
                     : (content.size() + per_generation - 1) / per_generation;
  const std::size_t full = content.size() / per_generation;
  if (full < generations_) {
    tail_ = Segment::from_bytes(params_, content.subspan(full * per_generation));
  }
  if (use_systematic_) systematic_sent_.assign(generations_, 0);
}

const std::uint8_t* GenerationEncoder::generation_blocks(
    std::uint32_t generation) const {
  const std::size_t offset = generation * params_.segment_bytes();
  return offset + params_.segment_bytes() <= content_bytes_ ? content_ + offset
                                                            : tail_.data();
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
  EXTNC_CHECK(out.size() == packet_bytes());
  draw_coefficients(generation, rng, out.subspan(kWireHeaderBytes, params_.n));
  code_frame(generation, out);
}

void GenerationEncoder::draw_coefficients(std::uint32_t generation, Rng& rng,
                                          std::span<std::uint8_t> row) {
  EXTNC_CHECK(generation < generations_);
  EXTNC_CHECK(row.size() == params_.n);
  if (use_systematic_ && systematic_sent_[generation] < params_.n) {
    std::fill(row.begin(), row.end(), 0);
    row[systematic_sent_[generation]++] = 1;
    return;
  }
  CoefficientModel::dense().draw(rng, row);
}

void GenerationEncoder::code_frame(std::uint32_t generation,
                                   std::span<std::uint8_t> out) const {
  EXTNC_CHECK(generation < generations_);
  EXTNC_CHECK(out.size() == packet_bytes());
  // A unit row codes to a copy of its source block, so systematic and
  // coded emissions share this one kernel call.
  Encoder(params_, generation_blocks(generation))
      .encode_with_coefficients(
          out.subspan(kWireHeaderBytes, params_.n),
          out.subspan(kWireHeaderBytes + params_.n, params_.k));
  seal_frame(generation, params_, out, wire_format_);
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
  const std::optional<PacketView> packet =
      accept(wire_bytes, params_, decoders_.size());
  if (!packet.has_value()) {
    ++rejected_;
    return Accept::kRejected;
  }
  auto& slot = decoders_[packet->generation];
  if (!slot) slot = std::make_unique<ProgressiveDecoder>(params_);
  const Accept outcome = feed(*slot, *packet);
  if (outcome == Accept::kGenerationComplete) ++completed_;
  return outcome;
}

std::optional<PacketView> GenerationDecoder::accept(
    std::span<const std::uint8_t> wire_bytes, const Params& params,
    std::size_t generations) {
  // Zero-copy hot path: the decoder reduces the coefficient and payload
  // regions straight out of the validated frame; nothing is copied unless
  // the block lands in the RREF basis (which ProgressiveDecoder stores by
  // value either way).
  const ParseViewResult result = parse_view(wire_bytes);
  if (!result.ok()) return std::nullopt;
  const PacketView& packet = result.packet();
  if (packet.generation >= generations || !(packet.block.params() == params)) {
    return std::nullopt;
  }
  return packet;
}

GenerationDecoder::Accept GenerationDecoder::feed(ProgressiveDecoder& decoder,
                                                  const PacketView& packet) {
  switch (decoder.add(packet.block.coefficients(), packet.block.payload())) {
    case ProgressiveDecoder::Result::kAccepted:
      return decoder.is_complete() ? Accept::kGenerationComplete
                                   : Accept::kInnovative;
    case ProgressiveDecoder::Result::kLinearlyDependent:
    case ProgressiveDecoder::Result::kAlreadyComplete:
      return Accept::kDependent;
  }
  return Accept::kDependent;
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
