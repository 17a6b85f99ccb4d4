#include "coding/progressive_decoder.h"

#include "util/assert.h"

namespace extnc::coding {

ProgressiveDecoder::ProgressiveDecoder(Params params)
    : params_(params), basis_(params.n, params.k) {
  params_.validate();
}

ProgressiveDecoder::Result ProgressiveDecoder::add(const CodedBlock& block) {
  EXTNC_CHECK(block.params() == params_);
  return add(block.coefficients(), block.payload());
}

ProgressiveDecoder::Result ProgressiveDecoder::add(
    std::span<const std::uint8_t> coefficients,
    std::span<const std::uint8_t> payload) {
  EXTNC_CHECK(coefficients.size() == params_.n);
  EXTNC_CHECK(payload.size() == params_.k);
  ++blocks_seen_;
  if (is_complete()) {
    ++blocks_discarded_;
    return Result::kAlreadyComplete;
  }
  if (!basis_.add(coefficients, payload)) {
    ++blocks_discarded_;
    return Result::kLinearlyDependent;
  }
  return Result::kAccepted;
}

Segment ProgressiveDecoder::decoded_segment() const {
  return Segment::from_bytes(params_, decoded_bytes());
}

std::span<const std::uint8_t> ProgressiveDecoder::decoded_bytes() const {
  EXTNC_CHECK(is_complete());
  // A full RREF basis has C = I, so the payload row at pivot i is source
  // i, and the rows are stored in pivot order.
  return basis_.payload_rows();
}

}  // namespace extnc::coding
