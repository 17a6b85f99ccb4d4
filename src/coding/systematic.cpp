#include "coding/systematic.h"

#include <algorithm>

#include "util/assert.h"

namespace extnc::coding {

CodedBlock SystematicEncoder::next(Rng& rng) {
  CodedBlock block(params());
  next_into(rng, block.coefficients(), block.payload());
  return block;
}

void SystematicEncoder::next_into(Rng& rng,
                                  std::span<std::uint8_t> coefficients,
                                  std::span<std::uint8_t> payload) {
  if (!in_systematic_phase()) {
    coded_.draw_coefficients(rng, coefficients);
    coded_.encode_with_coefficients(coefficients, payload);
    return;
  }
  EXTNC_CHECK(coefficients.size() == params().n);
  EXTNC_CHECK(payload.size() == params().k);
  std::fill(coefficients.begin(), coefficients.end(), 0);
  coefficients[next_] = 1;
  const auto source = segment_->block(next_);
  std::copy(source.begin(), source.end(), payload.begin());
  ++next_;
}

}  // namespace extnc::coding
