#include "coding/block_decoder.h"

#include <cstring>

#include "util/assert.h"

namespace extnc::coding {

BlockDecoder::BlockDecoder(Params params)
    : params_(params),
      coeffs_(params.n, params.n),
      payloads_(params.n * params.k),
      probe_(params.n, 0) {
  params_.validate();
}

bool BlockDecoder::add(const CodedBlock& block) {
  EXTNC_CHECK(block.params() == params_);
  return add(block.coefficients(), block.payload());
}

bool BlockDecoder::add(std::span<const std::uint8_t> coefficients,
                       std::span<const std::uint8_t> payload) {
  EXTNC_CHECK(coefficients.size() == params_.n);
  EXTNC_CHECK(payload.size() == params_.k);
  if (is_ready()) return false;
  const std::size_t row = rank();
  if (!probe_.add(coefficients)) return false;  // dependent

  // Store the *original* row; inversion happens once at decode time.
  std::memcpy(coeffs_.row(row).data(), coefficients.data(), params_.n);
  std::memcpy(payloads_.data() + row * params_.k, payload.data(), params_.k);
  return true;
}

Segment BlockDecoder::decode() const {
  EXTNC_CHECK(is_ready());
  const auto inverse = coeffs_.inverted();
  // Stored rows are independent by construction, so inversion succeeds.
  EXTNC_CHECK(inverse.has_value());
  Segment segment(params_);
  inverse->multiply_rows(payloads_.data(), params_.k, segment.data());
  return segment;
}

}  // namespace extnc::coding
