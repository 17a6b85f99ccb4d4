#include "coding/encoder.h"

#include <cstring>
#include <vector>

#include "gf256/region.h"
#include "util/assert.h"

namespace extnc::coding {

CodedBlock Encoder::encode(Rng& rng) const {
  CodedBlock block(params());
  draw_coefficients(rng, block.coefficients());
  encode_with_coefficients(block.coefficients(), block.payload());
  return block;
}

void Encoder::encode_with_coefficients(
    std::span<const std::uint8_t> coefficients,
    std::span<std::uint8_t> payload) const {
  const Params& p = params();
  EXTNC_CHECK(coefficients.size() == p.n);
  EXTNC_CHECK(payload.size() == p.k);
  std::memset(payload.data(), 0, payload.size());
  // One fused destination-blocked pass over all n sources instead of n
  // separate sweeps of the payload.
  std::vector<const std::uint8_t*> sources(p.n);
  for (std::size_t i = 0; i < p.n; ++i) sources[i] = blocks_ + i * p.k;
  gf256::ops().mul_add_regions(payload.data(), sources.data(),
                               coefficients.data(), p.n, p.k);
}

void Encoder::draw_coefficients(Rng& rng,
                                std::span<std::uint8_t> coefficients) const {
  EXTNC_CHECK(coefficients.size() == params().n);
  model_.draw(rng, coefficients);
}

}  // namespace extnc::coding
