// Reference (single-threaded) RLNC encoder.
//
// Produces coded blocks x_j = sum_i c_ji * b_i with coefficients drawn by
// a CoefficientModel (fully dense by default, matching the paper's
// evaluation setup). Multi-threaded and GPU encoders live in src/cpu and
// src/gpu and are validated against this one.
#pragma once

#include <cstdint>
#include <span>

#include "coding/coded_block.h"
#include "coding/coefficients.h"
#include "coding/segment.h"
#include "util/rng.h"

namespace extnc::coding {

class Encoder {
 public:
  // The encoder borrows the n source blocks of k bytes at `blocks` (block
  // i at blocks + i*k, no alignment required); they must outlive the
  // encoder (source blocks are large; we never copy them).
  Encoder(Params params, const std::uint8_t* blocks,
          CoefficientModel model = CoefficientModel::dense())
      : params_(params), blocks_(blocks), model_(model) {}
  // Borrows the segment's blocks; the segment must outlive the encoder.
  explicit Encoder(const Segment& segment,
                   CoefficientModel model = CoefficientModel::dense())
      : Encoder(segment.params(), segment.data(), model) {}

  const Params& params() const { return params_; }

  // Draw a fresh random coefficient vector and produce one coded block.
  CodedBlock encode(Rng& rng) const;

  // Encode with caller-provided coefficients (used by the recoder, the
  // tests, and every alternative backend for bit-exact comparison).
  void encode_with_coefficients(std::span<const std::uint8_t> coefficients,
                                std::span<std::uint8_t> payload) const;

  // Fill `coefficients` with a fresh random draw.
  void draw_coefficients(Rng& rng,
                         std::span<std::uint8_t> coefficients) const;

 private:
  Params params_;
  const std::uint8_t* blocks_;
  CoefficientModel model_;
};

}  // namespace extnc::coding
