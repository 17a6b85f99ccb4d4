// Systematic RLNC encoder: the first n emissions are the source blocks
// themselves (unit coefficient vectors), after which it falls back to
// random coding.
//
// On a loss-free path a receiver then decodes with zero GF work (every
// arrival is already reduced), and under loss only the missing fraction
// needs real elimination — a standard practical refinement of the
// random-code the paper accelerates. The progressive decoder handles the
// mixture transparently.
#pragma once

#include <cstddef>
#include <span>

#include "coding/encoder.h"

namespace extnc::coding {

class SystematicEncoder {
 public:
  explicit SystematicEncoder(const Segment& segment,
                             CoefficientModel model = CoefficientModel::dense())
      : segment_(&segment), coded_(segment, model) {}

  const Params& params() const { return segment_->params(); }

  // True while the next emission is an uncoded pass-through block.
  bool in_systematic_phase() const { return next_ < params().n; }

  CodedBlock next(Rng& rng);
  // Same emission (same rng draws), written into caller regions of n and
  // k bytes — e.g. the body of a wire frame (coding/wire.h seal_frame).
  void next_into(Rng& rng, std::span<std::uint8_t> coefficients,
                 std::span<std::uint8_t> payload);

  // Restart the systematic pass (e.g. for a new receiver cohort).
  void reset() { next_ = 0; }

 private:
  const Segment* segment_;
  Encoder coded_;
  std::size_t next_ = 0;
};

}  // namespace extnc::coding
