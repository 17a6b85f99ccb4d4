// Systematic RLNC encoder: the first n emissions are the source blocks
// themselves (unit coefficient vectors), after which it falls back to
// random coding.
//
// On a loss-free path a receiver then decodes with zero GF work (every
// arrival is already reduced), and under loss only the missing fraction
// needs real elimination — a standard practical refinement of the
// random-code the paper accelerates. The progressive decoder handles the
// mixture transparently.
//
// coding::GenerationEncoder (coding/generation_stream.h) applies this rule
// per generation of a file, coding each unit row through its kernel. This
// copy-based encoder is the rule's test reference: the GenerationStream
// tests check GenerationEncoder's systematic packets against it, so the
// two cannot drift apart unseen.
#pragma once

#include <algorithm>
#include <cstddef>

#include "coding/encoder.h"

namespace extnc::coding {

class SystematicEncoder {
 public:
  explicit SystematicEncoder(const Segment& segment)
      : segment_(&segment), coded_(segment) {}

  const Params& params() const { return segment_->params(); }

  // True while the next emission is an uncoded pass-through block.
  bool in_systematic_phase() const { return next_ < params().n; }

  CodedBlock next(Rng& rng) {
    if (!in_systematic_phase()) return coded_.encode(rng);
    CodedBlock block(params());
    block.coefficients()[next_] = 1;
    const auto source = segment_->block(next_);
    std::copy(source.begin(), source.end(), block.payload().begin());
    ++next_;
    return block;
  }

  // Restart the systematic pass (e.g. for a new receiver cohort).
  void reset() { next_ = 0; }

 private:
  const Segment* segment_;
  Encoder coded_;
  std::size_t next_ = 0;
};

}  // namespace extnc::coding
