// Two-stage ("offline") RLNC decoder: collect n linearly independent coded
// blocks, invert the coefficient matrix via Gauss-Jordan on [C | I], then
// recover the sources with one dense multiplication b = C^-1 * x.
//
// This is the exact decoding structure the paper's multi-segment GPU
// scheme uses (Sec. 5.2): stage 1 is small and serial, stage 2 is an
// embarrassingly parallel matrix product. On the CPU it is also the right
// shape for Avalanche-style bulk distribution where blocks are gathered
// first and decoded afterwards.
#pragma once

#include <cstdint>
#include <span>

#include "coding/coded_block.h"
#include "coding/segment.h"
#include "gf256/matrix.h"
#include "gf256/rref.h"
#include "util/aligned_buffer.h"

namespace extnc::coding {

class BlockDecoder {
 public:
  explicit BlockDecoder(Params params);

  // Returns true if the block was independent of those already held (and
  // stored), false if it was discarded as dependent. Independence is
  // tracked incrementally on a payload-free gf256::RrefBasis, so dependent
  // blocks cost O(n^2) and never touch the k-byte payloads.
  bool add(const CodedBlock& block);
  bool add(std::span<const std::uint8_t> coefficients,
           std::span<const std::uint8_t> payload);
  // Zero-copy entry point for wire frames (coding/wire.h parse_view); the
  // only copy made is into the stored rows when the block is independent.
  bool add(const CodedBlockView& block) {
    return add(block.coefficients(), block.payload());
  }

  const Params& params() const { return params_; }
  std::size_t rank() const { return probe_.rank(); }
  bool is_ready() const { return probe_.is_full(); }

  // Stage 1 + stage 2; only valid when is_ready().
  Segment decode() const;

  // Exposed for the GPU backend and benches: the collected coefficient
  // matrix (row r = r-th stored block) and payload rows.
  const gf256::Matrix& coefficients() const { return coeffs_; }
  std::span<const std::uint8_t> payloads() const { return payloads_.span(); }

 private:
  Params params_;
  gf256::Matrix coeffs_;    // stored blocks' coefficient rows
  AlignedBuffer payloads_;  // stored blocks' payload rows
  gf256::RrefBasis probe_;  // coefficient-only independence probe
};

}  // namespace extnc::coding
