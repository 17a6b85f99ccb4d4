// Progressive RLNC decoder using Gauss-Jordan elimination (Sec. 3 of the
// paper).
//
// Incoming coded blocks are reduced into a reduced-row-echelon-form (RREF)
// augmented matrix [C | X] as they arrive. Keeping full RREF (not mere row
// echelon) gives the two properties the paper relies on:
//   * once n pivots exist the coefficient side is the identity and the
//     payload side *is* the decoded data — no back-substitution pass;
//   * a linearly dependent block reduces to an all-zero row and can be
//     discarded immediately, with no separate dependence check.
#pragma once

#include <cstdint>
#include <span>

#include "coding/coded_block.h"
#include "coding/segment.h"
#include "gf256/rref.h"

namespace extnc::coding {

class ProgressiveDecoder {
 public:
  enum class Result {
    kAccepted,           // rank increased
    kLinearlyDependent,  // reduced to zero; block discarded
    kAlreadyComplete,    // decoder already holds n independent blocks
  };

  explicit ProgressiveDecoder(Params params);

  Result add(const CodedBlock& block);
  // Same, but from raw views (lets backends avoid materializing CodedBlock).
  Result add(std::span<const std::uint8_t> coefficients,
             std::span<const std::uint8_t> payload);

  const Params& params() const { return params_; }
  std::size_t rank() const { return basis_.rank(); }
  bool is_complete() const { return basis_.is_full(); }
  std::size_t blocks_seen() const { return blocks_seen_; }
  std::size_t blocks_discarded() const { return blocks_discarded_; }

  // Decoded source blocks; only valid when is_complete().
  Segment decoded_segment() const;
  // The same n*k bytes (source block i at offset i*k) read in place from
  // the full basis, for callers that copy them straight to their
  // destination; only valid when is_complete(), and only while the decoder
  // lives and receives no further add().
  std::span<const std::uint8_t> decoded_bytes() const;

  // Structural invariant check (tests / debug): the stored rows form an
  // RREF basis (gf256::RrefBasis::check_invariant).
  bool check_rref_invariant() const { return basis_.check_invariant(); }

 private:
  Params params_;
  gf256::RrefBasis basis_;  // [C | X], rows keyed by pivot column
  std::size_t blocks_seen_ = 0;
  std::size_t blocks_discarded_ = 0;
};

}  // namespace extnc::coding
