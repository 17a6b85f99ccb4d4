// The host's one GF(2^8) Gauss-Jordan elimination core.
//
// RrefBasis holds up to n rows [c | x] — n coefficient bytes plus
// payload_bytes payload bytes — in reduced row echelon form, keyed by pivot
// column: row p, when present, is zero left of column p, has a 1 at p, and
// column p is zero in every other stored row. add() reduces one incoming
// row against the basis in four steps:
//   1. a coefficient-only forward pass; each elimination determines the
//      next factor, so it runs inline and records (stored row, factor);
//   2. a row that reduced to zero is dependent: return at once, with no
//      payload work and nothing stored changed;
//   3. one fused mul_add_regions replay of the recorded pairs over the
//      payload (stored payload rows never change during step 1, so this is
//      bit-identical to eliminating inline), then scaling the pivot to 1;
//   4. back-elimination of the new pivot column from every stored row.
// With payload_bytes == 0 the same code is a coefficient-only independence
// probe.
//
// Every host decoder is a policy over this class. The progressive decoder
// (Sec. 3 of the paper) keeps [C | X] and, once full, reads the decoded
// data off the payload side. Matrix::inverted feeds row i of C with payload
// e_i, so the full basis holds [I | C^-1] — the [C | I] reduction of the
// multi-segment decoder (Sec. 5.2). BlockDecoder and Matrix::rank use the
// payload-free probe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/aligned_buffer.h"

namespace extnc::gf256 {

class RrefBasis {
 public:
  RrefBasis(std::size_t n, std::size_t payload_bytes);

  // Reduce (coeffs | payload) against the basis. True when the row was
  // independent and is now stored (rank grew); false when it reduced to
  // zero, in which case every stored byte is untouched. `coeffs` holds n()
  // bytes and `payload` payload_bytes() (empty for a probe).
  bool add(std::span<const std::uint8_t> coeffs,
           std::span<const std::uint8_t> payload = {});

  std::size_t n() const { return n_; }
  std::size_t payload_bytes() const { return k_; }
  std::size_t rank() const { return rank_; }
  bool is_full() const { return rank_ == n_; }

  // The stored row whose leading 1 is in column `pivot`; only meaningful
  // when that pivot is present (always, once is_full()).
  const std::uint8_t* coeff_row(std::size_t pivot) const {
    return coeffs_.data() + pivot * n_;
  }
  const std::uint8_t* payload_row(std::size_t pivot) const {
    return payloads_.data() + pivot * k_;
  }
  // All n payload rows back to back in pivot order (n * payload_bytes()).
  std::span<const std::uint8_t> payload_rows() const {
    return payloads_.span();
  }

  // Structural invariant check (tests / debug): the stored rows are in
  // RREF as described above, and their count equals rank().
  bool check_invariant() const;

 private:
  std::uint8_t* coeff_slot(std::size_t pivot) {
    return coeffs_.data() + pivot * n_;
  }
  std::uint8_t* payload_slot(std::size_t pivot) {
    return payloads_.data() + pivot * k_;
  }

  std::size_t n_;
  std::size_t k_;
  AlignedBuffer coeffs_;    // n rows of n bytes, keyed by pivot
  AlignedBuffer payloads_;  // n rows of k bytes, keyed by pivot
  std::vector<bool> present_;
  AlignedBuffer scratch_;   // the incoming coefficient row
  // Step 1's recording, replayed over the payload in step 3.
  std::vector<const std::uint8_t*> elim_rows_;
  std::vector<std::uint8_t> elim_factors_;
  std::size_t rank_ = 0;
};

}  // namespace extnc::gf256
