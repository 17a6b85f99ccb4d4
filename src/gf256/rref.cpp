#include "gf256/rref.h"

#include <algorithm>

#include "gf256/gf.h"
#include "gf256/region.h"
#include "util/assert.h"

namespace extnc::gf256 {

RrefBasis::RrefBasis(std::size_t n, std::size_t payload_bytes)
    : n_(n),
      k_(payload_bytes),
      coeffs_(n * n),
      payloads_(n * payload_bytes),
      present_(n, false),
      scratch_(n) {
  elim_rows_.reserve(n);
  elim_factors_.reserve(n);
}

bool RrefBasis::add(std::span<const std::uint8_t> coeffs,
                    std::span<const std::uint8_t> payload) {
  EXTNC_CHECK(coeffs.size() == n_);
  EXTNC_CHECK(payload.size() == k_);
  const Ops& o = ops();
  std::uint8_t* sc = scratch_.data();
  std::copy(coeffs.begin(), coeffs.end(), sc);

  // 1. Forward pass. Stored rows are zero left of their pivot, so one
  // left-to-right pass suffices: eliminating column c never reintroduces a
  // value at a column < c. The pivot is the first nonzero column with no
  // stored row, but elimination continues past it — later present columns
  // may still be nonzero, and leaving them would break RREF whenever
  // pivots arrive out of order.
  elim_rows_.clear();
  elim_factors_.clear();
  std::size_t pivot = n_;
  for (std::size_t col = 0; col < n_; ++col) {
    const std::uint8_t value = sc[col];
    if (value == 0) continue;
    if (present_[col]) {
      o.mul_add_region(sc + col, coeff_row(col) + col, value, n_ - col);
      EXTNC_DASSERT(sc[col] == 0);
      elim_rows_.push_back(payload_row(col));
      elim_factors_.push_back(value);
    } else if (pivot == n_) {
      pivot = col;
    }
  }
  // 2. Reduced to zero: linearly dependent (Gauss-Jordan detects this for
  // free, as the paper notes).
  if (pivot == n_) return false;

  // 3. The pivot's slots are free, so the row is built in place there.
  std::uint8_t* c = coeff_slot(pivot);
  std::uint8_t* x = payload_slot(pivot);
  std::copy(sc, sc + n_, c);
  std::copy(payload.begin(), payload.end(), x);
  o.mul_add_regions(x, elim_rows_.data(), elim_factors_.data(),
                    elim_rows_.size(), k_);
  const std::uint8_t scale = inv(c[pivot]);
  o.scale_region(c + pivot, scale, n_ - pivot);
  o.scale_region(x, scale, k_);

  // 4. Back-eliminate the new pivot column from every stored row. The new
  // row is zero left of its pivot, so only columns >= pivot change.
  for (std::size_t p = 0; p < n_; ++p) {
    if (!present_[p]) continue;
    const std::uint8_t factor = coeff_row(p)[pivot];
    if (factor == 0) continue;
    o.mul_add_region(coeff_slot(p) + pivot, c + pivot, factor, n_ - pivot);
    o.mul_add_region(payload_slot(p), x, factor, k_);
  }
  present_[pivot] = true;
  ++rank_;
  return true;
}

bool RrefBasis::check_invariant() const {
  std::size_t present_count = 0;
  for (std::size_t p = 0; p < n_; ++p) {
    if (!present_[p]) continue;
    ++present_count;
    const std::uint8_t* row = coeff_row(p);
    // Zero left of the pivot, 1 at the pivot.
    for (std::size_t c = 0; c < p; ++c) {
      if (row[c] != 0) return false;
    }
    if (row[p] != 1) return false;
    // The pivot column is zero in every other stored row.
    for (std::size_t q = 0; q < n_; ++q) {
      if (q == p || !present_[q]) continue;
      if (coeff_row(q)[p] != 0) return false;
    }
  }
  return present_count == rank_;
}

}  // namespace extnc::gf256
