#include "gf256/matrix.h"

#include <cstring>
#include <vector>

#include "gf256/region.h"
#include "gf256/rref.h"
#include "util/assert.h"

namespace extnc::gf256 {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), storage_(rows * cols) {}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.set(i, i, 1);
  return m;
}

Matrix Matrix::random_dense(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows * cols; ++i) {
    m.storage_[i] = rng.next_nonzero_byte();
  }
  return m;
}

Matrix Matrix::random_invertible(std::size_t n, Rng& rng) {
  for (;;) {
    Matrix m = random_dense(n, n, rng);
    if (m.rank() == n) return m;
  }
}

std::uint8_t Matrix::at(std::size_t r, std::size_t c) const {
  EXTNC_DASSERT(r < rows_ && c < cols_);
  return storage_[r * cols_ + c];
}

void Matrix::set(std::size_t r, std::size_t c, std::uint8_t value) {
  EXTNC_DASSERT(r < rows_ && c < cols_);
  storage_[r * cols_ + c] = value;
}

std::span<std::uint8_t> Matrix::row(std::size_t r) {
  EXTNC_DASSERT(r < rows_);
  return storage_.subspan(r * cols_, cols_);
}

std::span<const std::uint8_t> Matrix::row(std::size_t r) const {
  EXTNC_DASSERT(r < rows_);
  return storage_.subspan(r * cols_, cols_);
}

Matrix Matrix::multiply(const Matrix& other) const {
  EXTNC_CHECK(cols_ == other.rows_);
  Matrix result(rows_, other.cols_);
  multiply_rows(other.data(), other.cols_, result.data());
  return result;
}

void Matrix::multiply_rows(const std::uint8_t* payload,
                           std::size_t payload_cols, std::uint8_t* out) const {
  const Ops& o = ops();
  std::vector<const std::uint8_t*> sources(cols_);
  for (std::size_t j = 0; j < cols_; ++j) {
    sources[j] = payload + j * payload_cols;
  }
  for (std::size_t i = 0; i < rows_; ++i) {
    std::uint8_t* out_row = out + i * payload_cols;
    std::memset(out_row, 0, payload_cols);
    o.mul_add_regions(out_row, sources.data(), storage_.data() + i * cols_,
                      cols_, payload_cols);
  }
}

std::optional<Matrix> Matrix::inverted() const {
  EXTNC_CHECK(rows_ == cols_);
  const std::size_t n = rows_;
  // Gauss-Jordan on [C | I], as the GPU multi-segment decoder's first
  // stage does: row i of C carries payload e_i, so the full basis is
  // [I | C^-1] and the payload row stored at pivot p is row p of C^-1.
  RrefBasis basis(n, n);
  AlignedBuffer unit(n);
  for (std::size_t i = 0; i < n; ++i) {
    unit[i] = 1;
    if (!basis.add(row(i), unit.span())) return std::nullopt;
    unit[i] = 0;
  }
  Matrix inverse(n, n);
  for (std::size_t p = 0; p < n; ++p) {
    std::memcpy(inverse.row(p).data(), basis.payload_row(p), n);
  }
  return inverse;
}

std::size_t Matrix::rank() const {
  RrefBasis basis(cols_, 0);
  for (std::size_t r = 0; r < rows_ && !basis.is_full(); ++r) basis.add(row(r));
  return basis.rank();
}

bool operator==(const Matrix& a, const Matrix& b) {
  return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.storage_ == b.storage_;
}

}  // namespace extnc::gf256
