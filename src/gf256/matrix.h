// Dense matrices over GF(2^8) with the operations network coding needs:
// Gauss-Jordan inversion (via [C | I] reduction, as the paper's
// multi-segment decoder does), rank, and block multiplication built on the
// SIMD region ops.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "util/aligned_buffer.h"
#include "util/rng.h"

namespace extnc::gf256 {

class Matrix {
 public:
  Matrix() = default;
  // rows x cols zero matrix.
  Matrix(std::size_t rows, std::size_t cols);

  static Matrix identity(std::size_t n);
  // Fully dense random matrix: every entry drawn from [1, 255], matching
  // the paper's "fully dense coding matrices with nonzero coefficients"
  // evaluation setup. Not guaranteed invertible.
  static Matrix random_dense(std::size_t rows, std::size_t cols, Rng& rng);
  // Random matrix guaranteed invertible (retry loop; a random dense GF(256)
  // matrix is invertible with probability ~0.996, so this converges fast).
  static Matrix random_invertible(std::size_t n, Rng& rng);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  std::uint8_t at(std::size_t r, std::size_t c) const;
  void set(std::size_t r, std::size_t c, std::uint8_t value);

  std::span<std::uint8_t> row(std::size_t r);
  std::span<const std::uint8_t> row(std::size_t r) const;

  const std::uint8_t* data() const { return storage_.data(); }
  std::uint8_t* data() { return storage_.data(); }

  // Matrix product this * other (dimensions must agree), using region ops:
  // result.row(i) = sum_j this[i][j] * other.row(j).
  Matrix multiply(const Matrix& other) const;

  // Multiply into raw row-major payload data: rows of `payload` are
  // `payload_cols` bytes long and there must be cols() of them. This is the
  // decoder's b = C^-1 * x step.
  void multiply_rows(const std::uint8_t* payload, std::size_t payload_cols,
                     std::uint8_t* out) const;

  // Gauss-Jordan inverse; nullopt when singular. Square matrices only.
  // Both this and rank() run on gf256::RrefBasis.
  std::optional<Matrix> inverted() const;

  std::size_t rank() const;

  friend bool operator==(const Matrix& a, const Matrix& b);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  AlignedBuffer storage_;
};

}  // namespace extnc::gf256
