// Contiguous batch of coded blocks: an m x n coefficient matrix plus an
// m x k payload matrix. High-rate encoders (streaming servers emitting
// hundreds of thousands of blocks per segment, Sec. 5.1.1) produce into a
// batch rather than allocating per-block objects.
#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "coding/coded_block.h"
#include "coding/params.h"
#include "util/aligned_buffer.h"

namespace extnc::coding {

class CodedBatch {
 public:
  CodedBatch() = default;
  CodedBatch(Params params, std::size_t count)
      : params_(params),
        count_(count),
        coefficients_(count * params.n),
        payloads_(count * params.k) {}

  const Params& params() const { return params_; }
  std::size_t count() const { return count_; }

  std::span<std::uint8_t> coefficients(std::size_t j) {
    return coefficients_.subspan(j * params_.n, params_.n);
  }
  std::span<const std::uint8_t> coefficients(std::size_t j) const {
    return coefficients_.subspan(j * params_.n, params_.n);
  }
  std::span<std::uint8_t> payload(std::size_t j) {
    return payloads_.subspan(j * params_.k, params_.k);
  }
  std::span<const std::uint8_t> payload(std::size_t j) const {
    return payloads_.subspan(j * params_.k, params_.k);
  }

  std::uint8_t* coefficients_data() { return coefficients_.data(); }
  const std::uint8_t* coefficients_data() const { return coefficients_.data(); }
  std::uint8_t* payloads_data() { return payloads_.data(); }
  const std::uint8_t* payloads_data() const { return payloads_.data(); }

  CodedBlock block(std::size_t j) const {
    CodedBlock b(params_);
    auto c = coefficients(j);
    auto p = payload(j);
    std::copy(c.begin(), c.end(), b.coefficients().begin());
    std::copy(p.begin(), p.end(), b.payload().begin());
    return b;
  }

  // Hands over the count x k payload matrix, leaving the batch without
  // payloads.
  AlignedBuffer take_payloads() && { return std::move(payloads_); }

  // Total coded bytes produced (the paper's bandwidth numerator counts
  // payload bytes of generated coded blocks).
  std::size_t payload_bytes() const { return count_ * params_.k; }

 private:
  Params params_;
  std::size_t count_ = 0;
  AlignedBuffer coefficients_;
  AlignedBuffer payloads_;
};

}  // namespace extnc::coding
