#include "gf256/rref.h"

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "coding/block_decoder.h"
#include "coding/encoder.h"
#include "coding/progressive_decoder.h"
#include "gf256/gf.h"
#include "gf256/matrix.h"
#include "util/rng.h"

namespace extnc::gf256 {
namespace {

using Bytes = std::vector<std::uint8_t>;

// payload = coeffs * sources, where `sources` holds n rows of k bytes.
Bytes combine(const Bytes& coeffs, const Bytes& sources, std::size_t k) {
  Bytes out(k, 0);
  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    for (std::size_t b = 0; b < k; ++b) {
      out[b] ^= mul(coeffs[i], sources[i * k + b]);
    }
  }
  return out;
}

// A row whose first nonzero entry sits at column `lead`.
Bytes row_leading_at(std::size_t n, std::size_t lead, Rng& rng) {
  Bytes row(n, 0);
  row[lead] = rng.next_nonzero_byte();
  for (std::size_t c = lead + 1; c < n; ++c) row[c] = rng.next_byte();
  return row;
}

// The row-echelon rank that Matrix::rank computed before it moved onto
// RrefBasis: forward elimination with row swaps, scalar field ops.
std::size_t reference_rank(const Matrix& m) {
  std::vector<Bytes> rows;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    rows.emplace_back(m.row(r).begin(), m.row(r).end());
  }
  std::size_t rank = 0;
  for (std::size_t col = 0; col < m.cols() && rank < rows.size(); ++col) {
    std::size_t pivot = rank;
    while (pivot < rows.size() && rows[pivot][col] == 0) ++pivot;
    if (pivot == rows.size()) continue;
    std::swap(rows[rank], rows[pivot]);
    const std::uint8_t scale = inv(rows[rank][col]);
    for (auto& v : rows[rank]) v = mul(v, scale);
    for (std::size_t r = rank + 1; r < rows.size(); ++r) {
      const std::uint8_t factor = rows[r][col];
      for (std::size_t c = 0; c < m.cols(); ++c) {
        rows[r][c] ^= mul(factor, rows[rank][c]);
      }
    }
    ++rank;
  }
  return rank;
}

std::size_t probe_rank(const Matrix& m) {
  RrefBasis basis(m.cols(), 0);
  for (std::size_t r = 0; r < m.rows(); ++r) basis.add(m.row(r));
  return basis.rank();
}

TEST(RrefBasis, InvariantHoldsAfterEveryAddWithOutOfOrderPivots) {
  Rng rng(31);
  const std::size_t n = 10;
  const std::size_t k = 24;
  Bytes sources(n * k);
  for (auto& b : sources) b = rng.next_byte();

  RrefBasis basis(n, k);
  // Leading columns arrive out of order first, then dense rows fill the
  // remaining pivots; each stored row must stay consistent with the
  // sources (payload = coefficients * sources) as back-elimination
  // rewrites it.
  std::vector<Bytes> stream;
  for (std::size_t lead : {5u, 2u, 8u, 0u, 9u}) {
    stream.push_back(row_leading_at(n, lead, rng));
  }
  while (stream.size() < 4 * n) {
    Bytes row(n);
    for (auto& c : row) c = rng.next_byte();
    stream.push_back(row);
  }
  for (const Bytes& coeffs : stream) {
    basis.add(coeffs, combine(coeffs, sources, k));
    ASSERT_TRUE(basis.check_invariant()) << "rank=" << basis.rank();
    for (std::size_t p = 0; p < n; ++p) {
      const Bytes row(basis.coeff_row(p), basis.coeff_row(p) + n);
      if (row[p] != 1) continue;  // pivot not present yet
      const Bytes expected = combine(row, sources, k);
      ASSERT_TRUE(std::equal(expected.begin(), expected.end(),
                             basis.payload_row(p)))
          << "pivot " << p << " rank=" << basis.rank();
    }
  }
  ASSERT_TRUE(basis.is_full());
  // Full RREF is [I | sources].
  for (std::size_t p = 0; p < n; ++p) {
    EXPECT_TRUE(std::equal(sources.begin() + p * k,
                           sources.begin() + (p + 1) * k,
                           basis.payload_row(p)));
  }
}

TEST(RrefBasis, DependentRowLeavesStoredBytesUntouched) {
  Rng rng(32);
  const std::size_t n = 8;
  const std::size_t k = 40;
  RrefBasis basis(n, k);
  std::vector<Bytes> held;
  for (std::size_t lead : {6u, 1u, 3u}) {
    Bytes coeffs = row_leading_at(n, lead, rng);
    Bytes payload(k);
    for (auto& b : payload) b = rng.next_byte();
    ASSERT_TRUE(basis.add(coeffs, payload));
    held.push_back(coeffs);
  }
  const Bytes coeffs_before(basis.coeff_row(0), basis.coeff_row(0) + n * n);
  const Bytes payload_before(basis.payload_row(0),
                             basis.payload_row(0) + n * k);

  // A combination of held rows, a scaled copy and the zero row are all
  // dependent whatever payload they carry.
  Bytes mix(n, 0);
  for (const Bytes& row : held) {
    const std::uint8_t f = rng.next_nonzero_byte();
    for (std::size_t c = 0; c < n; ++c) mix[c] ^= mul(f, row[c]);
  }
  Bytes scaled(n);
  for (std::size_t c = 0; c < n; ++c) scaled[c] = mul(7, held[1][c]);
  Bytes garbage(k);
  for (auto& b : garbage) b = rng.next_byte();
  for (const Bytes& dependent : {mix, scaled, Bytes(n, 0)}) {
    EXPECT_FALSE(basis.add(dependent, garbage));
    EXPECT_EQ(basis.rank(), held.size());
    EXPECT_TRUE(std::equal(coeffs_before.begin(), coeffs_before.end(),
                           basis.coeff_row(0)));
    EXPECT_TRUE(std::equal(payload_before.begin(), payload_before.end(),
                           basis.payload_row(0)));
  }
}

TEST(RrefBasis, PayloadFreeRankMatchesReferenceRank) {
  Rng rng(33);
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 1}, {6, 6}, {16, 16}, {3, 9}, {5, 24}, {9, 3}, {24, 5}, {0, 4},
      {4, 0}};
  for (const auto& [rows, cols] : shapes) {
    for (int trial = 0; trial < 4; ++trial) {
      // Full-rank dense draws, then rank-deficient products A * B with a
      // narrow inner dimension, with zero and duplicate rows mixed in.
      Matrix m = Matrix::random_dense(rows, cols, rng);
      if (trial > 0 && rows > 0 && cols > 0) {
        const std::size_t inner =
            1 + rng.next_below(std::min(rows, cols));
        m = Matrix::random_dense(rows, inner, rng)
                .multiply(Matrix::random_dense(inner, cols, rng));
      }
      if (trial == 3 && rows >= 2) {
        std::fill(m.row(0).begin(), m.row(0).end(), 0);
        std::copy(m.row(1).begin(), m.row(1).end(), m.row(rows - 1).begin());
      }
      const std::size_t expected = reference_rank(m);
      EXPECT_EQ(probe_rank(m), expected) << rows << "x" << cols;
      EXPECT_EQ(m.rank(), expected) << rows << "x" << cols;
    }
  }
}

TEST(RrefBasis, ProgressiveAndBlockDecodersDecideAlike) {
  Rng rng(34);
  const coding::Params params{.n = 12, .k = 64};
  const coding::Segment segment = coding::Segment::random(params, rng);
  const coding::Encoder encoder(segment);

  // A stream with duplicates, zero rows, scaled copies and sparse rows
  // whose pivots arrive out of order.
  std::vector<coding::CodedBlock> stream;
  auto from_coeffs = [&](const Bytes& coeffs) {
    coding::CodedBlock block(params);
    std::copy(coeffs.begin(), coeffs.end(), block.coefficients().begin());
    encoder.encode_with_coefficients(block.coefficients(), block.payload());
    return block;
  };
  while (stream.size() < 3 * params.n) {
    switch (rng.next_below(5)) {
      case 0:
        stream.push_back(from_coeffs(Bytes(params.n, 0)));
        break;
      case 1:
        if (!stream.empty()) {
          coding::CodedBlock copy = stream[rng.next_below(stream.size())];
          stream.push_back(std::move(copy));
        }
        break;
      case 2:
        if (!stream.empty()) {
          const auto& src = stream[rng.next_below(stream.size())];
          Bytes coeffs(params.n);
          const std::uint8_t f = rng.next_nonzero_byte();
          for (std::size_t c = 0; c < params.n; ++c) {
            coeffs[c] = mul(f, src.coefficients()[c]);
          }
          stream.push_back(from_coeffs(coeffs));
        }
        break;
      case 3:
        stream.push_back(from_coeffs(
            row_leading_at(params.n, rng.next_below(params.n), rng)));
        break;
      default:
        stream.push_back(encoder.encode(rng));
    }
  }
  // Then enough dense blocks to complete both decoders.
  for (std::size_t i = 0; i < params.n; ++i) {
    stream.push_back(encoder.encode(rng));
  }

  coding::ProgressiveDecoder progressive(params);
  coding::BlockDecoder block_decoder(params);
  std::size_t dependent = 0;
  using Result = coding::ProgressiveDecoder::Result;
  for (const coding::CodedBlock& block : stream) {
    const Result result = progressive.add(block);
    const bool accepted = block_decoder.add(block);
    ASSERT_EQ(accepted, result == Result::kAccepted);
    ASSERT_EQ(progressive.rank(), block_decoder.rank());
    if (result == Result::kLinearlyDependent) ++dependent;
  }
  EXPECT_GT(dependent, 0u);  // the stream really exercised rejection
  ASSERT_TRUE(progressive.is_complete());
  ASSERT_TRUE(block_decoder.is_ready());
  EXPECT_EQ(progressive.decoded_segment(), segment);
  EXPECT_EQ(block_decoder.decode(), segment);
}

}  // namespace
}  // namespace extnc::gf256
