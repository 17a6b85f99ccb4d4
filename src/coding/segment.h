// A segment: n source blocks of k bytes, stored contiguously (block i at
// offset i*k). This matches the paper's media-segment model (e.g. a 512 KB
// video segment split into 128 blocks of 4 KB).
#pragma once

#include <cstdint>
#include <span>

#include "coding/params.h"
#include "util/aligned_buffer.h"
#include "util/rng.h"

namespace extnc::coding {

class Segment {
 public:
  Segment() = default;
  explicit Segment(Params params);
  // Takes over `data`, which must hold exactly n*k bytes.
  Segment(Params params, AlignedBuffer data);

  // Builds a segment from raw content. Content shorter than n*k is
  // zero-padded; longer content is rejected.
  static Segment from_bytes(Params params, std::span<const std::uint8_t> data);

  // Random content; the standard test/bench workload.
  static Segment random(Params params, Rng& rng);

  const Params& params() const { return params_; }

  std::span<const std::uint8_t> block(std::size_t i) const;
  std::span<std::uint8_t> block(std::size_t i);

  std::span<const std::uint8_t> bytes() const { return data_.span(); }
  std::span<std::uint8_t> bytes() { return data_.span(); }
  const std::uint8_t* data() const { return data_.data(); }
  std::uint8_t* data() { return data_.data(); }

  friend bool operator==(const Segment& a, const Segment& b);

 private:
  Params params_;
  AlignedBuffer data_;
};

}  // namespace extnc::coding
