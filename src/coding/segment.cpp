#include "coding/segment.h"

#include <cstring>
#include <utility>

namespace extnc::coding {

Segment::Segment(Params params) : params_(params), data_(params.segment_bytes()) {
  params_.validate();
}

Segment::Segment(Params params, AlignedBuffer data)
    : params_(params), data_(std::move(data)) {
  params_.validate();
  EXTNC_CHECK(data_.size() == params_.segment_bytes());
}

Segment Segment::from_bytes(Params params, std::span<const std::uint8_t> data) {
  Segment segment(params);
  EXTNC_CHECK(data.size() <= params.segment_bytes());
  if (!data.empty()) {
    std::memcpy(segment.data_.data(), data.data(), data.size());
  }
  return segment;
}

Segment Segment::random(Params params, Rng& rng) {
  Segment segment(params);
  for (auto& byte : segment.data_.span()) byte = rng.next_byte();
  return segment;
}

std::span<const std::uint8_t> Segment::block(std::size_t i) const {
  return data_.subspan(i * params_.k, params_.k);
}

std::span<std::uint8_t> Segment::block(std::size_t i) {
  return data_.subspan(i * params_.k, params_.k);
}

bool operator==(const Segment& a, const Segment& b) {
  return a.params_ == b.params_ && a.data_ == b.data_;
}

}  // namespace extnc::coding
