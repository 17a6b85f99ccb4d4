#include "cpu/multi_segment_decoder.h"

#include <utility>

#include "coding/progressive_decoder.h"
#include "util/assert.h"

namespace extnc::cpu {

MultiSegmentDecoder::MultiSegmentDecoder(coding::Params params,
                                         ThreadPool& pool)
    : params_(params), pool_(&pool) {
  params_.validate();
}

std::vector<coding::Segment> MultiSegmentDecoder::decode_all(
    const std::vector<coding::CodedBatch>& segments) const {
  for (const auto& batch : segments) {
    EXTNC_CHECK(batch.params() == params_);
    EXTNC_CHECK(batch.count() == params_.n);
  }
  std::vector<coding::Segment> decoded(segments.size());
  pool_->run_batch(segments.size(), [this, &segments,
                                     &decoded](std::size_t s) {
    coding::ProgressiveDecoder decoder(params_);
    const coding::CodedBatch& batch = segments[s];
    for (std::size_t j = 0; j < batch.count(); ++j) {
      const auto result = decoder.add(batch.coefficients(j), batch.payload(j));
      EXTNC_CHECK(result == coding::ProgressiveDecoder::Result::kAccepted);
    }
    decoded[s] = std::move(decoder).take_decoded_segment();
  });
  return decoded;
}

}  // namespace extnc::cpu
