// Pinned launch profiles of the encode kernels and the multi-segment
// decoder: every launch's label, geometry, KernelMetrics fields and modeled
// time, the encoders' and decoder's metric buckets, and a digest of the
// output bytes, for a fixed set of shapes. The expected records in
// data/pinned_profiles.txt were written by this test; any change to a
// kernel's launch sequence, geometry or accounting shows up as a line diff.
// The records are engine- and fast-path-independent, so the test passes
// under EXTNC_SIMGPU_ENGINE=parallel and EXTNC_SIMGPU_FAST=0 too.
// Regenerate only after an intentional cost-model change, with:
//   EXTNC_REGEN_GOLDEN=1 ./gpu_test --gtest_filter='PinnedProfiles.*'
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gpu/gpu_encoder.h"
#include "gpu/gpu_multiseg_decoder.h"
#include "launch_record.h"
#include "simgpu/profiler.h"

#ifndef EXTNC_TEST_DATA_DIR
#define EXTNC_TEST_DATA_DIR "."
#endif

namespace extnc::gpu {
namespace {

using coding::CodedBatch;
using coding::Params;
using coding::Segment;
using test::append_launches;
using test::append_metrics;

std::string golden_path() {
  return std::string(EXTNC_TEST_DATA_DIR) + "/pinned_profiles.txt";
}

struct Shape {
  Params params;
  std::size_t count;
};

void record_encoder(std::ostringstream& os, const simgpu::DeviceSpec& spec,
                    EncodeScheme scheme, const Shape& shape) {
  Rng rng(7);
  const Segment segment = Segment::random(shape.params, rng);
  simgpu::Profiler prof;
  GpuEncoder encoder(spec, segment, scheme, &prof);
  const CodedBatch batch = encoder.encode_batch(shape.count, rng);
  const std::uint64_t digest = test::batch_digest(batch);
  os << "encode " << spec.name << " " << scheme_label(scheme)
     << " n=" << shape.params.n << " k=" << shape.params.k
     << " count=" << shape.count << " digest=" << std::hex << digest
     << std::dec << "\n";
  append_launches(os, prof);
  os << "  encode_metrics";
  append_metrics(os, encoder.encode_metrics());
  os << "\n  preprocess_metrics";
  append_metrics(os, encoder.preprocess_metrics());
  os << "\n";
}

void record_multiseg(std::ostringstream& os, const simgpu::DeviceSpec& spec,
                     const Params& params, std::size_t segments) {
  Rng rng(11);
  std::vector<Segment> sources;
  std::vector<CodedBatch> batches;
  for (std::size_t s = 0; s < segments; ++s) {
    sources.push_back(Segment::random(params, rng));
    batches.push_back(test::independent_batch(sources.back(), rng));
  }
  simgpu::Profiler prof;
  GpuMultiSegmentDecoder decoder(spec, params);
  decoder.attach_profiler(&prof);
  const std::vector<Segment> decoded = decoder.decode_all(batches);
  ASSERT_EQ(decoded.size(), segments);
  std::uint64_t digest = test::kFnvBasis;
  for (std::size_t s = 0; s < segments; ++s) {
    EXPECT_EQ(decoded[s], sources[s]) << spec.name << " segment " << s;
    digest = test::fnv(digest, decoded[s].data(), params.segment_bytes());
  }
  os << "multiseg " << spec.name << " n=" << params.n << " k=" << params.k
     << " segments=" << segments << " digest=" << std::hex << digest
     << std::dec << "\n";
  append_launches(os, prof);
  os << "  stage1_metrics";
  append_metrics(os, decoder.stage1_metrics());
  os << "\n  stage2_metrics";
  append_metrics(os, decoder.stage2_metrics());
  os << "\n";
}

TEST(PinnedProfiles, EncodeAndMultiSegmentLaunchesMatchRecords) {
  const EncodeScheme schemes[] = {
      EncodeScheme::kLoopBased, EncodeScheme::kTable0, EncodeScheme::kTable1,
      EncodeScheme::kTable2,    EncodeScheme::kTable3, EncodeScheme::kTable4,
      EncodeScheme::kTable5};
  // Aligned (half-warps never straddle coded blocks) and straddling.
  const Shape shapes[] = {{{.n = 16, .k = 256}, 16}, {{.n = 12, .k = 200}, 7}};
  std::ostringstream os;
  for (const simgpu::DeviceSpec* spec :
       {&simgpu::gtx280(), &simgpu::geforce_8800gt()}) {
    for (const Shape& shape : shapes) {
      for (const EncodeScheme scheme : schemes) {
        record_encoder(os, *spec, scheme, shape);
      }
    }
    record_multiseg(os, *spec, {.n = 16, .k = 256}, 3);
  }
  const std::string actual = os.str();
  if (std::getenv("EXTNC_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::binary);
    out << actual;
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    GTEST_SKIP() << "regenerated " << golden_path();
  }
  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing " << golden_path();
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(test::first_difference(expected.str(), actual), "");
}

}  // namespace
}  // namespace extnc::gpu
