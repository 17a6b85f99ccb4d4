// Seeded sweep of the fast-path lowerings against the interpreter on
// geometries no fixed-shape test picked. Each draw fixes a device, a
// scheme, n (n % 4 == 0), k (k % 4 == 0, its word count cycling through
// every residue modulo a half-warp), a coded-block count (half the draws
// below a half-warp) and a segment count, then runs the encoder (whose
// preprocessed schemes launch both log-domain transforms), a multi-segment
// decode_all (a tb5 stage 2, so both transforms again) and gpu_recode with
// the fast path off and on. Outputs and every launch's label, geometry,
// KernelMetrics fields and modeled time must be equal, and the encode and
// transform launches must equal their static models. A failing draw prints
// its tuple; each one found belongs in a fixed-shape regression test.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "gpu/gpu_encoder.h"
#include "gpu/gpu_multiseg_decoder.h"
#include "gpu/gpu_recoder.h"
#include "gpu/kernel_audit.h"
#include "launch_record.h"
#include "simgpu/exec_engine.h"
#include "simgpu/profiler.h"

namespace extnc::gpu {
namespace {

using coding::CodedBatch;
using coding::Params;
using coding::Segment;

constexpr EncodeScheme kAllSchemes[] = {
    EncodeScheme::kLoopBased, EncodeScheme::kTable0, EncodeScheme::kTable1,
    EncodeScheme::kTable2,    EncodeScheme::kTable3, EncodeScheme::kTable4,
    EncodeScheme::kTable5};

// Pin the process-wide fast-path toggle for one scope; restores on exit.
class ScopedFastPath {
 public:
  explicit ScopedFastPath(bool enabled)
      : saved_(simgpu::fast_path_enabled()) {
    simgpu::set_fast_path_enabled(enabled);
  }
  ~ScopedFastPath() { simgpu::set_fast_path_enabled(saved_); }
  ScopedFastPath(const ScopedFastPath&) = delete;
  ScopedFastPath& operator=(const ScopedFastPath&) = delete;

 private:
  bool saved_;
};

struct Draw {
  std::uint64_t seed = 0;
  const simgpu::DeviceSpec* spec = nullptr;
  EncodeScheme scheme = EncodeScheme::kLoopBased;
  std::size_t n = 0;
  std::size_t k = 0;
  std::size_t blocks = 0;    // coded blocks encoded and recoded
  std::size_t segments = 0;  // decode_all's segments

  std::string tuple() const {
    std::ostringstream os;
    os << "seed=" << seed << " device=" << spec->name
       << " scheme=" << scheme_label(scheme) << " n=" << n << " k=" << k
       << " blocks=" << blocks << " segments=" << segments;
    return os.str();
  }
};

Draw draw(std::uint64_t seed) {
  Rng rng(seed);
  Draw d;
  d.seed = seed;
  d.spec = rng.next_below(2) == 0 ? &simgpu::gtx280()
                                  : &simgpu::geforce_8800gt();
  d.scheme = kAllSchemes[rng.next_below(7)];
  d.n = 4 * (1 + rng.next_below(8));
  // Words per row: residue seed % 16 (each residue modulo every half-warp
  // width once per 16 seeds), plus 0-2 half-warps of 16.
  const std::size_t words = seed % 16 + 16 * rng.next_below(3);
  d.k = 4 * (words == 0 ? 16 : words);
  d.blocks = 1 + rng.next_below(seed % 2 == 0 ? 15 : 48);
  d.segments = 1 + rng.next_below(4);
  return d;
}

// Everything one draw makes observable, serialized; the interpreted run
// also checks the encode and transform launches against their models.
std::string run_draw(const Draw& d, bool fast) {
  const ScopedFastPath path(fast);
  const simgpu::DeviceSpec& spec = *d.spec;
  const Params params{.n = d.n, .k = d.k};
  Rng rng(d.seed);
  std::ostringstream os;

  // Encode; about one coefficient in five is zero, so sentinel skips run.
  const Segment segment = Segment::random(params, rng);
  CodedBatch batch(params, d.blocks);
  for (std::size_t j = 0; j < d.blocks; ++j) {
    for (auto& c : batch.coefficients(j)) {
      c = rng.next_below(5) == 0 ? 0 : rng.next_nonzero_byte();
    }
  }
  {
    simgpu::Profiler prof;
    GpuEncoder encoder(spec, segment, d.scheme, &prof);
    encoder.encode_into(batch);
    os << "encode digest=" << test::batch_digest(batch) << "\n";
    test::append_launches(os, prof);
    if (!fast) {
      for (const simgpu::LaunchProfile& l : prof.launches()) {
        const std::string kernel = l.label.substr(l.label.rfind('/') + 1);
        simgpu::KernelMetrics model;
        if (kernel == "preprocess_segment") {
          model = preprocess_segment_model(spec, params).totals();
        } else if (kernel == "preprocess_coeffs") {
          model = preprocess_coefficients_model(spec, params, d.blocks)
                      .totals();
        } else {
          model = encode_kernel_model(spec, d.scheme, segment, batch).totals();
        }
        std::ostringstream want;
        std::ostringstream got;
        test::append_metrics(want, model);
        test::append_metrics(got, l.metrics);
        EXPECT_EQ(want.str(), got.str()) << d.tuple() << " model of "
                                         << l.label;
      }
    }
  }

  // Multi-segment decode.
  {
    std::vector<Segment> sources;
    std::vector<CodedBatch> coded;
    for (std::size_t s = 0; s < d.segments; ++s) {
      sources.push_back(Segment::random(params, rng));
      coded.push_back(test::independent_batch(sources.back(), rng));
    }
    simgpu::Profiler prof;
    GpuMultiSegmentDecoder decoder(spec, params);
    decoder.attach_profiler(&prof);
    const std::vector<Segment> decoded = decoder.decode_all(coded);
    EXPECT_EQ(decoded, sources) << d.tuple();
    os << "decode_all\n";
    test::append_launches(os, prof);
  }

  // Recode the encoded batch.
  {
    simgpu::Profiler prof;
    const CodedBatch recoded =
        gpu_recode(spec, batch, d.blocks, rng, d.scheme, &prof);
    os << "recode digest=" << test::batch_digest(recoded) << "\n";
    test::append_launches(os, prof);
  }
  return os.str();
}

TEST(FastPathSweep, SeededDrawsMatchInterpreter) {
  for (std::uint64_t seed = 1; seed <= 256; ++seed) {
    const Draw d = draw(seed);
    const std::string interpreted = run_draw(d, false);
    const std::string fast = run_draw(d, true);
    EXPECT_EQ(test::first_difference(interpreted, fast), "") << d.tuple();
  }
}

}  // namespace
}  // namespace extnc::gpu
