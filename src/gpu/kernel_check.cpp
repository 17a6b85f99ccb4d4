#include "gpu/kernel_check.h"

#include <algorithm>
#include <utility>

#include "coding/block_decoder.h"
#include "coding/encoder.h"
#include "gpu/gpu_decoder.h"
#include "gpu/gpu_encoder.h"
#include "gpu/gpu_multiseg_decoder.h"
#include "gpu/gpu_recoder.h"
#include "gpu/hybrid_encoder.h"
#include "util/assert.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace extnc::gpu {

namespace {

using simgpu::Checker;
using simgpu::CheckConfig;

// Pin the process-default engine for the sweep so every kAuto launch
// resolves the same way, restoring the previous default on exit.
class EngineGuard {
 public:
  explicit EngineGuard(simgpu::ExecEngine engine)
      : saved_(simgpu::default_engine()) {
    simgpu::set_default_engine(engine);
  }
  ~EngineGuard() { simgpu::set_default_engine(saved_); }
  EngineGuard(const EngineGuard&) = delete;
  EngineGuard& operator=(const EngineGuard&) = delete;

 private:
  simgpu::ExecEngine saved_;
};

Checker make_checker() {
  CheckConfig config;
  config.mode = CheckConfig::Mode::kCollect;  // sweep everything, throw never
  return Checker(config);
}

// n linearly independent coded blocks of `segment` (decoders require
// independence by construction for a deterministic sweep).
coding::CodedBatch independent_batch(const coding::Segment& segment,
                                     Rng& rng) {
  const coding::Params& params = segment.params();
  const coding::Encoder encoder(segment);
  coding::BlockDecoder probe(params);
  coding::CodedBatch batch(params, params.n);
  std::size_t stored = 0;
  while (stored < params.n) {
    coding::CodedBlock block = encoder.encode(rng);
    if (!probe.add(block)) continue;
    std::copy(block.coefficients().begin(), block.coefficients().end(),
              batch.coefficients(stored).begin());
    std::copy(block.payload().begin(), block.payload().end(),
              batch.payload(stored).begin());
    ++stored;
  }
  return batch;
}

KernelCheckCase check_encode(const simgpu::DeviceSpec& spec,
                             const KernelCheckOptions& options,
                             EncodeScheme scheme) {
  Checker checker = make_checker();
  Rng rng(options.seed);
  const coding::Segment segment =
      coding::Segment::random(options.params, rng);
  GpuEncoder encoder(spec, segment, scheme, /*profiler=*/nullptr, "encode",
                     /*injector=*/nullptr, &checker);
  encoder.encode_batch(options.batch_blocks, rng);
  return {std::string("encode/") + scheme_label(scheme), checker.report()};
}

KernelCheckCase check_decode_single(const simgpu::DeviceSpec& spec,
                                    const KernelCheckOptions& options,
                                    DecodeOptions decode_options,
                                    std::string name) {
  Checker checker = make_checker();
  Rng rng(options.seed);
  const coding::Segment segment =
      coding::Segment::random(options.params, rng);
  const coding::CodedBatch batch = independent_batch(segment, rng);
  GpuSingleSegmentDecoder decoder(spec, options.params, decode_options);
  decoder.attach_checker(&checker);
  for (std::size_t j = 0; j < batch.count() && !decoder.is_complete(); ++j) {
    decoder.add(batch.coefficients(j), batch.payload(j));
  }
  EXTNC_CHECK(decoder.is_complete());
  return {std::move(name), checker.report()};
}

KernelCheckCase check_decode_multiseg(const simgpu::DeviceSpec& spec,
                                      const KernelCheckOptions& options) {
  Checker checker = make_checker();
  Rng rng(options.seed);
  std::vector<coding::CodedBatch> batches;
  for (int s = 0; s < 2; ++s) {
    batches.push_back(independent_batch(
        coding::Segment::random(options.params, rng), rng));
  }
  GpuMultiSegmentDecoder decoder(spec, options.params);
  decoder.launcher().set_checker(&checker);
  decoder.decode_all(batches);
  return {"decode/multiseg", checker.report()};
}

KernelCheckCase check_recode(const simgpu::DeviceSpec& spec,
                             const KernelCheckOptions& options) {
  Checker checker = make_checker();
  Rng rng(options.seed);
  const coding::Segment segment =
      coding::Segment::random(options.params, rng);
  const coding::CodedBatch received = independent_batch(segment, rng);
  gpu_recode(spec, received, options.batch_blocks, rng,
             EncodeScheme::kTable5, /*profiler=*/nullptr, &checker);
  return {"recode", checker.report()};
}

KernelCheckCase check_hybrid(const simgpu::DeviceSpec& spec,
                             const KernelCheckOptions& options) {
  Checker checker = make_checker();
  Rng rng(options.seed);
  const coding::Segment segment =
      coding::Segment::random(options.params, rng);
  ThreadPool pool(2);
  HybridEncoder hybrid(spec, segment, pool);
  hybrid.attach_checker(&checker);
  hybrid.encode_batch(options.batch_blocks, rng);
  return {"hybrid", checker.report()};
}

}  // namespace

std::vector<KernelCheckCase> run_kernel_checks(
    const simgpu::DeviceSpec& spec, simgpu::ExecEngine engine,
    const KernelCheckOptions& options) {
  EXTNC_CHECK(options.params.n % 4 == 0);
  EXTNC_CHECK(options.params.k % 4 == 0);
  EngineGuard guard(engine);

  std::vector<KernelCheckCase> cases;
  for (EncodeScheme scheme :
       {EncodeScheme::kLoopBased, EncodeScheme::kTable0, EncodeScheme::kTable1,
        EncodeScheme::kTable2, EncodeScheme::kTable3, EncodeScheme::kTable4,
        EncodeScheme::kTable5}) {
    cases.push_back(check_encode(spec, options, scheme));
  }
  cases.push_back(check_decode_single(spec, options, DecodeOptions{},
                                      "decode/single"));
  cases.push_back(check_decode_single(
      spec, options, DecodeOptions{.cache_coefficients = true},
      "decode/single+cache"));
  if (spec.has_shared_atomics) {
    cases.push_back(check_decode_single(
        spec, options, DecodeOptions{.use_atomic_min = true},
        "decode/single+atomic"));
    cases.push_back(check_decode_single(
        spec, options,
        DecodeOptions{.use_atomic_min = true, .cache_coefficients = true},
        "decode/single+atomic+cache"));
  }
  cases.push_back(check_decode_multiseg(spec, options));
  cases.push_back(check_recode(spec, options));
  cases.push_back(check_hybrid(spec, options));
  return cases;
}

}  // namespace extnc::gpu
