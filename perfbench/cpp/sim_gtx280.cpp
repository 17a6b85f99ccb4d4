// sim_gtx280: the paper's kernels on the simulated GTX 280 with the fast
// path as the process selected it (on unless EXTNC_SIMGPU_FAST=0). One
// pass is a gpu::GpuEncoder tb5 batch, a loop-based batch (n=32, k=4 KiB,
// 64 blocks each) and a 6-segment gpu::GpuMultiSegmentDecoder::decode_all.
// The measure is the simulator's host time at paper-sized launches.
//
// Every pass runs the same inputs: GPU output must equal the CPU reference
// encoder's, each decoded segment must equal its source, and every modeled
// kernel counter must equal the first pass's.
//
// The engine is pinned to serial through the public API: the shipping
// kAuto engine races in the fast path on multi-core hosts.
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "coding/encoder.h"
#include "gpu/gpu_encoder.h"
#include "gpu/gpu_multiseg_decoder.h"
#include "harness.h"
#include "simgpu/device_spec.h"
#include "simgpu/exec_engine.h"
#include "simgpu/profiler.h"

namespace perfbench {
namespace {

using extnc::Rng;
namespace coding = extnc::coding;
namespace gpu = extnc::gpu;
namespace simgpu = extnc::simgpu;

constexpr coding::Params kParams{.n = 32, .k = 4096};

struct Inputs {
  coding::Segment segment;
  coding::CodedBatch tb5_expected;   // coefficients + reference payloads
  coding::CodedBatch loop_expected;
  std::vector<coding::Segment> decode_sources;
  std::vector<coding::CodedBatch> decode_in;
};

coding::CodedBatch reference_batch(const coding::Segment& segment,
                                   std::size_t blocks, Rng& rng) {
  const coding::Encoder reference(segment);
  coding::CodedBatch batch(kParams, blocks);
  for (std::size_t j = 0; j < blocks; ++j) {
    reference.draw_coefficients(rng, batch.coefficients(j));
    reference.encode_with_coefficients(batch.coefficients(j),
                                       batch.payload(j));
  }
  return batch;
}

Inputs make_inputs(const Options& options) {
  const std::size_t blocks = options.quick ? 16 : 64;
  const std::size_t segments = options.quick ? 3 : 6;
  Rng rng(derive_seed(options.seed, 1));
  Inputs in;
  in.segment = coding::Segment::random(kParams, rng);
  in.tb5_expected = reference_batch(in.segment, blocks, rng);
  in.loop_expected = reference_batch(in.segment, blocks, rng);
  for (std::size_t s = 0; s < segments; ++s) {
    in.decode_sources.push_back(coding::Segment::random(kParams, rng));
    in.decode_in.push_back(independent_batch(in.decode_sources.back(), rng));
  }
  return in;
}

// The simulated-device objects, built once before the first pass.
struct Device {
  std::unique_ptr<gpu::GpuEncoder> tb5;
  std::unique_ptr<gpu::GpuEncoder> loop;
  std::unique_ptr<gpu::GpuMultiSegmentDecoder> multiseg;
};

struct Profilers {
  simgpu::Profiler tb5;
  simgpu::Profiler loop;
  simgpu::Profiler multiseg;
};

Device build_device(const coding::Segment& segment, Profilers* profilers) {
  const simgpu::DeviceSpec& spec = simgpu::gtx280();
  Device device;
  {
    const ScopedSpan span("gpu.encoder_ctor");
    device.tb5 = std::make_unique<gpu::GpuEncoder>(
        spec, segment, gpu::EncodeScheme::kTable5,
        profilers ? &profilers->tb5 : nullptr);
  }
  device.loop = std::make_unique<gpu::GpuEncoder>(
      spec, segment, gpu::EncodeScheme::kLoopBased,
      profilers ? &profilers->loop : nullptr);
  {
    const ScopedSpan span("gpu.multiseg_ctor");
    device.multiseg =
        std::make_unique<gpu::GpuMultiSegmentDecoder>(spec, kParams);
  }
  if (profilers) device.multiseg->attach_profiler(&profilers->multiseg);
  return device;
}

// Every modeled counter of one pass, in a fixed order.
std::vector<std::uint64_t> modeled_counters(const Device& device) {
  std::vector<std::uint64_t> out;
  for (const simgpu::KernelMetrics* m :
       {&device.tb5->encode_metrics(), &device.tb5->preprocess_metrics(),
        &device.loop->encode_metrics(), &device.multiseg->stage1_metrics(),
        &device.multiseg->stage2_metrics()}) {
    out.insert(out.end(),
               {m->alu_deciops, m->global_load_bytes, m->global_store_bytes,
                m->global_transactions, m->shared_accesses,
                m->shared_access_events, m->shared_serialized_cycles,
                m->texture_fetches, m->texture_misses, m->atomic_ops,
                m->barriers, m->kernel_launches});
  }
  return out;
}

struct PassTimes {
  double tb5_s = 0;
  double loop_s = 0;
  double decode_s = 0;
};

// One pass; failures are counted into `result` (3 operations per pass).
PassTimes run_pass(Device& device, const Inputs& in, bool corrupt,
                   Result& result) {
  device.tb5->reset_metrics();
  device.loop->reset_metrics();
  device.multiseg->reset_metrics();
  coding::CodedBatch tb5 = in.tb5_expected;  // coefficients; payloads are
  coding::CodedBatch loop = in.loop_expected;  // overwritten by encode_into
  std::vector<coding::Segment> decoded;
  PassTimes times;
  double t0 = now_s();
  {
    const ScopedSpan span("gpu.encode_tb5");
    device.tb5->encode_into(tb5);
  }
  double t1 = now_s();
  times.tb5_s = t1 - t0;
  {
    const ScopedSpan span("gpu.encode_loop");
    device.loop->encode_into(loop);
  }
  t0 = now_s();
  times.loop_s = t0 - t1;
  {
    const ScopedSpan span("gpu.multiseg_decode");
    decoded = device.multiseg->decode_all(in.decode_in);
  }
  times.decode_s = now_s() - t0;

  if (corrupt) tb5.payload(0)[0] ^= 0x01;
  result.attempted += 3;
  const std::size_t payload = tb5.payload_bytes();
  if (std::memcmp(tb5.payloads_data(), in.tb5_expected.payloads_data(),
                  payload)) {
    result.fail(1, "tb5 batch differs from the CPU reference");
  }
  if (std::memcmp(loop.payloads_data(), in.loop_expected.payloads_data(),
                  payload)) {
    result.fail(1, "loop-based batch differs from the CPU reference");
  }
  for (std::size_t s = 0; s < decoded.size(); ++s) {
    if (!(decoded[s] == in.decode_sources[s])) {
      result.fail(1, "multi-segment decode differs from the source");
      break;
    }
  }
  return times;
}

void trace_sim(const Inputs& in, Result& result) {
  Profilers profilers;
  tracer().set_enabled(true);
  Device device = build_device(in.segment, &profilers);
  tracer().set_enabled(false);

  // Untraced warm-up and reference passes.
  std::vector<double> untraced;
  for (int r = 0; r < 3; ++r) {
    const PassTimes t = run_pass(device, in, false, result);
    if (r > 0) untraced.push_back(t.tb5_s + t.loop_s + t.decode_s);
  }
  profilers.tb5.clear();
  profilers.loop.clear();
  profilers.multiseg.clear();
  const SimCounters before = sim_counters();

  tracer().set_enabled(true);
  const PassTimes traced = run_pass(device, in, false, result);
  tracer().set_enabled(false);
  const SimCounters after = sim_counters();

  std::size_t blocks = 0;
  double alu_ops = 0;
  for (const simgpu::Profiler* p :
       {&profilers.tb5, &profilers.loop, &profilers.multiseg}) {
    for (const simgpu::LaunchProfile& launch : p->launches()) {
      blocks += launch.blocks;
      alu_ops += launch.metrics.alu_ops();
    }
  }
  const double coded_mb =
      static_cast<double>(in.tb5_expected.payload_bytes()) / kMB;
  const double decoded_mb =
      static_cast<double>(in.decode_in.size() * kParams.n * kParams.k) / kMB;
  const double traced_s = traced.tb5_s + traced.loop_s + traced.decode_s;

  result.add("gpu.encoder_ctor_ms",
             span_totals("gpu.encoder_ctor").total_s * 1e3, "ms");
  result.add("gpu.multiseg_ctor_ms",
             span_totals("gpu.multiseg_ctor").total_s * 1e3, "ms");
  result.add("gpu.encode_tb5_ms", traced.tb5_s * 1e3, "ms");
  result.add("gpu.encode_loop_ms", traced.loop_s * 1e3, "ms");
  result.add("gpu.multiseg_decode_ms", traced.decode_s * 1e3, "ms");
  result.add("simgpu.host_ns_per_kinstr", traced_s * 1e9 / (alu_ops / 1e3),
             "ns");
  result.add("simgpu.launches", after.launches - before.launches, "count");
  result.add("simgpu.fast_block_share",
             (after.lowered_blocks - before.lowered_blocks) /
                 static_cast<double>(blocks),
             "ratio");
  result.add("simgpu.timing_memo_hits", after.memo_hits - before.memo_hits,
             "count");
  result.add("gpu.model_tb5_mb_s", coded_mb / profilers.tb5.total_seconds(),
             "MB/s");
  result.add("gpu.model_loop_mb_s",
             coded_mb / profilers.loop.total_seconds(), "MB/s");
  result.add("gpu.model_multiseg_mb_s",
             decoded_mb / profilers.multiseg.total_seconds(), "MB/s");
  result.add("trace.overhead_share", traced_s / median(untraced) - 1,
             "ratio");
}

}  // namespace

Result run_sim_gtx280(const Options& options) {
  simgpu::set_default_engine(simgpu::ExecEngine::kSerial);
  Result result;
  result.stamp_number("pool_threads", 1);
  const Inputs in = make_inputs(options);
  if (options.trace) {
    trace_sim(in, result);
    return result;
  }

  // Set-up: construct the device objects (segment preprocessing included)
  // and run one warm-up pass, which does the work the kernels initialise
  // lazily on first launch. Timed every 8th pass on a throwaway device.
  // Pass 0 is the serving device's own warm-up and is not timed.
  Device device = build_device(in.segment, nullptr);
  Samples setup;
  Samples encode_s;
  Samples decode_s;
  Samples pass_s;
  std::vector<std::uint64_t> first_counters;
  const Deadline deadline(options.seconds);
  for (int pass = 0;; ++pass) {
    if (pass % 8 == 0) {
      const double t0 = now_s();
      Device spare = build_device(in.segment, nullptr);
      const double built_s = now_s() - t0;
      const PassTimes warm = run_pass(spare, in, false, result);
      setup.add(built_s + warm.tb5_s + warm.loop_s + warm.decode_s);
    }
    const PassTimes t =
        run_pass(device, in, options.inject_fault && pass == 0, result);
    const std::vector<std::uint64_t> counters = modeled_counters(device);
    if (pass == 0) {
      first_counters = counters;
    } else {
      result.attempted += 1;
      if (counters != first_counters) {
        result.fail(1, "modeled counters differ from the first pass");
      }
      encode_s.add(t.tb5_s + t.loop_s);
      decode_s.add(t.decode_s);
      pass_s.add(t.tb5_s + t.loop_s + t.decode_s);
    }
    if (options.quick ? pass >= 1 : pass >= 8 && deadline.expired()) break;
  }

  const double coded_mb =
      static_cast<double>(2 * in.tb5_expected.payload_bytes()) / kMB;
  const double decoded_mb =
      static_cast<double>(in.decode_in.size() * kParams.n * kParams.k) / kMB;
  result.add("setup_s", setup.fastest_window_median(), "s");
  result.add("encode_mb_s", coded_mb / encode_s.fastest_window_median(),
             "MB/s");
  result.add("decode_mb_s", decoded_mb / decode_s.fastest_window_median(),
             "MB/s");
  result.add_latency(pass_s, "pass");
  std::fprintf(stderr, "sim_gtx280: %zu timed passes, %zu set-ups\n",
               pass_s.size(), setup.size());
  return result;
}

}  // namespace perfbench
