#include "gpu/resilient_launcher.h"

#include <algorithm>

#include "simgpu/profiler.h"
#include "util/assert.h"
#include "util/metrics_registry.h"

namespace extnc::gpu {

namespace {

// Scoped registration of an operation's output buffer as the device memory
// an injected fault may damage. Cleared on scope exit so damage from one
// operation can never land in another's buffers.
class RegionWatch {
 public:
  RegionWatch(simgpu::FaultInjector* injector, std::span<std::uint8_t> region)
      : injector_(injector) {
    if (injector_ != nullptr) injector_->watch_region(region);
  }
  ~RegionWatch() {
    if (injector_ != nullptr) injector_->clear_regions();
  }
  RegionWatch(const RegionWatch&) = delete;
  RegionWatch& operator=(const RegionWatch&) = delete;

 private:
  simgpu::FaultInjector* injector_;
};

}  // namespace

// --- ResilientLauncher -----------------------------------------------------

ResilientLauncher::ResilientLauncher(SupervisorConfig config,
                                     simgpu::FaultInjector* injector)
    : config_(std::move(config)), injector_(injector) {
  EXTNC_CHECK(config_.max_attempts >= 1);
  EXTNC_CHECK(config_.breaker_threshold >= 1);
  EXTNC_CHECK(config_.backoff_factor >= 1.0);
}

void ResilientLauncher::adopt(simgpu::Launcher& launcher) const {
  launcher.set_fault_injector(injector_);
}

std::function<double()> ResilientLauncher::device_clock(
    std::function<double()> fallback) const {
  if (injector_ != nullptr) {
    simgpu::FaultInjector* injector = injector_;
    return [injector] { return injector->observed_seconds(); };
  }
  return fallback;
}

void ResilientLauncher::set_trace(simgpu::Profiler* profiler,
                                  const simgpu::DeviceSpec* spec) {
  trace_profiler_ = profiler;
  trace_spec_ = spec;
}

void ResilientLauncher::trace(const char* label) {
  if (trace_profiler_ != nullptr && trace_spec_ != nullptr) {
    trace_profiler_->record_launch(*trace_spec_, label,
                                   simgpu::KernelMetrics{});
  }
}

void ResilientLauncher::count(const char* metric, double delta) {
  metrics::count(config_.metric_prefix + "." + metric, delta);
}

void ResilientLauncher::set_clock(std::function<double()> now) {
  clock_ = std::move(now);
}

void ResilientLauncher::open_breaker() {
  breaker_opened_at_s_ = clock_ ? clock_() : 0.0;
  if (breaker_open_) return;
  breaker_open_ = true;
  metrics::gauge(config_.metric_prefix + ".breaker_open", 1);
  trace("fault/breaker_open");
}

void ResilientLauncher::close_breaker() {
  breaker_open_ = false;
  consecutive_failed_ops_ = 0;
  metrics::gauge(config_.metric_prefix + ".breaker_open", 0);
}

bool ResilientLauncher::half_open_due() const {
  return breaker_open_ && config_.breaker_cooldown_s > 0 && clock_ &&
         clock_() - breaker_opened_at_s_ >= config_.breaker_cooldown_s;
}

void ResilientLauncher::trip_breaker() {
  open_breaker();
}

void ResilientLauncher::reset_breaker() {
  close_breaker();
  if (injector_ != nullptr) injector_->restore_device();
}

OperationReport ResilientLauncher::run(const SupervisedOp& op) {
  EXTNC_CHECK(op.gpu != nullptr);
  OperationReport report;
  ++totals_.operations;
  count("operations");

  // Half-open probe: the breaker has been open long enough (on the
  // supervisor clock) to try the GPU again — one attempt, no retries.
  const bool probing = half_open_due();
  if (probing) {
    count("breaker_half_open");
    trace("fault/breaker_half_open");
    // Clear sticky device loss so the probe exercises the real device
    // state rather than the remembered failure.
    if (injector_ != nullptr) injector_->restore_device();
  }

  if (!breaker_open_ || probing) {
    const int max_attempts = probing ? 1 : config_.max_attempts;
    double backoff = config_.backoff_initial_s;
    bool ok = false;
    for (int attempt = 1; attempt <= max_attempts; ++attempt) {
      report.attempts = attempt;
      if (attempt > 1) {
        ++totals_.retries;
        count("retries");
        report.backoff_s += backoff;
        totals_.backoff_seconds += backoff;
        count("backoff_seconds", backoff);
        backoff *= config_.backoff_factor;
        trace("fault/retry");
      }
      const double clock_before = op.gpu_clock ? op.gpu_clock() : 0.0;
      try {
        op.gpu();
        const double attempt_s =
            (op.gpu_clock ? op.gpu_clock() : 0.0) - clock_before;
        if (op.gpu_clock && attempt_s > config_.watchdog_budget_s) {
          ++report.watchdog_trips;
          ++totals_.watchdog_trips;
          count("watchdog_trips");
          trace("fault/watchdog_trip");
        } else if (op.verify && !op.verify()) {
          ++report.corrupted_outputs;
          ++totals_.corrupted_outputs;
          count("corrupted_outputs");
          trace("fault/corrupted_output");
        } else {
          ok = true;
        }
      } catch (const simgpu::DeviceError& error) {
        if (error.fault() == simgpu::FaultClass::kDeviceLost) {
          report.device_lost = true;
          ++totals_.device_losses;
          count("device_lost");
          trace("fault/device_lost");
          open_breaker();
          break;
        }
        ++report.launch_failures;
        ++totals_.launch_failures;
        count("launch_failures");
        trace("fault/launch_failure");
      }
      if (ok) break;
    }
    if (ok) {
      if (probing) {
        close_breaker();
        count("breaker_reclosed");
        trace("fault/breaker_close");
      }
      consecutive_failed_ops_ = 0;
      ++totals_.gpu_ok;
      count("gpu_ok");
      report.path = ComputePath::kGpu;
      return report;
    }
    if (probing) {
      // Failed probe: breaker stays open and the cool-down restarts from
      // now (open_breaker refreshes the timestamp even when already open).
      open_breaker();
      count("breaker_probe_failed");
    } else if (!report.device_lost) {
      ++consecutive_failed_ops_;
      if (consecutive_failed_ops_ >= config_.breaker_threshold) open_breaker();
    }
  }

  if (!op.cpu) {
    report.path = ComputePath::kFailed;
    return report;
  }
  op.cpu();
  report.path = ComputePath::kCpuFallback;
  ++totals_.fallbacks;
  count("fallbacks");
  trace("fault/cpu_fallback");
  return report;
}

// --- ResilientEncoder ------------------------------------------------------

ResilientEncoder::ResilientEncoder(const simgpu::DeviceSpec& spec,
                                   const coding::Segment& segment,
                                   EncodeScheme scheme, ThreadPool& pool,
                                   ResilientLauncher& supervisor,
                                   simgpu::Profiler* profiler)
    : segment_(&segment),
      reference_(segment),
      // The injector is attached *after* construction (via adopt): segment
      // preprocessing is bring-up, not the supervised serving path, and a
      // supervisor can only retry operations it initiated.
      gpu_encoder_(spec, segment, scheme, profiler, "resilient/encode"),
      cpu_encoder_(segment, pool),
      supervisor_(&supervisor),
      sample_rng_(0xc0dedULL) {
  supervisor_->adopt(gpu_encoder_.launcher());
}

void ResilientEncoder::encode_into(coding::CodedBatch& batch) {
  if (batch.count() == 0) return;
  EXTNC_CHECK(batch.params() == params());

  SupervisedOp op;
  op.label = "encode";
  simgpu::FaultInjector* injector = supervisor_->injector();
  op.gpu = [this, injector, &batch] {
    RegionWatch watch(injector,
                      std::span(batch.payloads_data(), batch.payload_bytes()));
    gpu_encoder_.encode_into(batch);
  };
  op.gpu_clock = supervisor_->device_clock(
      [this] { return gpu_encoder_.launcher().elapsed_seconds(); });
  op.verify = [this, &batch] { return verify_batch(batch); };
  op.cpu = [this, &batch] { cpu_encoder_.encode_into(batch); };
  last_ = supervisor_->run(op);
}

coding::CodedBatch ResilientEncoder::encode_batch(std::size_t count,
                                                  Rng& rng) {
  coding::CodedBatch batch(params(), count);
  // Coefficients are drawn up front, outside the supervised attempt, so
  // retries and the CPU fallback reproduce the exact same coded blocks.
  for (std::size_t j = 0; j < count; ++j) {
    reference_.draw_coefficients(rng, batch.coefficients(j));
  }
  encode_into(batch);
  return batch;
}

bool ResilientEncoder::verify_batch(const coding::CodedBatch& batch) {
  const std::size_t count = batch.count();
  if (count == 0) return true;
  const std::size_t samples =
      std::min(supervisor_->config().verify_sample, count);
  std::vector<std::uint8_t> scratch(params().k);
  for (std::size_t s = 0; s < samples; ++s) {
    // With enough budget to cover the batch, check every row; otherwise
    // spot-check random rows.
    const std::size_t j = samples == count ? s : sample_rng_.next_below(count);
    reference_.encode_with_coefficients(batch.coefficients(j), scratch);
    if (!std::ranges::equal(scratch, batch.payload(j))) return false;
  }
  return true;
}

// --- ResilientSeed ---------------------------------------------------------

struct ResilientSeed::BoundSegment {
  coding::Segment segment;
  std::unique_ptr<ResilientEncoder> encoder;
  coding::CodedBatch buffer;
  std::size_t next = 0;
};

struct ResilientSeed::BoundContent {
  coding::Params params{};
  std::vector<std::uint8_t> content;
  std::vector<BoundSegment*> generations;  // created lazily, owned by seed
};

ResilientSeed::ResilientSeed(const simgpu::DeviceSpec& spec,
                             EncodeScheme scheme, SupervisorConfig config,
                             simgpu::FaultPlan fault_plan, std::size_t threads,
                             std::size_t blocks_per_launch)
    : spec_(&spec),
      scheme_(scheme),
      blocks_per_launch_(blocks_per_launch),
      pool_(threads),
      injector_(fault_plan.any()
                    ? std::make_unique<simgpu::FaultInjector>(fault_plan)
                    : nullptr),
      supervisor_(std::move(config), injector_.get()) {
  EXTNC_CHECK(blocks_per_launch_ > 0);
}

ResilientSeed::~ResilientSeed() = default;

ResilientSeed::BoundSegment* ResilientSeed::make_bound(
    coding::Segment segment) {
  auto bound = std::make_unique<BoundSegment>();
  bound->segment = std::move(segment);
  bound->encoder = std::make_unique<ResilientEncoder>(
      *spec_, bound->segment, scheme_, pool_, supervisor_);
  segments_.push_back(std::move(bound));
  return segments_.back().get();
}

std::function<coding::CodedBlock(Rng&)> ResilientSeed::bind_segment(
    const coding::Segment& segment) {
  BoundSegment* bound = make_bound(segment);
  const std::size_t batch_size = blocks_per_launch_;
  return [bound, batch_size](Rng& rng) {
    if (bound->next >= bound->buffer.count()) {
      bound->buffer = bound->encoder->encode_batch(batch_size, rng);
      bound->next = 0;
    }
    return bound->buffer.block(bound->next++);
  };
}

std::function<coding::CodedBlock(std::uint32_t, Rng&)>
ResilientSeed::bind_content(const coding::Params& params,
                            std::span<const std::uint8_t> content) {
  params.validate();
  auto owned = std::make_unique<BoundContent>();
  owned->params = params;
  owned->content.assign(content.begin(), content.end());
  const std::size_t generation_bytes = params.segment_bytes();
  const std::size_t generations =
      std::max<std::size_t>(1, (owned->content.size() + generation_bytes - 1) /
                                   generation_bytes);
  owned->generations.assign(generations, nullptr);
  contents_.push_back(std::move(owned));
  BoundContent* bc = contents_.back().get();

  return [this, bc, generation_bytes](std::uint32_t g, Rng& rng) {
    EXTNC_CHECK(g < bc->generations.size());
    BoundSegment*& bound = bc->generations[g];
    if (bound == nullptr) {
      const std::size_t offset = g * generation_bytes;
      const std::size_t len =
          std::min(generation_bytes, bc->content.size() - offset);
      bound = make_bound(coding::Segment::from_bytes(
          bc->params, std::span(bc->content.data() + offset, len)));
    }
    if (bound->next >= bound->buffer.count()) {
      bound->buffer = bound->encoder->encode_batch(blocks_per_launch_, rng);
      bound->next = 0;
    }
    return bound->buffer.block(bound->next++);
  };
}

}  // namespace extnc::gpu
