#include "serve/fleet.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "coding/block_decoder.h"
#include "cpu/xeon_model.h"
#include "gpu/gpu_model.h"
#include "util/assert.h"
#include "util/checksum.h"
#include "util/metrics_registry.h"
#include "util/rng.h"

namespace extnc::serve {

struct FleetScheduler::Slot {
  Slot(const simgpu::DeviceSpec& device_spec, simgpu::FaultPlan plan,
       gpu::SupervisorConfig supervisor_config)
      : spec(device_spec),
        injector(std::move(plan)),
        supervisor(std::move(supervisor_config), &injector) {}

  simgpu::DeviceSpec spec;
  simgpu::FaultInjector injector;
  gpu::ResilientLauncher supervisor;
  std::unique_ptr<gpu::ResilientEncoder> encoder;
  double gpu_mb_per_s = 0;
  bool alive = true;
  std::uint64_t epoch = 0;
  double busy_until_s = 0;
  std::uint64_t segments = 0;
  std::uint64_t gpu_segments = 0;
  std::uint64_t cpu_segments = 0;
  // Restore ramp (kRampStages == not ramping, i.e. full share).
  int ramp_stage = kRampStages;
  int ramp_streak = 0;           // consecutive clean GPU segments
  std::uint64_t ramp_offered = 0;  // opportunities seen this ramp
  std::uint64_t ramp_taken = 0;    // opportunities accepted this ramp
};

FleetScheduler::FleetScheduler(FleetConfig config, std::function<double()> clock)
    : config_(std::move(config)),
      clock_(std::move(clock)),
      content_([&] {
        Rng rng(config_.content_seed);
        return coding::Segment::random(config_.params, rng);
      }()),
      reference_(content_),
      pool_(config_.threads) {
  EXTNC_CHECK(!config_.devices.empty());
  EXTNC_CHECK(config_.restore_ramp.advance_after >= 1);
  for (int s = 0; s < kRampStages; ++s) {
    const double share = config_.restore_ramp.shares[s];
    EXTNC_CHECK(share > 0 && share <= 1.0);
    if (s > 0) EXTNC_CHECK(share >= config_.restore_ramp.shares[s - 1]);
  }
  cpu_mb_per_s_ = cpu::XeonModel{}.encode_table_mb_per_s(config_.params);
  EXTNC_CHECK(cpu_mb_per_s_ > 0);
  slots_.reserve(config_.devices.size());
  for (std::size_t i = 0; i < config_.devices.size(); ++i) {
    // Per-device fault stream: same plan shape, decorrelated draws.
    simgpu::FaultPlan plan = config_.faults;
    plan.seed = config_.faults.seed + i * 0x9e3779b9ULL;
    gpu::SupervisorConfig supervisor = config_.supervisor;
    supervisor.metric_prefix += ".dev" + std::to_string(i);
    // The service delivers with a bit-exact contract: spot-checking is not
    // enough, every row of every batch is verified so a corrupting fault
    // always surfaces as a failed attempt (and retries/fallback repair it).
    supervisor.verify_sample = std::numeric_limits<std::size_t>::max();
    slots_.push_back(
        std::make_unique<Slot>(config_.devices[i], std::move(plan),
                               std::move(supervisor)));
    Slot& slot = *slots_.back();
    if (clock_) slot.supervisor.set_clock(clock_);
    // Nominal un-faulted bandwidth of this device for the workload shape —
    // the unit deadlines and hedging thresholds are expressed in.
    gpu::EncodeModelOptions options;
    options.include_preprocessing = false;
    slot.gpu_mb_per_s =
        gpu::model_encode_bandwidth(slot.spec, config_.scheme, config_.params,
                                    options)
            .mb_per_s;
    EXTNC_CHECK(slot.gpu_mb_per_s > 0);
    // The encoder adopts the slot's injector, so its launches share the
    // device's fault plan and modeled clock.
    slot.encoder = std::make_unique<gpu::ResilientEncoder>(
        slot.spec, content_, config_.scheme, pool_, slot.supervisor);
  }
}

FleetScheduler::~FleetScheduler() = default;

SegmentResult FleetScheduler::encode_segment(std::size_t device,
                                             std::uint64_t seed,
                                             std::size_t blocks,
                                             ServiceMode mode,
                                             coding::CodedBatch* out) {
  EXTNC_CHECK(device < slots_.size());
  EXTNC_CHECK(blocks >= 1);
  Slot& slot = *slots_[device];
  EXTNC_CHECK(slot.alive);

  SegmentResult result;
  Rng rng(seed);
  coding::CodedBatch batch(config_.params, blocks);
  // Coefficients are a pure function of the job seed: replicas of this
  // job (hedges, post-kill re-dispatches) draw the same rows anywhere.
  for (std::size_t j = 0; j < blocks; ++j) {
    reference_.draw_coefficients(rng, batch.coefficients(j));
  }

  if (mode == ServiceMode::kCpuCodec) {
    // Ladder-forced CPU codec: bypass the device entirely.
    for (std::size_t j = 0; j < blocks; ++j) {
      reference_.encode_with_coefficients(batch.coefficients(j),
                                          batch.payload(j));
    }
    result.report.path = gpu::ComputePath::kCpuFallback;
    result.report.attempts = 0;
    result.service_s = cpu_segment_s(blocks);
    ++slot.cpu_segments;
  } else {
    const bool breaker_was_open = slot.supervisor.breaker_open();
    slot.encoder->encode_into(batch);
    result.report = slot.encoder->last_report();
    const double attempt_s = gpu_segment_s(device, blocks);
    // Hung attempts are killed at the watchdog budget; clean (successful
    // or promptly-failed) attempts cost a full pass; backoff is charged
    // as reported, in the same modeled seconds.
    double service = result.report.backoff_s;
    service += result.report.watchdog_trips * config_.supervisor.watchdog_budget_s;
    const int clean_attempts =
        result.report.attempts - result.report.watchdog_trips;
    service += std::max(clean_attempts, 0) * attempt_s;
    if (result.report.path == gpu::ComputePath::kGpu) {
      result.gpu_path = true;
      ++slot.gpu_segments;
    } else {
      service += cpu_segment_s(blocks);
      ++slot.cpu_segments;
    }
    result.service_s = service;
    // A successful half-open probe reclosed the breaker inside this
    // dispatch: the device healed itself. Enter the restore ramp exactly
    // as a scripted restore would, instead of snapping to full share.
    if (config_.restore_ramp.enabled && breaker_was_open &&
        !slot.supervisor.breaker_open() && slot.ramp_stage >= kRampStages) {
      begin_ramp(device);
    }
    note_ramp_outcome(device, result.gpu_path);
  }
  ++slot.segments;

  // One verification pass per row. The supervisor already compared every
  // GPU row with the reference (verify_sample is max), and forced-CPU rows
  // are the reference's own output; only rows of the supervised CPU
  // fallback are re-encoded here. The CRC the journal persists covers
  // every row.
  const bool audit = mode != ServiceMode::kCpuCodec && !result.gpu_path;
  std::vector<std::uint8_t> scratch(config_.params.k);
  std::uint32_t crc_state = crc32c_init();
  for (std::size_t j = 0; j < blocks; ++j) {
    crc_state = crc32c_update(crc_state, batch.payload(j));
    if (audit && result.bit_exact) {
      reference_.encode_with_coefficients(batch.coefficients(j), scratch);
      result.bit_exact = std::ranges::equal(scratch, batch.payload(j));
    }
  }
  result.payload_crc = crc32c_final(crc_state);
  if (out != nullptr) *out = std::move(batch);
  return result;
}

DecodeCheck FleetScheduler::verify_decode(
    const coding::CodedBatch& batch) const {
  coding::BlockDecoder decoder(config_.params);
  for (std::size_t j = 0; j < batch.count(); ++j) {
    decoder.add(batch.coefficients(j), batch.payload(j));
    if (decoder.is_ready()) break;
  }
  if (!decoder.is_ready()) return DecodeCheck::kRankShort;
  return decoder.decode() == content_ ? DecodeCheck::kBitExact
                                      : DecodeCheck::kMismatch;
}

void FleetScheduler::kill(std::size_t device) {
  EXTNC_CHECK(device < slots_.size());
  Slot& slot = *slots_[device];
  if (!slot.alive) return;
  slot.alive = false;
  ++slot.epoch;  // in-flight results of the old incarnation are stale
  slot.supervisor.trip_breaker();
  // A mid-ramp death voids the ramp; the next restore starts a fresh one.
  slot.ramp_stage = kRampStages;
  slot.ramp_streak = 0;
}

void FleetScheduler::restore(std::size_t device) {
  EXTNC_CHECK(device < slots_.size());
  Slot& slot = *slots_[device];
  if (slot.alive) return;
  slot.alive = true;
  slot.supervisor.reset_breaker();
  if (config_.restore_ramp.enabled) begin_ramp(device);
}

void FleetScheduler::record_ramp_stage(std::size_t device, int stage) {
  ramp_events_.push_back(RampEvent{
      .at = clock_ ? clock_() : 0.0, .device = device, .stage = stage});
  metrics::gauge("serve.restore.ramp_stage.dev" + std::to_string(device),
                 static_cast<double>(stage));
}

void FleetScheduler::begin_ramp(std::size_t device) {
  EXTNC_CHECK(device < slots_.size());
  if (!config_.restore_ramp.enabled) return;
  Slot& slot = *slots_[device];
  slot.ramp_stage = 0;
  slot.ramp_streak = 0;
  slot.ramp_offered = 0;
  slot.ramp_taken = 0;
  metrics::count("serve.restore.ramps");
  record_ramp_stage(device, 0);
}

bool FleetScheduler::ramp_offer(std::size_t device) {
  EXTNC_CHECK(device < slots_.size());
  Slot& slot = *slots_[device];
  if (slot.ramp_stage >= kRampStages) return true;
  ++slot.ramp_offered;
  // Deterministic thinning: accept iff taking this opportunity keeps the
  // accepted fraction at or below the stage's share.
  const double allowed = config_.restore_ramp.shares[slot.ramp_stage] *
                         static_cast<double>(slot.ramp_offered);
  if (static_cast<double>(slot.ramp_taken) + 1.0 <= allowed + 1e-9) {
    ++slot.ramp_taken;
    return true;
  }
  return false;
}

int FleetScheduler::ramp_stage(std::size_t device) const {
  EXTNC_CHECK(device < slots_.size());
  return slots_[device]->ramp_stage;
}

void FleetScheduler::note_ramp_outcome(std::size_t device, bool clean_gpu) {
  Slot& slot = *slots_[device];
  if (slot.ramp_stage >= kRampStages) return;
  if (clean_gpu) {
    if (++slot.ramp_streak >= config_.restore_ramp.advance_after) {
      slot.ramp_streak = 0;
      ++slot.ramp_stage;
      record_ramp_stage(device, slot.ramp_stage);
    }
    return;
  }
  // The "healed" device fell back to CPU (or lost itself) mid-ramp: it is
  // not healed. Collapse to the bottom stage and re-earn the share.
  ++ramp_collapses_;
  metrics::count("serve.restore.ramp_collapses");
  if (slot.ramp_stage != 0 || slot.ramp_streak != 0) {
    slot.ramp_stage = 0;
    slot.ramp_streak = 0;
    record_ramp_stage(device, 0);
  }
}

bool FleetScheduler::alive(std::size_t device) const {
  EXTNC_CHECK(device < slots_.size());
  return slots_[device]->alive;
}

std::size_t FleetScheduler::alive_count() const {
  std::size_t count = 0;
  for (const auto& slot : slots_) count += slot->alive ? 1 : 0;
  return count;
}

bool FleetScheduler::all_healthy() const {
  for (const auto& slot : slots_) {
    if (!slot->alive || slot->supervisor.breaker_open()) return false;
  }
  return true;
}

std::uint64_t FleetScheduler::epoch(std::size_t device) const {
  EXTNC_CHECK(device < slots_.size());
  return slots_[device]->epoch;
}

std::optional<std::size_t> FleetScheduler::pick_device(
    std::optional<std::size_t> exclude) const {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i]->alive) continue;
    if (exclude && *exclude == i) continue;
    if (!best || slots_[i]->busy_until_s < slots_[*best]->busy_until_s) {
      best = i;
    }
  }
  return best;
}

double FleetScheduler::busy_until(std::size_t device) const {
  EXTNC_CHECK(device < slots_.size());
  return slots_[device]->busy_until_s;
}

void FleetScheduler::set_busy_until(std::size_t device, double until_s) {
  EXTNC_CHECK(device < slots_.size());
  slots_[device]->busy_until_s = until_s;
}

DeviceHealth FleetScheduler::health(std::size_t device) const {
  EXTNC_CHECK(device < slots_.size());
  const Slot& slot = *slots_[device];
  DeviceHealth health;
  health.index = device;
  health.alive = slot.alive;
  health.breaker_open = slot.supervisor.breaker_open();
  health.epoch = slot.epoch;
  health.ramp_stage = slot.ramp_stage;
  health.busy_until_s = slot.busy_until_s;
  health.segments = slot.segments;
  health.gpu_segments = slot.gpu_segments;
  health.cpu_segments = slot.cpu_segments;
  health.totals = slot.supervisor.totals();
  health.faults = slot.injector.counters();
  return health;
}

std::vector<DeviceHealth> FleetScheduler::fleet_health() const {
  std::vector<DeviceHealth> all;
  all.reserve(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) all.push_back(health(i));
  return all;
}

double FleetScheduler::gpu_segment_s(std::size_t device,
                                     std::size_t blocks) const {
  EXTNC_CHECK(device < slots_.size());
  const double bytes =
      static_cast<double>(blocks) * static_cast<double>(config_.params.k);
  return bytes / (slots_[device]->gpu_mb_per_s * 1e6) +
         config_.dispatch_overhead_s;
}

double FleetScheduler::cpu_segment_s(std::size_t blocks) const {
  const double bytes =
      static_cast<double>(blocks) * static_cast<double>(config_.params.k);
  return bytes / (cpu_mb_per_s_ * 1e6) + config_.dispatch_overhead_s;
}

double FleetScheduler::nominal_segment_s(std::size_t blocks) const {
  double sum = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    sum += gpu_segment_s(i, blocks);
  }
  return sum / static_cast<double>(slots_.size());
}

void FleetScheduler::set_trace(simgpu::Profiler* profiler) {
  for (auto& slot : slots_) {
    slot->supervisor.set_trace(profiler, &slot->spec);
  }
}

gpu::ResilientLauncher& FleetScheduler::supervisor(std::size_t device) {
  EXTNC_CHECK(device < slots_.size());
  return slots_[device]->supervisor;
}

simgpu::FaultInjector& FleetScheduler::injector(std::size_t device) {
  EXTNC_CHECK(device < slots_.size());
  return slots_[device]->injector;
}

}  // namespace extnc::serve
