// Device-fault supervision for the GPU pipelines.
//
// The simulator's fault injector (simgpu/fault_injector.h) models how a
// real accelerator fails; this layer is the answer: every GPU operation
// runs under a supervisor that
//
//   detects  — a watchdog compares the modeled device clock against a
//              per-operation budget (catches hangs); a cheap post-condition
//              re-encodes a few sampled rows on the CPU reference coder and
//              compares CRC32C (catches silent bit flips); launch failures
//              and device loss arrive as simgpu::DeviceError.
//   retries  — bounded attempts with exponential backoff (in simulated
//              seconds; nothing sleeps for real).
//   degrades — a per-device circuit breaker opens after repeated failures
//              or on device loss, after which operations go straight to
//              the CPU implementations (cpu::CpuTableEncoder,
//              cpu::MultiSegmentDecoder) and the run completes bit-exact,
//              just slower — the graceful-degradation contract.
//
// Everything is counted in the metrics registry under "gpu.resilient.*"
// and, when a profiler is attached, marked on the trace timeline under
// "fault/*" labels so a trace shows where the retries went.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "coding/batch.h"
#include "coding/encoder.h"
#include "coding/segment.h"
#include "cpu/cpu_table_encoder.h"
#include "gpu/gpu_encoder.h"
#include "simgpu/fault_injector.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace extnc::gpu {

// Tunables of the supervision loop. Times are modeled (simulated) seconds.
struct SupervisorConfig {
  // An attempt whose modeled device time exceeds this is a watchdog trip.
  double watchdog_budget_s = 1.0;
  // Total tries per operation (first attempt + retries) before giving up
  // on the GPU for that operation.
  int max_attempts = 4;
  // Backoff before retry i is backoff_initial_s * backoff_factor^(i-1),
  // accumulated onto the operation's modeled latency.
  double backoff_initial_s = 1e-3;
  double backoff_factor = 2.0;
  // Consecutive operations that exhausted their attempts before the
  // circuit breaker opens (device loss opens it immediately).
  int breaker_threshold = 3;
  // Half-open probing: once the breaker has been open for this many
  // seconds on the supervisor clock (set_clock — the service's simulated
  // wall clock, NOT the per-op device clock, which freezes while no
  // launches run), the next operation runs ONE GPU probe attempt. Probe
  // success closes the breaker; probe failure re-opens it and restarts
  // the cool-down. 0 keeps the PR 3 behavior: open stays open until
  // reset_breaker(). Requires a clock; with none attached the breaker
  // never half-opens.
  double breaker_cooldown_s = 0;
  // Rows the verifiers re-encode and byte-compare with the reference per
  // operation (random rows; every row once this reaches the row count).
  std::size_t verify_sample = 2;
  // Metric name prefix.
  std::string metric_prefix = "gpu.resilient";
};

// kFailed only occurs when an op has no CPU fallback wired (the
// stop-on-device-loss decode mode); supervised ops with a fallback always
// end in kGpu or kCpuFallback.
enum class ComputePath { kGpu, kCpuFallback, kFailed };

// What happened to one supervised operation.
struct OperationReport {
  ComputePath path = ComputePath::kGpu;
  int attempts = 0;
  int watchdog_trips = 0;
  int corrupted_outputs = 0;
  int launch_failures = 0;
  bool device_lost = false;
  double backoff_s = 0;  // modeled seconds spent backing off
};

// Running totals across all operations of one supervisor.
struct SupervisorTotals {
  std::uint64_t operations = 0;
  std::uint64_t gpu_ok = 0;
  std::uint64_t retries = 0;
  std::uint64_t watchdog_trips = 0;
  std::uint64_t corrupted_outputs = 0;
  std::uint64_t launch_failures = 0;
  std::uint64_t device_losses = 0;
  std::uint64_t fallbacks = 0;
  double backoff_seconds = 0;
};

// One supervised operation, expressed as closures so the supervisor stays
// agnostic of what is being computed.
struct SupervisedOp {
  std::string label;
  // One GPU attempt. May throw simgpu::DeviceError; may be called up to
  // max_attempts times and must be restartable (each call fully rewrites
  // its outputs).
  std::function<void()> gpu;
  // Monotonic modeled device clock; the watchdog charges an attempt the
  // clock delta across its gpu() call. Null disables the watchdog.
  std::function<double()> gpu_clock;
  // Post-condition on the outputs; false means corrupted (retry). Null
  // means trust the result.
  std::function<bool()> verify;
  // CPU fallback; must succeed and produce bit-identical outputs.
  std::function<void()> cpu;
};

// Per-device supervisor. Shared (by reference) between the pipelines that
// run on the same device so the circuit breaker state is device-wide.
class ResilientLauncher {
 public:
  explicit ResilientLauncher(SupervisorConfig config = {},
                             simgpu::FaultInjector* injector = nullptr);

  const SupervisorConfig& config() const { return config_; }
  simgpu::FaultInjector* injector() const { return injector_; }

  // Attach this device's fault injector to a pipeline's launcher so its
  // kernel launches share the device's fault plan and modeled clock.
  void adopt(simgpu::Launcher& launcher) const;

  // Default modeled clock for SupervisedOp::gpu_clock: the injector's
  // device timeline when there is one, else `fallback` (may be null).
  std::function<double()> device_clock(
      std::function<double()> fallback = {}) const;

  // Trace markers: fault events are recorded as zero-work launches with
  // "fault/<event>" labels on this profiler.
  void set_trace(simgpu::Profiler* profiler, const simgpu::DeviceSpec* spec);

  // The supervisor's notion of "now" (modeled seconds), used for the
  // breaker cool-down bookkeeping. Distinct from SupervisedOp::gpu_clock:
  // the device clock only advances while launches run, so an open breaker
  // would freeze it and the cool-down could never elapse. A service wires
  // this to its discrete-event clock; tests wire a manual counter.
  void set_clock(std::function<double()> now);

  // Run one operation to completion: GPU with watchdog/verify/retry, then
  // CPU fallback if the GPU path cannot produce a verified result.
  OperationReport run(const SupervisedOp& op);

  bool breaker_open() const { return breaker_open_; }
  // Open the breaker from outside the retry loop — the fleet scheduler's
  // "this device is dead" signal (a scripted kill, a failed health
  // probe). Subsequent operations skip the GPU until reset_breaker() or a
  // successful half-open probe.
  void trip_breaker();
  // Close the breaker after the device recovered (also clears the
  // injector's sticky lost state when one is attached).
  void reset_breaker();

  const SupervisorTotals& totals() const { return totals_; }

 private:
  void trace(const char* label);
  void count(const char* metric, double delta = 1.0);
  void open_breaker();
  void close_breaker();
  // True when an open breaker should grant this operation one half-open
  // probe attempt (cool-down elapsed on the supervisor clock).
  bool half_open_due() const;

  SupervisorConfig config_;
  simgpu::FaultInjector* injector_;
  simgpu::Profiler* trace_profiler_ = nullptr;
  const simgpu::DeviceSpec* trace_spec_ = nullptr;
  std::function<double()> clock_;
  SupervisorTotals totals_;
  int consecutive_failed_ops_ = 0;
  bool breaker_open_ = false;
  double breaker_opened_at_s_ = 0;  // clock_ value when last opened
};

// GPU encoder under supervision: same interface shape as GpuEncoder, but
// every batch is watchdog-timed, byte-compared on verify_sample rows with
// the reference coding::Encoder, retried on transient faults and
// re-encoded on the CPU (cpu::CpuTableEncoder — bit-exact by construction)
// when the GPU path is unavailable. Coefficients are drawn once per batch,
// so the output bytes are identical whichever path computed them.
class ResilientEncoder {
 public:
  ResilientEncoder(const simgpu::DeviceSpec& spec,
                   const coding::Segment& segment, EncodeScheme scheme,
                   ThreadPool& pool, ResilientLauncher& supervisor,
                   simgpu::Profiler* profiler = nullptr);

  const coding::Params& params() const { return gpu_encoder_.params(); }

  // Coefficient rows of `batch` must already be filled (natural domain).
  void encode_into(coding::CodedBatch& batch);
  coding::CodedBatch encode_batch(std::size_t count, Rng& rng);

  const OperationReport& last_report() const { return last_; }
  GpuEncoder& gpu_encoder() { return gpu_encoder_; }

 private:
  bool verify_batch(const coding::CodedBatch& batch);

  const coding::Segment* segment_;
  coding::Encoder reference_;
  GpuEncoder gpu_encoder_;
  cpu::CpuTableEncoder cpu_encoder_;
  ResilientLauncher* supervisor_;
  Rng sample_rng_;
  OperationReport last_;
};

// Serializable snapshot of a multi-segment decode in progress: which
// segments are already decoded and their recovered bytes. Lets a decode
// that lost its device resume — on the CPU or on a recovered device —
// without redoing completed segments.
//
// Wire format (all integers little-endian):
//   "XNCK" | u32 version=1 | u32 n | u32 k | u32 segments |
//   segments x u8 done flags | n*k raw bytes per done segment (in index
//   order) | u32 CRC32C over everything before it.
struct DecodeCheckpoint {
  coding::Params params{};
  std::vector<std::uint8_t> done;        // 1 = segment decoded
  std::vector<coding::Segment> decoded;  // decoded[i] valid iff done[i]

  std::size_t segments() const { return done.size(); }
  std::size_t completed() const;
  bool complete() const;

  std::vector<std::uint8_t> serialize() const;
  // nullopt on bad magic/version/size or CRC mismatch.
  static std::optional<DecodeCheckpoint> deserialize(
      std::span<const std::uint8_t> bytes);
};

// Multi-segment decode report (per decode_all call).
struct MultiSegReport {
  std::size_t segments = 0;
  std::size_t from_checkpoint = 0;  // restored, not recomputed
  std::size_t gpu_segments = 0;
  std::size_t cpu_segments = 0;
  bool stopped_on_device_loss = false;
  bool complete = false;
};

// Supervised multi-segment decoder. Decodes segment-by-segment (rather
// than one batched GpuMultiSegmentDecoder call) so progress is
// checkpointable: after every segment the checkpoint is updated, and a
// device loss can either stop the decode (caller persists the checkpoint
// and resumes later) or degrade the remaining segments to
// cpu::MultiSegmentDecoder on the spot. Each decoded segment is verified
// by re-encoding sampled rows and comparing CRC32C against the input
// coded payloads.
class ResilientMultiSegDecoder {
 public:
  ResilientMultiSegDecoder(const simgpu::DeviceSpec& spec,
                           coding::Params params, ThreadPool& pool,
                           ResilientLauncher& supervisor,
                           simgpu::Profiler* profiler = nullptr);

  // Each batch: exactly n independent coded blocks of one segment. With a
  // checkpoint, segments already marked done are restored (never
  // recomputed) and newly completed segments are recorded into it. With
  // stop_on_device_loss, a device loss returns partial results (the
  // checkpoint holds the progress); otherwise remaining segments fall back
  // to the CPU and the decode completes.
  std::vector<coding::Segment> decode_all(
      const std::vector<coding::CodedBatch>& batches,
      DecodeCheckpoint* checkpoint = nullptr,
      bool stop_on_device_loss = false);

  const MultiSegReport& last_report() const { return last_; }
  const coding::Params& params() const { return params_; }

 private:
  bool verify_segment(const coding::CodedBatch& batch,
                      const coding::Segment& segment);

  coding::Params params_;
  const simgpu::DeviceSpec* spec_;
  ThreadPool* pool_;
  ResilientLauncher* supervisor_;
  simgpu::Profiler* profiler_;
  Rng sample_rng_;
  MultiSegReport last_;
};

// Bridge between the supervision layer and the net simulations, which do
// not link against gpu: owns the device (fault injector + supervisor +
// thread pool) and hands out plain std::function seed-encoder closures
// matching the net configs' factory hooks. The returned closures borrow
// this object — it must outlive the simulation run.
class ResilientSeed {
 public:
  // blocks_per_launch: coded blocks buffered per supervised GPU batch (the
  // per-block closures drain the buffer; paper-style servers batch far
  // more, but swarm ticks want low latency).
  ResilientSeed(const simgpu::DeviceSpec& spec, EncodeScheme scheme,
                SupervisorConfig config = {},
                simgpu::FaultPlan fault_plan = {},
                std::size_t threads = 2, std::size_t blocks_per_launch = 4);
  ~ResilientSeed();

  ResilientSeed(const ResilientSeed&) = delete;
  ResilientSeed& operator=(const ResilientSeed&) = delete;

  // Null when the fault plan injects nothing.
  simgpu::FaultInjector* injector() { return injector_.get(); }
  ResilientLauncher& supervisor() { return supervisor_; }

  // For net::SwarmConfig::make_seed_encoder.
  std::function<coding::CodedBlock(Rng&)> bind_segment(
      const coding::Segment& segment);
  // For the generation-addressed hooks (multigen swarm, file transfer):
  // content is split into ceil(size / (n*k)) generations, each encoded by
  // its own supervised encoder, created lazily on first use.
  std::function<coding::CodedBlock(std::uint32_t, Rng&)> bind_content(
      const coding::Params& params, std::span<const std::uint8_t> content);

 private:
  struct BoundSegment;
  struct BoundContent;

  BoundSegment* make_bound(coding::Segment segment);

  const simgpu::DeviceSpec* spec_;
  EncodeScheme scheme_;
  std::size_t blocks_per_launch_;
  ThreadPool pool_;
  std::unique_ptr<simgpu::FaultInjector> injector_;
  ResilientLauncher supervisor_;
  std::vector<std::unique_ptr<BoundSegment>> segments_;
  std::vector<std::unique_ptr<BoundContent>> contents_;
};

}  // namespace extnc::gpu
