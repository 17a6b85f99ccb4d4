// Deterministic device-fault model for the simulated GPU.
//
// PR 1 made the data plane survivable (wire CRC, pollution quarantine);
// this injector does the same for the compute plane: it lets tests and
// simulations script the ways a real accelerator fails so the supervision
// layer (gpu/resilient_launcher.h) can be proven to detect and recover
// from each of them. Four fault classes, mirroring the CUDA failure
// surface:
//
//   kHang          — the kernel never reaches completion within its time
//                    budget. Modeled as the launch consuming
//                    hang_stall_factor times its normal modeled time (so a
//                    watchdog comparing modeled seconds against a budget
//                    fires) and, like a watchdog-killed kernel on real
//                    hardware, leaving partial garbage in the output.
//   kBitFlip       — transient global-memory corruption: the launch
//                    completes "successfully" but flipped bits sit in the
//                    output (the ECC-less-GDDR failure mode). Only a
//                    post-condition check can catch this.
//   kLaunchFailure — the launch is rejected up front (out of resources,
//                    cudaErrorLaunchOutOfResources); transient, a retry
//                    may succeed.
//   kDeviceLost    — cudaErrorDevicesUnavailable: sticky. Every launch
//                    after the event fails until restore_device().
//
// Faults are scheduled deterministically: scripted per launch index
// ("exactly launch 7 hangs") and/or drawn per launch from seeded
// probabilities. One injector models one device; attach it to every
// Launcher that represents that device and the launch index, the sticky
// lost state and the observed modeled timeline are shared across them.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.h"

namespace extnc::simgpu {

enum class FaultClass {
  kNone,
  kHang,
  kBitFlip,
  kLaunchFailure,
  kDeviceLost,
};

const char* fault_class_name(FaultClass fault);

// Bits flipped per bit-flip fault (spread over the watched regions).
inline constexpr int kFlipsPerFault = 3;

// Thrown by Launcher::launch when an injected fault makes the launch fail
// outright (kLaunchFailure, kDeviceLost). Hang and bit-flip faults do NOT
// throw — those complete "normally" and only detection (watchdog, output
// verification) can tell; that asymmetry is the point of the model.
class DeviceError : public std::runtime_error {
 public:
  DeviceError(FaultClass fault, const std::string& what)
      : std::runtime_error(what), fault_(fault) {}

  FaultClass fault() const { return fault_; }

 private:
  FaultClass fault_;
};

// What faults to inject and when. Scripted entries key on the device-wide
// launch index (0-based, counted across every launcher the injector is
// attached to); probabilities are drawn per launch from the plan's seed,
// independently of every other RNG stream in the process.
struct FaultPlan {
  std::map<std::uint64_t, FaultClass> scripted;
  double p_hang = 0;
  double p_bit_flip = 0;
  double p_launch_failure = 0;
  double p_device_lost = 0;
  std::uint64_t seed = 1;

  // Hang launches consume this multiple of their normal modeled time.
  double hang_stall_factor = 1e6;

  bool any() const {
    return !scripted.empty() || p_hang > 0 || p_bit_flip > 0 ||
           p_launch_failure > 0 || p_device_lost > 0;
  }
  void validate() const;

  // Parse a CLI spec: comma-separated tokens, each either a scripted fault
  // "<class>@<launch-index>" or a probability "p<class>=<value>", where
  // <class> is hang | flip | fail | lost. Example:
  //   "hang@3,flip@7,lost@12,pfail=0.01"
  // Returns nullopt (with no partial state) on any malformed token.
  static std::optional<FaultPlan> parse(std::string_view spec,
                                        std::uint64_t seed = 1);
};

// Tallies of what was actually injected (and observed), for reports and
// for tests asserting a scripted scenario played out exactly.
struct FaultCounters {
  std::uint64_t launches = 0;
  std::uint64_t hangs = 0;
  std::uint64_t bit_flips = 0;
  std::uint64_t launch_failures = 0;
  std::uint64_t device_losses = 0;  // transitions into the lost state

  std::uint64_t faults() const {
    return hangs + bit_flips + launch_failures + device_losses;
  }
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }
  const FaultCounters& counters() const { return counters_; }

  // --- device-memory surface for bit-flip / hang damage -----------------
  // Regions registered here play the role of the device global memory an
  // output-corrupting fault can damage. Supervisors watch the output
  // buffer of the operation in flight and clear afterwards. A damaging
  // fault that fires with no region watched damages nothing; it is counted
  // in pending_damage() so a test can observe it.
  void watch_region(std::span<std::uint8_t> region);
  void clear_regions();
  std::size_t pending_damage() const { return pending_damage_; }

  // --- Launcher interface ------------------------------------------------
  // The injector operates at LAUNCH granularity, on the launching thread
  // only: begin_launch is called once before any block runs, finish_launch
  // (or cancel_launch) once after every block has finished. Blocks — which
  // the parallel engine spreads across worker threads — never touch the
  // injector; fault decisions, RNG draws and damage all key off the launch
  // index, so injected faults are identical on the serial and parallel
  // engines. One launch must be in flight at a time per injector; the
  // pairing is asserted (EXTNC_CHECK aborts on a violation).
  //
  // Decide this launch's fate; advances the launch index and draws
  // probabilistic faults. Returns the fault class. kLaunchFailure and
  // kDeviceLost mean the caller must abort the launch — such a launch is
  // already finished, so finish_launch must NOT be called for it.
  FaultClass begin_launch();
  // Called after the kernel ran functionally; applies hang/bit-flip damage
  // to the watched regions and accounts the launch's modeled seconds
  // (already scaled by time_multiplier) onto the device timeline.
  void finish_launch(FaultClass fault, double modeled_seconds);
  // Abandon the in-flight launch without damage or timeline accounting
  // (the kernel threw; nothing completed, nothing is observable).
  void cancel_launch();
  // Stall factor for a launch's modeled time (hang_stall_factor for kHang,
  // 1.0 otherwise).
  double time_multiplier(FaultClass fault) const;

  // --- device state ------------------------------------------------------
  bool device_lost() const { return device_lost_; }
  // Clear the sticky lost state (driver reset / device re-probe).
  void restore_device() { device_lost_ = false; }

  // Modeled seconds the device has spent in launches since construction —
  // the per-device clock watchdogs compare against. Includes hang stalls.
  double observed_seconds() const { return observed_s_; }

  std::uint64_t launch_index() const { return next_launch_; }

 private:
  void damage_regions(FaultClass fault);

  FaultPlan plan_;
  Rng rng_;
  FaultCounters counters_;
  std::vector<std::span<std::uint8_t>> regions_;
  std::uint64_t next_launch_ = 0;
  std::size_t pending_damage_ = 0;
  bool device_lost_ = false;
  bool launch_in_flight_ = false;  // enforces the begin/finish pairing
  double observed_s_ = 0;
};

}  // namespace extnc::simgpu
