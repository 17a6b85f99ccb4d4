#include "simgpu/fault_injector.h"

#include <charconv>

#include "util/assert.h"
#include "util/metrics_registry.h"

namespace extnc::simgpu {

const char* fault_class_name(FaultClass fault) {
  switch (fault) {
    case FaultClass::kNone: return "none";
    case FaultClass::kHang: return "hang";
    case FaultClass::kBitFlip: return "bit_flip";
    case FaultClass::kLaunchFailure: return "launch_failure";
    case FaultClass::kDeviceLost: return "device_lost";
  }
  return "?";
}

void FaultPlan::validate() const {
  for (double p : {p_hang, p_bit_flip, p_launch_failure, p_device_lost}) {
    EXTNC_CHECK(p >= 0.0 && p <= 1.0);
  }
  EXTNC_CHECK(hang_stall_factor >= 1.0);
  for (const auto& [index, fault] : scripted) {
    (void)index;
    EXTNC_CHECK(fault != FaultClass::kNone);
  }
}

namespace {

std::optional<FaultClass> class_from_token(std::string_view token) {
  if (token == "hang") return FaultClass::kHang;
  if (token == "flip") return FaultClass::kBitFlip;
  if (token == "fail") return FaultClass::kLaunchFailure;
  if (token == "lost") return FaultClass::kDeviceLost;
  return std::nullopt;
}

}  // namespace

std::optional<FaultPlan> FaultPlan::parse(std::string_view spec,
                                          std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  while (!spec.empty()) {
    const std::size_t comma = spec.find(',');
    std::string_view token = spec.substr(0, comma);
    spec = comma == std::string_view::npos ? std::string_view{}
                                           : spec.substr(comma + 1);
    if (token.empty()) return std::nullopt;
    if (const std::size_t at = token.find('@'); at != std::string_view::npos) {
      const auto fault = class_from_token(token.substr(0, at));
      const std::string_view index_text = token.substr(at + 1);
      std::uint64_t index = 0;
      const auto [ptr, ec] = std::from_chars(
          index_text.data(), index_text.data() + index_text.size(), index);
      if (!fault || ec != std::errc{} ||
          ptr != index_text.data() + index_text.size()) {
        return std::nullopt;
      }
      plan.scripted[index] = *fault;
      continue;
    }
    if (const std::size_t eq = token.find('='); eq != std::string_view::npos) {
      std::string_view name = token.substr(0, eq);
      if (name.size() < 2 || name[0] != 'p') return std::nullopt;
      const auto fault = class_from_token(name.substr(1));
      if (!fault) return std::nullopt;
      const std::string value(token.substr(eq + 1));
      char* end = nullptr;
      const double p = std::strtod(value.c_str(), &end);
      if (end != value.c_str() + value.size() || p < 0.0 || p > 1.0) {
        return std::nullopt;
      }
      switch (*fault) {
        case FaultClass::kHang: plan.p_hang = p; break;
        case FaultClass::kBitFlip: plan.p_bit_flip = p; break;
        case FaultClass::kLaunchFailure: plan.p_launch_failure = p; break;
        case FaultClass::kDeviceLost: plan.p_device_lost = p; break;
        default: return std::nullopt;
      }
      continue;
    }
    return std::nullopt;
  }
  return plan;
}

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)), rng_(SplitMix64(plan_.seed ^ 0xfa17ULL).next()) {
  plan_.validate();
}

void FaultInjector::watch_region(std::span<std::uint8_t> region) {
  if (!region.empty()) regions_.push_back(region);
}

void FaultInjector::clear_regions() { regions_.clear(); }

FaultClass FaultInjector::begin_launch() {
  // Launch-granularity contract: one launch in flight at a time, begun and
  // finished on the launching thread. Kernel blocks never call in here.
  EXTNC_CHECK(!launch_in_flight_);
  const std::uint64_t index = next_launch_++;
  ++counters_.launches;
  if (device_lost_) return FaultClass::kDeviceLost;

  FaultClass fault = FaultClass::kNone;
  if (const auto it = plan_.scripted.find(index); it != plan_.scripted.end()) {
    fault = it->second;
  } else if (plan_.p_device_lost > 0 &&
             rng_.next_double() < plan_.p_device_lost) {
    fault = FaultClass::kDeviceLost;
  } else if (plan_.p_launch_failure > 0 &&
             rng_.next_double() < plan_.p_launch_failure) {
    fault = FaultClass::kLaunchFailure;
  } else if (plan_.p_hang > 0 && rng_.next_double() < plan_.p_hang) {
    fault = FaultClass::kHang;
  } else if (plan_.p_bit_flip > 0 && rng_.next_double() < plan_.p_bit_flip) {
    fault = FaultClass::kBitFlip;
  }

  switch (fault) {
    case FaultClass::kDeviceLost:
      device_lost_ = true;
      ++counters_.device_losses;
      metrics::count("simgpu.faults.device_lost");
      break;
    case FaultClass::kLaunchFailure:
      ++counters_.launch_failures;
      metrics::count("simgpu.faults.launch_failure");
      break;
    case FaultClass::kHang:
      ++counters_.hangs;
      metrics::count("simgpu.faults.hang");
      break;
    case FaultClass::kBitFlip:
      ++counters_.bit_flips;
      metrics::count("simgpu.faults.bit_flip");
      break;
    case FaultClass::kNone:
      break;
  }
  // Aborted launches (rejected up front) are already over: the caller
  // throws instead of running blocks, and finish_launch is never called.
  if (fault != FaultClass::kDeviceLost && fault != FaultClass::kLaunchFailure) {
    launch_in_flight_ = true;
  }
  return fault;
}

void FaultInjector::finish_launch(FaultClass fault, double modeled_seconds) {
  EXTNC_CHECK(launch_in_flight_);
  launch_in_flight_ = false;
  observed_s_ += modeled_seconds;
  if (fault == FaultClass::kBitFlip || fault == FaultClass::kHang) {
    damage_regions(fault);
  }
}

void FaultInjector::cancel_launch() { launch_in_flight_ = false; }

double FaultInjector::time_multiplier(FaultClass fault) const {
  return fault == FaultClass::kHang ? plan_.hang_stall_factor : 1.0;
}

// A bit-flip fault flips kFlipsPerFault random bits; a hang fault
// (the watchdog killed the kernel mid-flight) scribbles over a random
// suffix of one region — partial output, as real aborted kernels leave.
void FaultInjector::damage_regions(FaultClass fault) {
  if (regions_.empty()) {
    ++pending_damage_;
    return;
  }
  if (fault == FaultClass::kBitFlip) {
    for (int f = 0; f < kFlipsPerFault; ++f) {
      auto& region = regions_[rng_.next_below(regions_.size())];
      region[rng_.next_below(region.size())] ^=
          static_cast<std::uint8_t>(1u << rng_.next_below(8));
    }
    return;
  }
  auto& region = regions_[rng_.next_below(regions_.size())];
  const std::size_t from = rng_.next_below(region.size());
  for (std::size_t i = from; i < region.size(); ++i) {
    region[i] = rng_.next_byte();
  }
}

}  // namespace extnc::simgpu
