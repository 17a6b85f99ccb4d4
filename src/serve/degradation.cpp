#include "serve/degradation.h"

#include <algorithm>

#include "util/assert.h"

namespace extnc::serve {

const char* session_state_name(SessionState state) {
  switch (state) {
    case SessionState::kQueued:
      return "queued";
    case SessionState::kServing:
      return "serving";
    case SessionState::kCompleted:
      return "completed";
    case SessionState::kDegraded:
      return "degraded";
    case SessionState::kShed:
      return "shed";
    case SessionState::kFailed:
      return "failed";
  }
  return "?";
}

const char* priority_name(Priority priority) {
  switch (priority) {
    case Priority::kInteractive:
      return "interactive";
    case Priority::kStandard:
      return "standard";
    case Priority::kBestEffort:
      return "besteffort";
  }
  return "?";
}

std::optional<Priority> parse_priority(std::string_view name) {
  if (name == "interactive") return Priority::kInteractive;
  if (name == "standard") return Priority::kStandard;
  if (name == "besteffort") return Priority::kBestEffort;
  return std::nullopt;
}

const char* service_mode_name(ServiceMode mode) {
  switch (mode) {
    case ServiceMode::kFull:
      return "full";
    case ServiceMode::kBatched:
      return "batched";
    case ServiceMode::kCpuCodec:
      return "cpu";
    case ServiceMode::kThinned:
      return "thinned";
  }
  return "?";
}

DegradationLadder::DegradationLadder(LadderConfig config) : config_(config) {
  for (std::size_t i = 0; i + 1 < config_.enter.size(); ++i) {
    EXTNC_CHECK(config_.enter[i] <= config_.enter[i + 1]);
  }
}

ServiceMode DegradationLadder::update(double pressure) {
  // Highest rung whose entry threshold the pressure meets.
  int target = 0;
  for (int rung = 1; rung < kServiceModes; ++rung) {
    if (pressure >= config_.enter[rung - 1]) target = rung;
  }
  if (target > level_) {
    level_ = target;  // climb immediately
    ++transitions_;
  } else if (target < level_) {
    // Step down one rung at a time, and only past the hysteresis band of
    // the rung we are leaving.
    if (pressure < config_.enter[level_ - 1] - kLadderHysteresis) {
      --level_;
      ++transitions_;
    }
  }
  ++dwell_[static_cast<std::size_t>(level_)];
  return mode();
}

ServiceMode DegradationLadder::mode_for(Priority priority) const {
  // Rung bias per priority class: interactive, standard, best-effort.
  constexpr std::array<int, kPriorities> kClassBias = {-1, 0, +1};
  const int biased = level_ + kClassBias[static_cast<std::size_t>(priority)];
  return static_cast<ServiceMode>(
      std::clamp(biased, 0, kServiceModes - 1));
}

void DegradationLadder::restore_level(int level) {
  EXTNC_CHECK(level >= 0 && level < kServiceModes);
  level_ = level;
}

}  // namespace extnc::serve
