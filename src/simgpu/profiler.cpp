#include "simgpu/profiler.h"

#include <algorithm>
#include <utility>

namespace extnc::simgpu {

Profiler::Profiler(Profiler&& other) {
  std::lock_guard lock(other.mutex_);
  calibration_ = other.calibration_;
  launches_ = std::move(other.launches_);
  clock_s_ = other.clock_s_;
  next_ticket_ = other.next_ticket_;
  next_finalize_ = other.next_finalize_;
  pending_ = std::move(other.pending_);
}

Profiler& Profiler::operator=(Profiler&& other) {
  if (this == &other) return *this;
  std::scoped_lock lock(mutex_, other.mutex_);
  calibration_ = other.calibration_;
  launches_ = std::move(other.launches_);
  clock_s_ = other.clock_s_;
  next_ticket_ = other.next_ticket_;
  next_finalize_ = other.next_finalize_;
  pending_ = std::move(other.pending_);
  return *this;
}

void Profiler::record_launch(const DeviceSpec& spec, std::string_view label,
                             const KernelMetrics& launch_metrics) {
  record_launch_at(begin_ticket(), spec, label, launch_metrics);
}

std::uint64_t Profiler::begin_ticket() {
  std::lock_guard lock(mutex_);
  return next_ticket_++;
}

void Profiler::record_launch_at(std::uint64_t ticket, const DeviceSpec& spec,
                                std::string_view label,
                                const KernelMetrics& launch_metrics,
                                std::uint64_t check_findings) {
  Pending pending;
  pending.record.label =
      label.empty() ? std::string("kernel") : std::string(label);
  pending.record.device = spec.name;
  pending.record.blocks = launch_metrics.blocks;
  pending.record.threads_per_block = launch_metrics.threads_per_block;
  pending.record.metrics = launch_metrics;
  pending.record.time = estimate_time(spec, launch_metrics, calibration_);
  pending.record.check_findings = check_findings;

  std::lock_guard lock(mutex_);
  pending_.emplace(ticket, std::move(pending));
  finalize_ready_locked();
}

void Profiler::abandon_ticket(std::uint64_t ticket) {
  std::lock_guard lock(mutex_);
  pending_[ticket].abandoned = true;
  finalize_ready_locked();
}

// Drain the contiguous run of finished tickets onto the timeline: a record
// is placed (start/end assigned, clock advanced) only once every earlier
// ticket is in, so the timeline order is the ticket (= launch-begin)
// order regardless of which launch completed first.
void Profiler::finalize_ready_locked() {
  for (auto it = pending_.begin();
       it != pending_.end() && it->first == next_finalize_;
       it = pending_.erase(it), ++next_finalize_) {
    if (it->second.abandoned) continue;
    LaunchProfile& record = it->second.record;
    record.start_s = clock_s_;
    clock_s_ += record.time.total_s;
    record.end_s = clock_s_;
    launches_.push_back(std::move(record));
  }
}

std::size_t Profiler::launch_count() const {
  std::lock_guard lock(mutex_);
  return launches_.size();
}

double Profiler::total_seconds() const {
  std::lock_guard lock(mutex_);
  return clock_s_;
}

void Profiler::clear() {
  std::lock_guard lock(mutex_);
  launches_.clear();
  clock_s_ = 0;
  next_ticket_ = 0;
  next_finalize_ = 0;
  pending_.clear();
}

std::vector<Profiler::LabelSummary> Profiler::by_label() const {
  std::map<std::string, LabelSummary> grouped;
  {
    std::lock_guard lock(mutex_);
    for (const LaunchProfile& launch : launches_) {
      LabelSummary& s = grouped[launch.label];
      s.label = launch.label;
      s.launches += 1;
      s.metrics.merge(launch.metrics);
      s.total_s += launch.time.total_s;
      s.compute_s += launch.time.compute_s;
      s.memory_s += launch.time.memory_s;
      s.launch_s += launch.time.launch_s;
    }
  }
  std::vector<LabelSummary> out;
  out.reserve(grouped.size());
  for (auto& [label, summary] : grouped) out.push_back(std::move(summary));
  std::sort(out.begin(), out.end(),
            [](const LabelSummary& a, const LabelSummary& b) {
              if (a.total_s != b.total_s) return a.total_s > b.total_s;
              return a.label < b.label;
            });
  return out;
}

Profiler::LabelSummary Profiler::label_summary(std::string_view label) const {
  for (const LabelSummary& s : by_label()) {
    if (s.label == label) return s;
  }
  return LabelSummary{};
}

}  // namespace extnc::simgpu
