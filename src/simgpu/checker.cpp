#include "simgpu/checker.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/assert.h"
#include "util/metrics_registry.h"

namespace extnc::simgpu {

namespace {

void append_fmt(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
}

}  // namespace

const char* check_kind_name(CheckKind kind) {
  switch (kind) {
    case CheckKind::kSharedWriteWrite:
      return "shared_write_write";
    case CheckKind::kSharedReadWrite:
      return "shared_read_write";
    case CheckKind::kSharedOob:
      return "shared_oob";
    case CheckKind::kSharedMisaligned:
      return "shared_misaligned";
    case CheckKind::kGlobalOob:
      return "global_oob";
    case CheckKind::kGlobalMisaligned:
      return "global_misaligned";
    case CheckKind::kBarrierDivergence:
      return "barrier_divergence";
    case CheckKind::kStaleSharedRead:
      return "stale_shared_read";
    case CheckKind::kBankConflictLint:
      return "bank_conflict";
    case CheckKind::kUncoalescedLint:
      return "uncoalesced";
  }
  return "unknown";
}

bool check_kind_advisory(CheckKind kind) {
  return kind == CheckKind::kBankConflictLint ||
         kind == CheckKind::kUncoalescedLint;
}

// ------------------------------------------------------------ CheckFinding

std::string CheckFinding::to_string() const {
  std::string out = check_kind_advisory(kind) ? "advisory " : "error ";
  out += check_kind_name(kind);
  out += " [";
  out += label.empty() ? "<unlabeled>" : label;
  append_fmt(out, "] block=%zu segment=%" PRIu64, block, segment);
  switch (kind) {
    case CheckKind::kSharedWriteWrite:
    case CheckKind::kSharedReadWrite:
      append_fmt(out, " offset=%" PRIu64 " lane=%zu vs lane=%zu", address,
                 lane, other_lane);
      break;
    case CheckKind::kSharedOob:
    case CheckKind::kSharedMisaligned:
      append_fmt(out, " offset=%" PRIu64 " size=%zu lane=%zu", address, size,
                 lane);
      break;
    case CheckKind::kGlobalOob:
    case CheckKind::kGlobalMisaligned:
      append_fmt(out, " addr=0x%" PRIx64 " size=%zu lane=%zu", address, size,
                 lane);
      break;
    case CheckKind::kBarrierDivergence:
      append_fmt(out, " undeclared partial count=%" PRIu64, value);
      break;
    case CheckKind::kStaleSharedRead:
      append_fmt(out, " offset=%" PRIu64 " lane=%zu", address, lane);
      break;
    case CheckKind::kBankConflictLint:
      append_fmt(out, " seq=%" PRIu64 " half-warp at lane=%zu degree=%" PRIu64,
                 address, lane, value);
      break;
    case CheckKind::kUncoalescedLint:
      append_fmt(out,
                 " seq=%" PRIu64 " half-warp at lane=%zu transactions=%" PRIu64,
                 address, lane, value);
      break;
  }
  return out;
}

// ------------------------------------------------------------- CheckReport

std::uint64_t CheckReport::errors() const {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < kCheckKindCount; ++i) {
    if (!check_kind_advisory(static_cast<CheckKind>(i))) sum += counts[i];
  }
  return sum;
}

std::uint64_t CheckReport::advisories() const {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < kCheckKindCount; ++i) {
    if (check_kind_advisory(static_cast<CheckKind>(i))) sum += counts[i];
  }
  return sum;
}

void CheckReport::merge(const CheckReport& other, std::size_t max_findings) {
  for (std::size_t i = 0; i < kCheckKindCount; ++i) {
    counts[i] += other.counts[i];
  }
  checked_launches += other.checked_launches;
  for (const CheckFinding& finding : other.findings) {
    if (findings.size() >= max_findings) break;
    findings.push_back(finding);
  }
}

std::string CheckReport::to_string(std::size_t max_findings) const {
  std::string out;
  append_fmt(out,
             "%" PRIu64 " error(s), %" PRIu64 " advisory(ies) over %" PRIu64
             " checked launch(es)",
             errors(), advisories(), checked_launches);
  for (std::size_t i = 0; i < kCheckKindCount; ++i) {
    if (counts[i] == 0) continue;
    append_fmt(out, "\n  %-20s %" PRIu64,
               check_kind_name(static_cast<CheckKind>(i)), counts[i]);
  }
  const std::size_t shown = std::min(max_findings, findings.size());
  for (std::size_t i = 0; i < shown; ++i) {
    out += "\n  ";
    out += findings[i].to_string();
  }
  if (findings.size() > shown) {
    append_fmt(out, "\n  ... %zu more finding(s)", findings.size() - shown);
  }
  return out;
}

// -------------------------------------------------------------- CheckError

namespace {

std::string check_error_message(const CheckReport& report) {
  std::string out = "simgpu checker: ";
  append_fmt(out, "%" PRIu64 " error finding(s)", report.errors());
  for (const CheckFinding& finding : report.findings) {
    if (check_kind_advisory(finding.kind)) continue;
    out += ": ";
    out += finding.to_string();
    break;
  }
  return out;
}

}  // namespace

CheckError::CheckError(CheckReport report)
    : std::runtime_error(check_error_message(report)),
      report_(std::make_shared<const CheckReport>(std::move(report))) {}

// ----------------------------------------------------------------- Checker

void Checker::watch_global(const void* base, std::size_t size,
                           std::string name) {
  if (base == nullptr || size == 0) return;
  const auto addr = reinterpret_cast<std::uintptr_t>(base);
  unwatch_global(base);
  GlobalRegion region{addr, size, std::move(name)};
  const auto it = std::lower_bound(
      regions_.begin(), regions_.end(), addr,
      [](const GlobalRegion& r, std::uintptr_t a) { return r.base < a; });
  regions_.insert(it, std::move(region));
}

void Checker::unwatch_global(const void* base) {
  const auto addr = reinterpret_cast<std::uintptr_t>(base);
  std::erase_if(regions_,
                [addr](const GlobalRegion& r) { return r.base == addr; });
}

void Checker::clear_globals() { regions_.clear(); }

bool Checker::contains_global(std::uintptr_t addr, std::size_t size) const {
  // First region with base > addr; the candidate is its predecessor.
  auto it = std::upper_bound(
      regions_.begin(), regions_.end(), addr,
      [](std::uintptr_t a, const GlobalRegion& r) { return a < r.base; });
  if (it == regions_.begin()) return false;
  const GlobalRegion& region = *std::prev(it);
  return addr - region.base + size <= region.size;
}

Checker::ScopedWatch::ScopedWatch(Checker* checker, const void* base,
                                  std::size_t size, std::string name)
    : checker_(checker), base_(base) {
  if (checker_ != nullptr) {
    checker_->watch_global(base, size, std::move(name));
  }
}

Checker::ScopedWatch::ScopedWatch(ScopedWatch&& other) noexcept
    : checker_(other.checker_), base_(other.base_) {
  other.checker_ = nullptr;
}

Checker::ScopedWatch& Checker::ScopedWatch::operator=(
    ScopedWatch&& other) noexcept {
  if (this == &other) return *this;
  if (checker_ != nullptr) checker_->unwatch_global(base_);
  checker_ = other.checker_;
  base_ = other.base_;
  other.checker_ = nullptr;
  return *this;
}

Checker::ScopedWatch::~ScopedWatch() {
  if (checker_ != nullptr) checker_->unwatch_global(base_);
}

void Checker::reset() {
  std::lock_guard lock(mutex_);
  report_ = CheckReport{};
}

bool Checker::absorb(const CheckReport& launch_report) {
  metrics::count("simgpu.check.launches");
  for (std::size_t i = 0; i < kCheckKindCount; ++i) {
    if (launch_report.counts[i] == 0) continue;
    metrics::count(std::string("simgpu.check.") +
                       check_kind_name(static_cast<CheckKind>(i)),
                   static_cast<double>(launch_report.counts[i]));
  }
  std::lock_guard lock(mutex_);
  report_.merge(launch_report, kMaxFindingsTotal);
  return config_.mode == CheckConfig::Mode::kThrow &&
         launch_report.errors() > 0;
}

std::optional<CheckConfig::Mode> env_check_mode() {
  const char* value = std::getenv("EXTNC_SIMGPU_CHECK");
  if (value == nullptr) return std::nullopt;
  if (std::strcmp(value, "") == 0 || std::strcmp(value, "0") == 0 ||
      std::strcmp(value, "off") == 0) {
    return std::nullopt;
  }
  if (std::strcmp(value, "collect") == 0) return CheckConfig::Mode::kCollect;
  // "1" / "on" / "throw" (and anything else non-off: fail loudly rather
  // than silently skipping the checking the user asked for).
  return CheckConfig::Mode::kThrow;
}

// --------------------------------------------------------- BlockCheckState

void BlockCheckState::attach(const Checker& checker,
                             std::size_t threads_per_block,
                             std::vector<std::size_t> declared_partials,
                             std::size_t half_warp, std::size_t shared_size,
                             std::string_view label) {
  checker_ = &checker;
  threads_per_block_ = threads_per_block;
  declared_partials_ = std::move(declared_partials);
  half_warp_ = std::max<std::size_t>(1, half_warp);
  shared_size_ = shared_size;
  label_ = std::string(label);
  touch_stamp_.assign(shared_size, 0);
  writer_.assign(shared_size, 0);
  reader_.assign(shared_size, 0);
  seg_flags_.assign(shared_size, 0);
  block_flags_.assign(shared_size, 0);
  stamp_ = 0;
}

void BlockCheckState::begin_block(std::size_t block, BlockCheckSink* sink) {
  block_ = block;
  sink_ = sink;
  segment_ = 0;
  ++stamp_;  // invalidates all per-segment byte state at once
  std::memset(block_flags_.data(), 0, block_flags_.size());
  reported_partials_.clear();
  lint_seen_.clear();
}

void BlockCheckState::record(CheckFinding finding) {
  EXTNC_DASSERT(sink_ != nullptr);
  sink_->counts[static_cast<std::size_t>(finding.kind)] += 1;
  if (sink_->findings.size() >= kMaxFindingsPerLaunch) return;
  finding.label = label_;
  finding.block = block_;
  finding.segment = segment_;
  sink_->findings.push_back(std::move(finding));
}

void BlockCheckState::count_only(CheckKind kind) {
  sink_->counts[static_cast<std::size_t>(kind)] += 1;
}

bool BlockCheckState::on_shared(std::size_t lane, std::size_t offset,
                                std::size_t size, bool is_write,
                                bool is_atomic) {
  if (size > shared_size_ || offset > shared_size_ - size) {
    record({.kind = CheckKind::kSharedOob,
            .lane = lane,
            .address = offset,
            .size = size});
    return false;  // suppress: the scratchpad has no byte to touch
  }
  if (size == 4 && offset % 4 != 0) {
    record({.kind = CheckKind::kSharedMisaligned,
            .lane = lane,
            .address = offset,
            .size = size});
  }
  const auto me = static_cast<std::uint16_t>(lane + 1);
  for (std::size_t i = offset; i < offset + size; ++i) {
    if (touch_stamp_[i] != stamp_) {
      touch_stamp_[i] = stamp_;
      writer_[i] = 0;
      reader_[i] = 0;
      seg_flags_[i] = 0;
    }
    // The read half (plain loads and the read side of an atomic RMW):
    // hazard against a different lane's earlier plain write, stale if the
    // byte was never produced this block.
    const bool reads = !is_write || is_atomic;
    if (reads) {
      if (!(block_flags_[i] & kWritten)) {
        if (block_flags_[i] & kStaleSeen) {
          count_only(CheckKind::kStaleSharedRead);
        } else {
          block_flags_[i] |= kStaleSeen;
          record({.kind = CheckKind::kStaleSharedRead,
                  .lane = lane,
                  .address = i});
        }
      }
      const std::uint16_t w = writer_[i];
      const bool exempt = is_atomic && (seg_flags_[i] & kAtomicWriter);
      if (w != 0 && w != me && !exempt) {
        if (seg_flags_[i] & kHazardSeen) {
          count_only(CheckKind::kSharedReadWrite);
        } else {
          seg_flags_[i] |= kHazardSeen;
          record({.kind = CheckKind::kSharedReadWrite,
                  .lane = lane,
                  .other_lane = static_cast<std::size_t>(w - 1),
                  .address = i});
        }
      }
    }
    if (is_write) {
      const std::uint16_t w = writer_[i];
      const std::uint16_t r = reader_[i];
      const bool atomic_pair = is_atomic && (seg_flags_[i] & kAtomicWriter);
      CheckKind hazard = CheckKind::kSharedWriteWrite;
      std::uint16_t other = 0;
      if (w != 0 && w != me && !atomic_pair) {
        other = w;
      } else if (r != 0 && r != me && !is_atomic) {
        // An earlier plain read raced with this write. (The atomic case
        // was already reported above via the RMW's read half.)
        hazard = CheckKind::kSharedReadWrite;
        other = r;
      }
      if (other != 0) {
        if (seg_flags_[i] & kHazardSeen) {
          count_only(hazard);
        } else {
          seg_flags_[i] |= kHazardSeen;
          record({.kind = hazard,
                  .lane = lane,
                  .other_lane = static_cast<std::size_t>(other - 1),
                  .address = i});
        }
      }
      writer_[i] = me;
      if (is_atomic) {
        seg_flags_[i] |= kAtomicWriter;
      } else {
        seg_flags_[i] =
            static_cast<std::uint8_t>(seg_flags_[i] & ~kAtomicWriter);
      }
      block_flags_[i] |= kWritten;
    } else {
      reader_[i] = me;
    }
  }
  return true;
}

bool BlockCheckState::on_global(std::size_t lane, std::uintptr_t addr,
                                std::size_t size) {
  if (size == 4 && addr % 4 != 0) {
    record({.kind = CheckKind::kGlobalMisaligned,
            .lane = lane,
            .address = addr,
            .size = size});
  }
  if (checker_->has_globals() && !checker_->contains_global(addr, size)) {
    record({.kind = CheckKind::kGlobalOob,
            .lane = lane,
            .address = addr,
            .size = size});
    return false;
  }
  return true;
}

void BlockCheckState::on_partial_step(std::size_t count) {
  if (count == threads_per_block_) return;
  for (const std::size_t declared : declared_partials_) {
    if (count == declared) return;
  }
  for (const std::size_t reported : reported_partials_) {
    if (count == reported) {
      count_only(CheckKind::kBarrierDivergence);
      return;
    }
  }
  reported_partials_.push_back(count);
  record({.kind = CheckKind::kBarrierDivergence, .value = count});
}

void BlockCheckState::on_barrier() {
  ++segment_;
  ++stamp_;
}

void BlockCheckState::on_shared_group(std::size_t half_warp,
                                      std::uint32_t seq,
                                      std::uint64_t degree) {
  const CheckConfig& config = checker_->config();
  if (!config.perf_lints || degree < kBankConflictLintDegree) return;
  // Dedup per (segment, instruction site): a hot site fires once per
  // half-warp per barrier segment, which would flood the findings list.
  const std::uint64_t key = (segment_ << 32) ^ seq;
  if (!lint_seen_.insert(key * 2).second) {
    count_only(CheckKind::kBankConflictLint);
    return;
  }
  record({.kind = CheckKind::kBankConflictLint,
          .lane = half_warp * half_warp_,
          .address = seq,
          .value = degree});
}

void BlockCheckState::on_global_group(std::size_t half_warp,
                                      std::uint32_t seq,
                                      std::uint32_t transactions) {
  const CheckConfig& config = checker_->config();
  if (!config.perf_lints || transactions < kUncoalescedLintSegments) {
    return;
  }
  const std::uint64_t key = (segment_ << 32) ^ seq;
  if (!lint_seen_.insert(key * 2 + 1).second) {
    count_only(CheckKind::kUncoalescedLint);
    return;
  }
  record({.kind = CheckKind::kUncoalescedLint,
          .lane = half_warp * half_warp_,
          .address = seq,
          .value = transactions});
}

}  // namespace extnc::simgpu
