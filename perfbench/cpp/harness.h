// Shared pieces of the perfbench program: run options, the result record
// every workload fills, a span tracer, and small timing/statistics helpers.
//
// The benchmark only calls the extnc libraries through their public
// headers. Spans are recorded here, around those calls, never inside the
// libraries: a span's name says which library entry point it wraps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "coding/batch.h"
#include "coding/segment.h"
#include "util/rng.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;         // traced run: per-layer metrics
  bool quick = false;         // small inputs, for the untimed check
  bool inject_fault = false;  // negative control: corrupt one output
  std::string trace_out;      // where the traced run writes its spans
};

class Samples;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one workload run reports. A failed operation is counted against
// the attempts; any failure makes the run incorrect.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Environment stamp entries (key, already-JSON-encoded value).
  std::vector<std::pair<std::string, std::string>> stamp;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  // op_p50_ms from per-operation seconds; the p99 and the sample count go
  // to stderr next to it.
  void add_latency(const Samples& op, const char* name);
  // Count `count` failed operations and say why on stderr.
  void fail(std::uint64_t count, const std::string& why);
  void stamp_text(std::string key, std::string_view value);
  void stamp_number(std::string key, double value);
};

// Steady-clock seconds since an arbitrary origin.
double now_s();

// Wall-clock budget for a timed loop.
class Deadline {
 public:
  explicit Deadline(double seconds) : end_s_(now_s() + seconds) {}
  bool expired() const { return now_s() >= end_s_; }

 private:
  double end_s_;
};

inline constexpr double kMB = 1024.0 * 1024.0;

double median(std::vector<double> values);
// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> values, double q);
// Peak resident set size of this process, in MB.
double peak_rss_mb();

// Durations of one kind of operation, each stamped with when it ended.
//
// Other tenants of a shared host only ever slow a run down, for stretches
// of seconds. So a run is cut into kWindows equal stretches of time and
// reports the median of its fastest stretch: a run disturbed in part
// still reads the undisturbed speed; one disturbed throughout reads slow.
// The workloads interleave their operations, so every kind has samples
// in every stretch.
class Samples {
 public:
  static constexpr int kWindows = 5;

  void add(double seconds) {
    at_.push_back(now_s());
    seconds_.push_back(seconds);
  }
  std::size_t size() const { return seconds_.size(); }
  const std::vector<double>& seconds() const { return seconds_; }

  // Lowest window median (all samples' median when some window holds
  // fewer than three).
  double fastest_window_median() const;

 private:
  std::vector<double> at_;
  std::vector<double> seconds_;
};

// Independent seed for one input stream of a run.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);
std::vector<std::uint8_t> random_bytes(std::size_t count, extnc::Rng& rng);

// The simgpu counters of the process-wide metrics registry; a traced run
// reports the difference across the calls it measures.
struct SimCounters {
  double launches = 0;        // simgpu.launch.serial + .parallel
  double lowered_blocks = 0;  // simgpu.fast.lowered_blocks
  double memo_hits = 0;       // simgpu.timing.memo_hit
};
SimCounters sim_counters();

// n linearly independent coded blocks of `segment` (the input the
// multi-segment decoders require), drawn with the reference encoder.
extnc::coding::CodedBatch independent_batch(
    const extnc::coding::Segment& segment, extnc::Rng& rng);

// Source MB/s of gf256::ops().mul_add_regions over `count` cache-resident
// rows of `len` bytes on one thread (the codec kernel bound), timed under
// one span called `span_name` for about `budget_s` seconds.
double fused_kernel_mb_s(std::size_t count, std::size_t len, extnc::Rng& rng,
                         const char* span_name, double budget_s);

// --- spans -----------------------------------------------------------------

struct Span {
  const char* name = nullptr;  // string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index of the enclosing span, -1 at top level
};

// Records spans from the benchmark's single driving thread. Spans stay in
// memory until write_chrome_trace() at the end of the run. Disabled, a
// ScopedSpan costs one branch and reads no clock.
class Tracer {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  std::int32_t begin(const char* name);
  void end(std::int32_t id);

  const std::vector<Span>& spans() const { return spans_; }

  // Chrome trace-event JSON ("X" events, one thread). Returns false when
  // the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

Tracer& tracer();

struct SpanTotals {
  std::size_t count = 0;
  double total_s = 0;  // summed durations
  double self_s = 0;   // summed durations minus what their children cover
  double mean_s() const { return count == 0 ? 0 : total_s / count; }
};
// Totals over every span called `name`.
SpanTotals span_totals(const std::vector<Span>& spans, std::string_view name);
inline SpanTotals span_totals(std::string_view name) {
  return span_totals(tracer().spans(), name);
}

// Seconds one empty span adds to the span enclosing it (median of many):
// the tracer's own cost per span.
double span_cost_s();

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : id_(tracer().enabled() ? tracer().begin(name) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer().end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int32_t id_;
};

// Checks self-time arithmetic on a hand-built span tree; false on error.
bool span_selftest();

// --- workloads ---------------------------------------------------------------

Result run_file_rlnc(const Options& options);
Result run_segment_stream(const Options& options);
Result run_sim_gtx280(const Options& options);
Result run_fleet_serve(const Options& options);

}  // namespace perfbench
