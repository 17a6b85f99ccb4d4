#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "coding/block_decoder.h"
#include "coding/encoder.h"
#include "gf256/region.h"
#include "util/metrics_registry.h"

namespace perfbench {

void Result::fail(std::uint64_t count, const std::string& why) {
  failed += count;
  std::fprintf(stderr, "FAILED (%llu): %s\n",
               static_cast<unsigned long long>(count), why.c_str());
}

void Result::add_latency(const Samples& op, const char* name) {
  const double p50 = op.fastest_window_median() * 1e3;
  std::fprintf(stderr,
               "%s latency: p50 %.3f ms (fastest window), p99 %.3f ms over "
               "all %zu samples\n",
               name, p50, percentile(op.seconds(), 0.99) * 1e3, op.size());
  add("op_p50_ms", p50, "ms");
}

double Samples::fastest_window_median() const {
  if (seconds_.empty()) return 0;
  const double start = at_.front();
  const double width = (at_.back() - start) / kWindows;
  std::vector<std::vector<double>> windows(kWindows);
  for (std::size_t i = 0; i < seconds_.size(); ++i) {
    const int w = width > 0 ? static_cast<int>((at_[i] - start) / width) : 0;
    windows[std::min(w, kWindows - 1)].push_back(seconds_[i]);
  }
  double best = 0;
  for (const std::vector<double>& window : windows) {
    if (window.size() < 3) return median(seconds_);
    const double m = median(window);
    if (best == 0 || m < best) best = m;
  }
  return best;
}

void Result::stamp_text(std::string key, std::string_view value) {
  std::string quoted(1, '"');
  quoted.append(value).push_back('"');
  stamp.emplace_back(std::move(key), std::move(quoted));
}

void Result::stamp_number(std::string key, double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  stamp.emplace_back(std::move(key), buffer);
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  extnc::SplitMix64 mix(seed * 0x9e3779b97f4a7c15ULL + stream);
  return mix.next();
}

std::vector<std::uint8_t> random_bytes(std::size_t count, extnc::Rng& rng) {
  std::vector<std::uint8_t> out(count);
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const std::uint64_t word = rng.next();
    std::memcpy(out.data() + i, &word, 8);
  }
  for (; i < count; ++i) out[i] = rng.next_byte();
  return out;
}

SimCounters sim_counters() {
  const auto& registry = extnc::metrics::Registry::instance();
  return {registry.value("simgpu.launch.serial") +
              registry.value("simgpu.launch.parallel"),
          registry.value("simgpu.fast.lowered_blocks"),
          registry.value("simgpu.timing.memo_hit")};
}

extnc::coding::CodedBatch independent_batch(
    const extnc::coding::Segment& segment, extnc::Rng& rng) {
  const extnc::coding::Params& params = segment.params();
  const extnc::coding::Encoder encoder(segment);
  extnc::coding::BlockDecoder probe(params);
  extnc::coding::CodedBatch batch(params, params.n);
  std::size_t stored = 0;
  while (stored < params.n) {
    const extnc::coding::CodedBlock block = encoder.encode(rng);
    if (!probe.add(block)) continue;
    std::memcpy(batch.coefficients(stored).data(), block.coefficients().data(),
                params.n);
    std::memcpy(batch.payload(stored).data(), block.payload().data(),
                params.k);
    ++stored;
  }
  return batch;
}

double fused_kernel_mb_s(std::size_t count, std::size_t len, extnc::Rng& rng,
                         const char* span_name, double budget_s) {
  const std::vector<std::uint8_t> sources = random_bytes(count * len, rng);
  std::vector<const std::uint8_t*> rows(count);
  for (std::size_t i = 0; i < count; ++i) rows[i] = sources.data() + i * len;
  std::vector<std::uint8_t> coeffs(count);
  for (auto& c : coeffs) c = rng.next_nonzero_byte();
  std::vector<std::uint8_t> dst(len, 0);
  const extnc::gf256::Ops& ops = extnc::gf256::ops();
  std::size_t calls = 0;
  const Deadline deadline(budget_s);
  {
    const ScopedSpan span(span_name);
    do {
      for (int i = 0; i < 16; ++i) {
        ops.mul_add_regions(dst.data(), rows.data(), coeffs.data(), count,
                            len);
      }
      calls += 16;
    } while (!deadline.expired());
  }
  return static_cast<double>(calls * count * len) / kMB /
         span_totals(span_name).total_s;
}

// --- spans -----------------------------------------------------------------

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::int32_t Tracer::begin(const char* name) {
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(
      {name, now_ns(), 0, open_.empty() ? std::int32_t{-1} : open_.back()});
  open_.push_back(id);
  return id;
}

void Tracer::end(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  open_.pop_back();
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(file, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d}}%s\n",
                 s.name, static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 s.parent, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(file, "]}\n");
  return std::fclose(file) == 0;
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

SpanTotals span_totals(const std::vector<Span>& spans, std::string_view name) {
  // Spans come from one thread and nest strictly, so the children of a span
  // are disjoint intervals inside it: the part they cover is their sum.
  std::vector<std::int64_t> covered(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      covered[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  SpanTotals totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (name != spans[i].name) continue;
    const std::int64_t duration = spans[i].end_ns - spans[i].start_ns;
    ++totals.count;
    totals.total_s += static_cast<double>(duration) * 1e-9;
    totals.self_s += static_cast<double>(duration - covered[i]) * 1e-9;
  }
  return totals;
}

double span_cost_s() {
  // An empty span inside an empty span: the outer one's duration is the
  // cost one span adds to its parent. Calibrated on a private tracer.
  Tracer probe;
  probe.set_enabled(true);
  std::vector<double> costs;
  for (int i = 0; i < 1001; ++i) {
    const std::int32_t outer = probe.begin("outer");
    probe.end(probe.begin("inner"));
    probe.end(outer);
    const Span& s = probe.spans()[static_cast<std::size_t>(outer)];
    costs.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
  }
  return median(std::move(costs));
}

bool span_selftest() {
  // encode [0, 100) with children pack [10, 30) and pack [40, 45); the
  // second pack has a child crc [41, 44). decode [200, 260) stands alone.
  const std::vector<Span> spans = {
      {"encode", 0, 100, -1},  {"pack", 10, 30, 0}, {"pack", 40, 45, 0},
      {"crc", 41, 44, 2},      {"decode", 200, 260, -1},
  };
  auto near = [](double a, double b) { return std::abs(a - b) < 1e-15; };
  const SpanTotals encode = span_totals(spans, "encode");
  const SpanTotals pack = span_totals(spans, "pack");
  const SpanTotals crc = span_totals(spans, "crc");
  const SpanTotals decode = span_totals(spans, "decode");
  return encode.count == 1 && near(encode.total_s, 100e-9) &&
         near(encode.self_s, 75e-9) && pack.count == 2 &&
         near(pack.total_s, 25e-9) && near(pack.self_s, 22e-9) &&
         near(crc.self_s, 3e-9) && near(decode.self_s, 60e-9) &&
         span_totals(spans, "absent").count == 0;
}

}  // namespace perfbench
