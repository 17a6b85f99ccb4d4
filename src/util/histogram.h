// Streaming histogram: fixed log-bucketed latency/size distribution.
//
// Services that report tail latency (the fleet scheduler records one
// sample per served segment) cannot afford to buffer raw sample vectors
// and sort them — a million-session run would hold a million doubles
// just to answer "what was p99". This type is the streaming
// alternative: O(1) observe into a fixed array of log-spaced buckets,
// O(buckets) quantile extraction, and exact count/sum/min/max on the
// side. Two histograms with the same (built-in) geometry merge by adding
// bucket counts, so per-phase or per-shard histograms can be combined
// into fleet-wide ones.
//
// Geometry: bucket boundaries grow by 2^(1/kBucketsPerOctave) starting
// at kMinValue, i.e. kBucketsPerOctave buckets per doubling. A quantile
// is answered with the geometric midpoint of its bucket, clamped to the
// exact observed [min, max], so the relative error is at most
// 2^(1/(2*kBucketsPerOctave)) - 1 (~4.4% at 8 buckets/octave) — plenty
// for p50/p90/p99 reporting. Values below kMinValue (including zero and
// negatives) land in bucket 0; values beyond the top boundary land in
// the last bucket; both stay exact in min/max.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>

namespace extnc {

class StreamingHistogram {
 public:
  // Default geometry: 8 buckets per doubling, spanning kMinValue *
  // 2^(kBuckets/8) ≈ 19 decades above kMinValue — seconds from
  // nanoseconds to decades, or byte counts from 1 to ~5e17, without
  // configuration.
  static constexpr std::size_t kBucketsPerOctave = 8;
  static constexpr std::size_t kBuckets = 512;
  static constexpr double kMinValue = 1e-9;

  StreamingHistogram() = default;
  // Custom geometry: trade span for resolution (more buckets per octave
  // = tighter quantiles over fewer decades). Histograms only merge with
  // an IDENTICAL geometry — bucket-wise addition across different
  // layouts silently misfiles every sample, so merge() CHECK-fails on a
  // mismatch instead.
  StreamingHistogram(std::size_t buckets_per_octave, double min_value);

  std::size_t buckets_per_octave() const { return buckets_per_octave_; }
  double min_value() const { return min_value_; }

  void observe(double value);
  // Add `other`'s samples to this histogram. Aborts (EXTNC_CHECK) when
  // the two geometries differ — counts from one layout mean nothing in
  // the other's buckets.
  void merge(const StreamingHistogram& other);

  std::uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / count_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }

  // q in [0, 1]; 0 on an empty histogram. Answers with the geometric
  // midpoint of the bucket holding the ceil(q * count)-th sample,
  // clamped to the observed [min, max].
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p90() const { return quantile(0.90); }
  double p99() const { return quantile(0.99); }

  // Like quantile(), but nullopt on an empty histogram: "no samples" and
  // "all samples were ~0s" are different facts, and reporters that print
  // the raw 0.0 make a healthy run look like one with a zero-latency tail.
  // Reporters should omit (or print null for) an empty quantile.
  std::optional<double> quantile_if_any(double q) const {
    if (count_ == 0) return std::nullopt;
    return quantile(q);
  }

  // Exposed for tests (bucket accounting, merge equivalence). The static
  // forms answer for the DEFAULT geometry.
  std::uint64_t bucket_count(std::size_t index) const {
    return buckets_[index];
  }
  static std::size_t bucket_index(double value);
  // Lower bound of bucket `index` (min_value * 2^(index-1)/octave; bucket
  // 0 reaches down to zero).
  static double bucket_floor(std::size_t index);

 private:
  std::size_t index_of(double value) const;
  double floor_of(std::size_t index) const;

  std::size_t buckets_per_octave_ = kBucketsPerOctave;
  double min_value_ = kMinValue;
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

}  // namespace extnc
