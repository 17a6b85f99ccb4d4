// StreamingHistogram: bucket geometry, quantile accuracy against the
// exact order-statistic answer, and merge equivalence.
#include "util/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/metrics_registry.h"
#include "util/rng.h"

namespace extnc {
namespace {

// Relative resolution of the bucket geometry: half a bucket either way.
constexpr double kRelTol = 0.05;  // 2^(1/16) - 1 ~= 4.4%

// Exact q-quantile of non-empty `samples`, interpolated linearly between
// the two nearest order statistics.
double exact_percentile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const double idx = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return samples[lo] * (1 - frac) + samples[hi] * frac;
}

TEST(StreamingHistogram, EmptyIsZero) {
  StreamingHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(StreamingHistogram, EmptyQuantileIsAbsentNotZero) {
  // "No samples" must be distinguishable from "all samples were ~0":
  // reporters use quantile_if_any so an empty phase prints null/omitted
  // instead of a fake zero-latency tail.
  StreamingHistogram h;
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_FALSE(h.quantile_if_any(q).has_value()) << "q=" << q;
  }
  h.observe(0.25);
  const auto p99 = h.quantile_if_any(0.99);
  ASSERT_TRUE(p99.has_value());
  EXPECT_DOUBLE_EQ(*p99, h.quantile(0.99));
}

TEST(StreamingHistogram, SingleSampleEveryQuantile) {
  StreamingHistogram h;
  h.observe(0.125);
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    // One sample: every quantile is that sample (clamped to [min, max]).
    EXPECT_DOUBLE_EQ(h.quantile(q), 0.125) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.sum(), 0.125);
  EXPECT_DOUBLE_EQ(h.mean(), 0.125);
}

TEST(StreamingHistogram, BucketIndexMonotoneAndWithinRange) {
  std::size_t prev = 0;
  for (double v = 1e-10; v < 1e12; v *= 1.7) {
    const std::size_t idx = StreamingHistogram::bucket_index(v);
    EXPECT_GE(idx, prev);
    EXPECT_LT(idx, StreamingHistogram::kBuckets);
    if (idx > 0 && idx + 1 < StreamingHistogram::kBuckets) {
      // v lies inside its bucket's bounds.
      EXPECT_GT(v, StreamingHistogram::bucket_floor(idx) * (1 - 1e-12));
      EXPECT_LE(v, StreamingHistogram::bucket_floor(idx + 1) * (1 + 1e-12));
    }
    prev = idx;
  }
}

TEST(StreamingHistogram, SubMinimumValuesLandInBucketZero) {
  StreamingHistogram h;
  h.observe(0.0);
  h.observe(-3.0);
  h.observe(1e-12);
  EXPECT_EQ(h.bucket_count(0), 3u);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), -3.0);
  // Quantiles clamp into the exact observed range.
  EXPECT_LE(h.quantile(0.5), 1e-12);
  EXPECT_GE(h.quantile(0.5), -3.0);
}

TEST(StreamingHistogram, QuantilesTrackExactPercentilesWithinResolution) {
  Rng rng(42);
  StreamingHistogram h;
  std::vector<double> samples;
  // Log-uniform spread over 6 decades — the shape tail latencies take.
  for (int i = 0; i < 20000; ++i) {
    const double v = 1e-4 * std::pow(10.0, 6.0 * rng.next_double());
    samples.push_back(v);
    h.observe(v);
  }
  for (double q : {0.10, 0.50, 0.90, 0.99, 0.999}) {
    const double exact = exact_percentile(samples, q);
    const double approx = h.quantile(q);
    EXPECT_NEAR(approx, exact, exact * (2 * kRelTol))
        << "q=" << q << " exact=" << exact << " approx=" << approx;
  }
  EXPECT_DOUBLE_EQ(h.quantile(0.0), h.min());
  EXPECT_DOUBLE_EQ(h.quantile(1.0), h.max());
}

TEST(StreamingHistogram, MergeEqualsObservingTheUnion) {
  Rng rng(7);
  StreamingHistogram a, b, combined;
  for (int i = 0; i < 5000; ++i) {
    const double v = 1e-3 * std::pow(10.0, 4.0 * rng.next_double());
    if (i % 2 == 0) {
      a.observe(v);
    } else {
      b.observe(v);
    }
    combined.observe(v);
  }
  StreamingHistogram merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.count(), combined.count());
  // Same samples, different summation order: equal only up to rounding.
  EXPECT_NEAR(merged.sum(), combined.sum(), combined.sum() * 1e-12);
  EXPECT_DOUBLE_EQ(merged.min(), combined.min());
  EXPECT_DOUBLE_EQ(merged.max(), combined.max());
  for (std::size_t i = 0; i < StreamingHistogram::kBuckets; ++i) {
    ASSERT_EQ(merged.bucket_count(i), combined.bucket_count(i)) << i;
  }
  for (double q : {0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(merged.quantile(q), combined.quantile(q));
  }
}

TEST(StreamingHistogram, CustomGeometryFilesAndAnswersWithinItsResolution) {
  // 16 buckets/octave halves the relative error; min_value 1e-6 trades
  // span for it. The instance must file by ITS geometry, not the default.
  StreamingHistogram h(/*buckets_per_octave=*/16, /*min_value=*/1e-6);
  EXPECT_EQ(h.buckets_per_octave(), 16u);
  EXPECT_DOUBLE_EQ(h.min_value(), 1e-6);
  h.observe(1e-7);  // below min_value: bucket 0
  EXPECT_EQ(h.bucket_count(0), 1u);
  Rng rng(3);
  std::vector<double> samples;
  for (int i = 0; i < 10000; ++i) {
    const double v = 1e-3 * std::pow(10.0, 3.0 * rng.next_double());
    samples.push_back(v);
    h.observe(v);
  }
  const double fine_tol = std::exp2(1.0 / 32.0) - 1;  // half a fine bucket
  for (double q : {0.50, 0.90, 0.99}) {
    const double exact = exact_percentile(samples, q);
    EXPECT_NEAR(h.quantile(q), exact, exact * (2 * fine_tol)) << "q=" << q;
  }
}

TEST(StreamingHistogramDeathTest, MergeRejectsMismatchedGeometry) {
  // Bucket-wise addition across different layouts misfiles every sample;
  // the merge must abort loudly, not corrupt the quantiles.
  StreamingHistogram coarse;  // default: 8/octave @ 1e-9
  StreamingHistogram fine(16, 1e-9);
  StreamingHistogram shifted(8, 1e-6);
  coarse.observe(0.5);
  fine.observe(0.5);
  shifted.observe(0.5);
  EXPECT_DEATH(coarse.merge(fine), "EXTNC_CHECK");
  EXPECT_DEATH(coarse.merge(shifted), "EXTNC_CHECK");
  EXPECT_DEATH(fine.merge(coarse), "EXTNC_CHECK");
  // Identical custom geometries still merge fine.
  StreamingHistogram fine2(16, 1e-9);
  fine2.observe(2.0);
  fine.merge(fine2);
  EXPECT_EQ(fine.count(), 2u);
}

TEST(StreamingHistogramDeathTest, RejectsDegenerateGeometry) {
  EXPECT_DEATH(StreamingHistogram(0, 1e-9), "EXTNC_CHECK");
  EXPECT_DEATH(StreamingHistogram(8, 0.0), "EXTNC_CHECK");
  EXPECT_DEATH(StreamingHistogram(8, -1.0), "EXTNC_CHECK");
}

TEST(StreamingHistogram, MergeIntoEmptyAndFromEmpty) {
  StreamingHistogram a, empty;
  a.observe(2.0);
  a.observe(8.0);
  StreamingHistogram target;
  target.merge(a);  // into empty
  EXPECT_EQ(target.count(), 2u);
  EXPECT_DOUBLE_EQ(target.min(), 2.0);
  EXPECT_DOUBLE_EQ(target.max(), 8.0);
  target.merge(empty);  // from empty: no change
  EXPECT_EQ(target.count(), 2u);
  EXPECT_DOUBLE_EQ(target.min(), 2.0);
}

// --- registry integration --------------------------------------------------

TEST(MetricsRegistryHistogram, ObserveAndExtract) {
  metrics::Registry::instance().reset();
  for (int i = 1; i <= 100; ++i) {
    metrics::observe("test.latency", i * 0.001);
  }
  const StreamingHistogram h =
      metrics::Registry::instance().histogram("test.latency");
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.p50(), 0.050, 0.050 * 2 * kRelTol);
  EXPECT_NEAR(h.p99(), 0.099, 0.099 * 2 * kRelTol);
  // Unknown names give an empty histogram, same namespace rules as value().
  EXPECT_TRUE(metrics::Registry::instance().histogram("test.absent").empty());
  // Histograms and scalars live in separate namespaces.
  metrics::count("test.latency");
  EXPECT_EQ(metrics::Registry::instance().value("test.latency"), 1.0);
  EXPECT_EQ(metrics::Registry::instance().histogram("test.latency").count(),
            100u);

  const auto all = metrics::Registry::instance().histograms();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].first, "test.latency");
  metrics::Registry::instance().reset();
  EXPECT_TRUE(metrics::Registry::instance().histogram("test.latency").empty());
}

}  // namespace
}  // namespace extnc
