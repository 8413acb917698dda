#include "common/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace acme::common {
namespace {

TEST(StreamingStats, BasicMoments) {
  StreamingStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(StreamingStats, EmptyIsZero) {
  StreamingStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(StreamingStats, MergeMatchesDirectAccumulation) {
  Rng rng(31);
  StreamingStats direct, a, b, c;
  for (int i = 0; i < 3000; ++i) {
    const double x = rng.lognormal(0.5, 1.2);
    direct.add(x);
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).add(x);
  }
  StreamingStats merged = a;
  merged.merge(b);
  merged.merge(c);
  EXPECT_EQ(merged.count(), direct.count());
  EXPECT_NEAR(merged.mean(), direct.mean(), 1e-12 * std::abs(direct.mean()));
  EXPECT_NEAR(merged.variance(), direct.variance(),
              1e-9 * direct.variance());
  EXPECT_DOUBLE_EQ(merged.min(), direct.min());
  EXPECT_DOUBLE_EQ(merged.max(), direct.max());
  EXPECT_NEAR(merged.sum(), direct.sum(), 1e-9 * std::abs(direct.sum()));
}

TEST(StreamingStats, MergeWithEmptySides) {
  StreamingStats a, empty;
  a.add(1.0);
  a.add(3.0);
  StreamingStats b = a;
  b.merge(empty);  // no-op
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
  StreamingStats c;
  c.merge(a);  // adopt
  EXPECT_EQ(c.count(), 2u);
  EXPECT_DOUBLE_EQ(c.mean(), 2.0);
  EXPECT_DOUBLE_EQ(c.min(), 1.0);
  EXPECT_DOUBLE_EQ(c.max(), 3.0);
}

TEST(StreamingStats, SampleVarianceUsesBesselCorrection) {
  StreamingStats s;
  for (double v : {1.0, 2.0, 3.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.variance(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(s.sample_variance(), 1.0);
  StreamingStats single;
  single.add(5.0);
  EXPECT_DOUBLE_EQ(single.sample_variance(), 0.0);
}

TEST(TCritical, TableAndAsymptote) {
  EXPECT_DOUBLE_EQ(t_critical_95(1), 12.706);
  EXPECT_DOUBLE_EQ(t_critical_95(4), 2.776);
  EXPECT_DOUBLE_EQ(t_critical_95(30), 2.042);
  EXPECT_DOUBLE_EQ(t_critical_95(50), 2.000);
  EXPECT_DOUBLE_EQ(t_critical_95(1000), 1.960);
  EXPECT_DOUBLE_EQ(t_critical_95(0), 0.0);
  // Monotone non-increasing in df.
  for (std::size_t df = 2; df < 200; ++df)
    EXPECT_LE(t_critical_95(df), t_critical_95(df - 1));
}

TEST(Ci95Halfwidth, MatchesManualFormula) {
  StreamingStats s;
  for (double v : {10.0, 12.0, 11.0, 13.0}) s.add(v);
  const double se = std::sqrt(s.sample_variance() / 4.0);
  EXPECT_NEAR(ci95_halfwidth(s), 3.182 * se, 1e-12);
  StreamingStats one;
  one.add(5.0);
  EXPECT_DOUBLE_EQ(ci95_halfwidth(one), 0.0);
}

TEST(SampleStats, QuantilesAgainstKnownValues) {
  SampleStats s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.quantile(0.25), 25.75, 1e-9);
}

TEST(SampleStats, StreamingAndSampleAgreeOnMean) {
  StreamingStats stream;
  SampleStats sample;
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.lognormal(1.0, 1.0);
    stream.add(v);
    sample.add(v);
  }
  EXPECT_NEAR(stream.mean(), sample.mean(), 1e-9);
  EXPECT_DOUBLE_EQ(stream.min(), sample.min());
  EXPECT_DOUBLE_EQ(stream.max(), sample.max());
}

TEST(SampleStats, CdfIsMonotoneProperty) {
  SampleStats s;
  Rng rng(4);
  for (int i = 0; i < 5000; ++i) s.add(rng.normal(10, 5));
  double prev = -1;
  for (double x : lin_space(-10, 30, 100)) {
    const double c = s.cdf(x);
    EXPECT_GE(c, prev);
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
    prev = c;
  }
  EXPECT_DOUBLE_EQ(s.cdf(s.max()), 1.0);
}

TEST(SampleStats, QuantileCdfInverseProperty) {
  SampleStats s;
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) s.add(rng.uniform(0, 100));
  for (double q : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const double x = s.quantile(q);
    EXPECT_NEAR(s.cdf(x), q, 0.02);
  }
}

TEST(SampleStats, WeightedQuantileAndMean) {
  SampleStats s;
  s.add_weighted(1.0, 1.0);
  s.add_weighted(10.0, 9.0);
  EXPECT_NEAR(s.mean(), 9.1, 1e-9);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 10.0);  // mass concentrated at 10
  EXPECT_NEAR(s.cdf(5.0), 0.1, 1e-9);
}

TEST(SampleStats, MixedWeightedAfterUnweighted) {
  SampleStats s;
  s.add(2.0);
  s.add_weighted(4.0, 3.0);
  EXPECT_NEAR(s.mean(), (2.0 + 12.0) / 4.0, 1e-9);
}

TEST(SampleStats, InterleavedQueriesAndInserts) {
  // Querying sorts lazily; later inserts must still be seen.
  SampleStats s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
  s.add(1.0);
  s.add(9.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
}

TEST(BoxplotStats, FiveNumberSummary) {
  SampleStats s;
  for (int i = 1; i <= 11; ++i) s.add(i);
  s.add(100.0);  // outlier beyond 1.5 IQR
  const auto box = BoxplotStats::from(s);
  EXPECT_GT(box.q3, box.median);
  EXPECT_GT(box.median, box.q1);
  EXPECT_LE(box.whisker_hi, box.q3 + 1.5 * (box.q3 - box.q1) + 1e-9);
  EXPECT_LT(box.whisker_hi, 100.0);  // outlier excluded from whisker
  EXPECT_DOUBLE_EQ(box.whisker_lo, 1.0);
}

TEST(BoxplotStats, EmptyIsZeroed) {
  const auto box = BoxplotStats::from(SampleStats{});
  EXPECT_DOUBLE_EQ(box.median, 0.0);
}

TEST(Histogram, BinningAndFractions) {
  Histogram h(0, 10, 10);
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);
  EXPECT_DOUBLE_EQ(h.total(), 10.0);
  for (std::size_t i = 0; i < h.bins(); ++i) {
    EXPECT_DOUBLE_EQ(h.count(i), 1.0);
    EXPECT_DOUBLE_EQ(h.fraction(i), 0.1);
  }
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(9), 10.0);
}

TEST(Histogram, OutOfRangeClampsToEdges) {
  Histogram h(0, 10, 5);
  h.add(-100.0);
  h.add(1e9);
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(4), 1.0);
}

TEST(Histogram, WeightedMass) {
  Histogram h(0, 1, 2);
  h.add(0.25, 3.0);
  h.add(0.75, 1.0);
  EXPECT_DOUBLE_EQ(h.fraction(0), 0.75);
}

// The order statistic of rank floor(q * (n - 1)) — what the histogram's
// quantile approximates.
double order_statistic(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
}

TEST(LatencyHistogram, QuantilesWithinBoundOfExactOrderStatistic) {
  Rng rng(2718);
  std::vector<double> lognormal, exponential;
  LatencyHistogram hl, he;
  for (int i = 0; i < 100000; ++i) {
    lognormal.push_back(rng.lognormal(0.0, 1.5));
    exponential.push_back(rng.exponential(4.0));
    hl.add(lognormal.back());
    he.add(exponential.back());
  }
  for (const double q : {0.01, 0.5, 0.99}) {
    SCOPED_TRACE(q);
    const double xl = order_statistic(lognormal, q);
    const double xe = order_statistic(exponential, q);
    EXPECT_LE(std::abs(hl.quantile(q) - xl), 0x1p-7 * xl);
    EXPECT_LE(std::abs(he.quantile(q) - xe), 0x1p-7 * xe);
  }
  EXPECT_EQ(hl.count(), 100000u);
  double sum = 0;
  for (double x : lognormal) sum += x;
  EXPECT_EQ(hl.sum(), sum);  // accumulated in add order
  EXPECT_EQ(hl.mean(), sum / 100000.0);
}

TEST(LatencyHistogram, BucketsFollowTheBinaryExponent) {
  // 64 sub-buckets per octave: 1.0 and 2.0 are 64 buckets apart, and the
  // top of one octave sits right below the next.
  EXPECT_EQ(LatencyHistogram::bucket(2.0) - LatencyHistogram::bucket(1.0), 64u);
  EXPECT_EQ(LatencyHistogram::bucket(std::nextafter(2.0, 0.0)),
            LatencyHistogram::bucket(2.0) - 1);
  EXPECT_EQ(LatencyHistogram::bucket(1.0 + 1.0 / 64),
            LatencyHistogram::bucket(1.0) + 1);
  EXPECT_EQ(LatencyHistogram::bucket(0x1p-24), 0u);
  EXPECT_EQ(LatencyHistogram::bucket(std::nextafter(0x1p24, 0.0)),
            LatencyHistogram::kBuckets - 1);
  EXPECT_DOUBLE_EQ(LatencyHistogram::bucket_midpoint(
                       LatencyHistogram::bucket(1.0)),
                   1.0 + 1.0 / 128);
}

TEST(LatencyHistogram, EdgeValuesLandInEdgeBuckets) {
  const double subnormal = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(LatencyHistogram::bucket(0.0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket(-0.0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket(subnormal), 0u);
  EXPECT_EQ(LatencyHistogram::bucket(0x1p30), LatencyHistogram::kBuckets - 1);
  LatencyHistogram h;
  h.add(0.0);
  h.add(subnormal);
  h.add(0x1p30);
  EXPECT_EQ(h.buckets().front(), 2u);
  EXPECT_EQ(h.buckets().back(), 1u);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_LT(h.quantile(0.0), 0x1p-23);
  EXPECT_GE(h.quantile(1.0), 0x1p23);
  EXPECT_LT(h.quantile(1.0), 0x1p24);
}

TEST(LatencyHistogram, RejectsNegativeAndNonFiniteSamples) {
  LatencyHistogram h;
  EXPECT_THROW(h.add(std::numeric_limits<double>::quiet_NaN()), CheckError);
  EXPECT_THROW(h.add(std::numeric_limits<double>::infinity()), CheckError);
  EXPECT_THROW(h.add(-1.0), CheckError);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(SpaceHelpers, LogSpaceEndpointsAndGrowth) {
  const auto xs = log_space(1.0, 1000.0, 4);
  ASSERT_EQ(xs.size(), 4u);
  EXPECT_NEAR(xs[0], 1.0, 1e-9);
  EXPECT_NEAR(xs[1], 10.0, 1e-6);
  EXPECT_NEAR(xs[3], 1000.0, 1e-6);
}

TEST(SpaceHelpers, LinSpaceEvenSteps) {
  const auto xs = lin_space(0.0, 1.0, 5);
  ASSERT_EQ(xs.size(), 5u);
  EXPECT_DOUBLE_EQ(xs[2], 0.5);
}

TEST(SpaceHelpers, RejectBadArguments) {
  EXPECT_THROW(log_space(0.0, 1.0, 3), std::invalid_argument);
  EXPECT_THROW(log_space(10.0, 1.0, 3), std::invalid_argument);
  EXPECT_THROW(lin_space(0.0, 1.0, 1), std::invalid_argument);
}

}  // namespace
}  // namespace acme::common
