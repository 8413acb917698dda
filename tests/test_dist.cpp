#include "common/dist.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace acme::common {
namespace {

TEST(LognormalFromStats, AnalyticRoundTrip) {
  const LognormalFromStats d(10.0, 25.0);
  EXPECT_NEAR(d.median(), 10.0, 1e-9);
  EXPECT_NEAR(d.mean(), 25.0, 1e-9);
}

TEST(LognormalFromStats, DegeneratesWhenMeanBelowMedian) {
  // Impossible pair for a lognormal (appears in noisy Table 3 rows): sigma
  // collapses and the distribution returns the median.
  const LognormalFromStats d(15.6, 14.5);
  EXPECT_DOUBLE_EQ(d.sigma(), 0.0);
  Rng rng(1);
  EXPECT_DOUBLE_EQ(d.sample(rng), 15.6);
}

TEST(LognormalFromStats, RejectsNonPositiveMedian) {
  EXPECT_THROW(LognormalFromStats(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(LognormalFromStats(-2.0, 1.0), std::invalid_argument);
}

// Property sweep: empirical median and mean of samples track the fitted pair
// across a range of (median, mean) shapes from the paper's tables.
class LognormalFit
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(LognormalFit, EmpiricalStatsMatch) {
  const auto [median, mean] = GetParam();
  const LognormalFromStats d(median, mean);
  Rng rng(99);
  std::vector<double> samples;
  const int n = 200000;
  samples.reserve(n);
  double sum = 0;
  for (int i = 0; i < n; ++i) {
    samples.push_back(d.sample(rng));
    sum += samples.back();
  }
  std::nth_element(samples.begin(), samples.begin() + n / 2, samples.end());
  EXPECT_NEAR(samples[n / 2] / median, 1.0, 0.05);
  EXPECT_NEAR(sum / n / mean, 1.0, 0.12);  // heavy tails converge slowly
}

INSTANTIATE_TEST_SUITE_P(
    Table3Shapes, LognormalFit,
    ::testing::Values(std::pair{155.3, 868.1},   // NVLink TTF
                      std::pair{586.0, 923.2},   // CUDA TTF
                      std::pair{0.5, 51.9},      // Connection TTF
                      std::pair{2.0, 78.3},      // CUDA TTR
                      std::pair{120.0, 900.0},   // eval durations
                      std::pair{1.0, 1.0}));     // degenerate point mass

TEST(DiscreteDist, SamplesOnlyListedValues) {
  const DiscreteDist d({1, 2, 4, 8}, {1, 1, 1, 1});
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = d.sample(rng);
    EXPECT_TRUE(v == 1 || v == 2 || v == 4 || v == 8);
  }
}

TEST(DiscreteDist, FrequenciesFollowWeights) {
  const DiscreteDist d({10, 20}, {9, 1});
  Rng rng(8);
  int tens = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i)
    if (d.sample(rng) == 10) ++tens;
  EXPECT_NEAR(tens / static_cast<double>(n), 0.9, 0.01);
}

TEST(DiscreteDist, RejectsMismatchedSizes) {
  EXPECT_THROW(DiscreteDist({1, 2}, {1}), std::invalid_argument);
  EXPECT_THROW(DiscreteDist({}, {}), std::invalid_argument);
}

}  // namespace
}  // namespace acme::common
