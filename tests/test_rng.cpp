#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace acme::common {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i)
    if (a.next() == b.next()) ++equal;
  EXPECT_LT(equal, 5);
}

TEST(Rng, ForkIsIndependentOfParentState) {
  Rng a(7);
  Rng child1 = a.fork("stream");
  a.next();
  a.next();
  Rng child2 = a.fork("stream");  // parent advanced, fork must not change
  for (int i = 0; i < 100; ++i) EXPECT_EQ(child1.next(), child2.next());
}

TEST(Rng, ForkLabelsProduceDistinctStreams) {
  Rng a(7);
  Rng x = a.fork("x"), y = a.fork("y");
  int equal = 0;
  for (int i = 0; i < 1000; ++i)
    if (x.next() == y.next()) ++equal;
  EXPECT_LT(equal, 5);
}

// fork() must be a pure function of (seed material, label): any equal-seed
// generator forks the same child stream no matter where the call site is or
// how far the parent has advanced. This is what lets two different modules
// fork "replica-3" and draw identical streams.
TEST(Rng, ForkStableAcrossCallSites) {
  Rng a(1234), b(1234);
  b.next();  // advance one parent only
  Rng from_a = a.fork("replica-3");
  Rng from_b = b.fork("replica-3");
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(from_a.next(), from_b.next());
}

TEST(Rng, NestedForksAreIndependentStreams) {
  Rng root(55);
  Rng child = root.fork("child");
  Rng grandchild = child.fork("child");  // same label, different parent seed
  int equal = 0;
  for (int i = 0; i < 1000; ++i)
    if (child.next() == grandchild.next()) ++equal;
  EXPECT_LT(equal, 5);
}

// fork() from multiple threads on distinct parent copies is race-free (it is
// const and touches only the copy), and every thread reproduces the serial
// fork exactly. Run under TSan by the CI sanitizer job.
TEST(Rng, ForkFromThreadsOnDistinctCopiesMatchesSerial) {
  const Rng parent(777);
  constexpr int kThreads = 8;
  constexpr int kDraws = 256;
  std::vector<std::vector<std::uint64_t>> serial(kThreads), threaded(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    Rng child = parent.fork("thread-" + std::to_string(t));
    for (int i = 0; i < kDraws; ++i) serial[static_cast<std::size_t>(t)].push_back(child.next());
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&threaded, t, copy = parent] {
      Rng child = copy.fork("thread-" + std::to_string(t));
      auto& out = threaded[static_cast<std::size_t>(t)];
      for (int i = 0; i < kDraws; ++i) out.push_back(child.next());
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(serial[static_cast<std::size_t>(t)], threaded[static_cast<std::size_t>(t)]) << "thread " << t;
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(12);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBoundsAndCoverage) {
  Rng rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(2, 9);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 9);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 8u);  // every value hit
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(14);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
  EXPECT_EQ(rng.uniform_int(5, 3), 5);  // inverted range collapses to lo
}

TEST(Rng, NormalMomentsConverge) {
  Rng rng(15);
  double sum = 0, sum2 = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

// normal() feeds trace synthesis and the failure/schedule streams, which the
// determinism digests pin; any change to Box-Muller must fail here first.
TEST(Rng, BoxMullerStreamIsPinned) {
  Rng rng(1);
  const double expected[] = {-0.83274143446567073, -0.81732098111511153,
                             0.52658478393606956,  -1.68811944943972,
                             -0.50599542488861571, 0.36023503068900459};
  for (double want : expected) EXPECT_EQ(rng.normal(), want);
}

// --- Ziggurat normal (monitor noise) ---

constexpr std::size_t kZigDraws = 4'000'000;
// Layer 0's rectangle stops at R; only the tail branch returns |z| > R.
constexpr double kZigR = 3.442619855899;

struct ZigSummary {
  double m1 = 0, m2 = 0, m3 = 0, m4 = 0;  // raw moments
  std::size_t beyond3 = 0, beyond4 = 0, beyond_r = 0;
};

const ZigSummary& zig_summary() {
  static const ZigSummary s = [] {
    ZigSummary z;
    Rng rng(2024);
    for (std::size_t i = 0; i < kZigDraws; ++i) {
      const double x = rng.zig_normal();
      const double x2 = x * x;
      z.m1 += x;
      z.m2 += x2;
      z.m3 += x2 * x;
      z.m4 += x2 * x2;
      const double a = std::fabs(x);
      z.beyond3 += a > 3.0;
      z.beyond4 += a > 4.0;
      z.beyond_r += a > kZigR;
    }
    const double n = static_cast<double>(kZigDraws);
    z.m1 /= n;
    z.m2 /= n;
    z.m3 /= n;
    z.m4 /= n;
    return z;
  }();
  return s;
}

// Expects `hits` within 5 binomial standard deviations of n * p.
void expect_binomial(std::size_t hits, double p, const char* what) {
  const double n = static_cast<double>(kZigDraws);
  const double sd = std::sqrt(n * p * (1 - p));
  EXPECT_NEAR(static_cast<double>(hits), n * p, 5 * sd) << what;
}

TEST(RngZiggurat, MomentsMatchStandardNormal) {
  const ZigSummary& z = zig_summary();
  // Tolerances are ~6 standard errors at 4M draws.
  EXPECT_NEAR(z.m1, 0.0, 0.003);
  EXPECT_NEAR(z.m2, 1.0, 0.004);
  EXPECT_NEAR(z.m3, 0.0, 0.012);
  EXPECT_NEAR(z.m4, 3.0, 0.03);  // kurtosis of a normal
}

TEST(RngZiggurat, TailMassWithinBinomialBounds) {
  const ZigSummary& z = zig_summary();
  expect_binomial(z.beyond3, 0.0026997960632601913, "P(|z| > 3)");
  expect_binomial(z.beyond4, 6.334248366623993e-05, "P(|z| > 4)");
}

TEST(RngZiggurat, TailBranchIsReached) {
  const ZigSummary& z = zig_summary();
  EXPECT_GT(z.beyond_r, 0u);
  expect_binomial(z.beyond_r, 0.0005761085123916405, "P(|z| > R)");
}

TEST(RngZiggurat, SeedEqualStreamsAreIdentical) {
  Rng a(99), b(99), c(100);
  int equal_to_other_seed = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = a.zig_normal();
    EXPECT_EQ(x, b.zig_normal());
    if (x == c.zig_normal()) ++equal_to_other_seed;
  }
  EXPECT_LT(equal_to_other_seed, 5);
  // The streams stay in lockstep for the raw generator afterwards too.
  EXPECT_EQ(a.next(), b.next());
}

TEST(RngZiggurat, MeanStddevOverloadScales) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i)
    EXPECT_DOUBLE_EQ(a.zig_normal(10.0, 2.5), 10.0 + 2.5 * b.zig_normal());
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(16);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(0.25);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(18);
  std::vector<double> weights{1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.categorical(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.01);
}

TEST(Rng, CategoricalZeroWeightNeverPicked) {
  Rng rng(19);
  std::vector<double> weights{0.0, 1.0, 0.0};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(rng.categorical(weights), 1u);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(20);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

// Property: lognormal(mu, 0) degenerates to exp(mu).
TEST(Rng, LognormalZeroSigmaIsDeterministic) {
  Rng rng(21);
  for (int i = 0; i < 100; ++i)
    EXPECT_DOUBLE_EQ(rng.lognormal(std::log(42.0), 0.0), 42.0);
}

class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, UniformMeanNearHalf) {
  Rng rng(GetParam());
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST_P(RngSeedSweep, NextIsNotConstant) {
  Rng rng(GetParam());
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 64; ++i) seen.insert(rng.next());
  EXPECT_EQ(seen.size(), 64u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ULL, 1ULL, 42ULL, 0xdeadbeefULL,
                                           0xffffffffffffffffULL));

}  // namespace
}  // namespace acme::common
