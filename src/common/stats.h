// Statistics accumulators used by the characterization benches: streaming
// moments, quantiles/CDFs from retained samples, log-linear latency
// histograms, fixed-bin histograms and boxplot five-number summaries (Fig 5).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/check.h"

namespace acme::common {

// Welford streaming mean/variance with min/max. O(1) memory; used for fleet
// metrics where retaining every sample would be wasteful.
class StreamingStats {
 public:
  void add(double x);
  // Folds another accumulator in (Chan et al. pairwise update), as if every
  // sample of `other` had been added here. Used to combine per-replica /
  // per-shard accumulators after a parallel phase.
  void merge(const StreamingStats& other);
  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  // population variance
  // Unbiased (n-1) variance, the one confidence intervals want; 0 for n < 2.
  double sample_variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  // Snapshot support (acme::snap): the full accumulator state as a POD, so a
  // restored accumulator continues the stream bit-identically.
  struct State {
    std::uint64_t n = 0;
    double mean = 0, m2 = 0, min = 0, max = 0, sum = 0;
  };
  State state() const { return State{n_, mean_, m2_, min_, max_, sum_}; }
  void set_state(const State& s) {
    n_ = static_cast<std::size_t>(s.n);
    mean_ = s.mean;
    m2_ = s.m2;
    min_ = s.min;
    max_ = s.max;
    sum_ = s.sum;
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Retains samples; supports exact quantiles and CDF evaluation. The traces we
// synthesize are ~1M rows, which comfortably fits in memory.
class SampleStats {
 public:
  void add(double x);
  void add_weighted(double x, double weight);
  // Presizes for `n` samples so a known-length fill never regrows.
  void reserve(std::size_t n);
  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double mean() const;
  double sum() const;
  double min() const;
  double max() const;
  // q in [0, 1]; linear interpolation between order statistics.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  // Fraction of mass with value <= x (weighted if weights were supplied).
  double cdf(double x) const;
  // Evaluates the CDF at each of the given points.
  std::vector<double> cdf_curve(const std::vector<double>& xs) const;
  const std::vector<double>& values() const { return values_; }

 private:
  void ensure_sorted() const;
  mutable std::vector<double> values_;
  mutable std::vector<double> weights_;
  mutable bool sorted_ = true;
  mutable bool weighted_ = false;
  double weight_sum_ = 0.0;
};

// Log-linear latency histogram for the serve spine's per-request TTFT, TPOT
// and end-to-end latencies. A bucket is read straight off the IEEE-754 bits
// of the value: the exponent plus the top 6 mantissa bits, i.e. 64 linear
// sub-buckets per octave over [2^-24, 2^24) seconds (3072 buckets, 24 KB,
// allocated at construction). Values below or above that range are counted
// in the first or last bucket. add() is O(1) and allocation-free.
//
// Error bound: quantile(q) returns the linear midpoint of the bucket holding
// the order statistic of rank floor(q * (n - 1)). A bucket [lo, hi) has
// hi - lo <= lo / 64, so for an in-range order statistic x the answer is
// within (hi - lo) / 2 <= x / 128, a relative error <= 2^-7 (~0.8%).
// Counts are order-independent, so quantiles do not depend on the order in
// which samples arrive; sum() (and so the mean) is accumulated in add order.
class LatencyHistogram {
 public:
  static constexpr int kMinExponent = -24;
  static constexpr int kMaxExponent = 24;
  static constexpr int kSubBucketBits = 6;
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxExponent - kMinExponent)
      << kSubBucketBits;

  LatencyHistogram();

  // Rejects (ACME_CHECK) negative, NaN and infinite samples.
  void add(double x) {
    ACME_CHECK_MSG(x >= 0.0 && x <= std::numeric_limits<double>::max(),
                   "latency sample must be finite and non-negative");
    ++counts_[bucket(x)];
    ++count_;
    sum_ += x;
  }

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  // q in [0, 1]; 0 when empty. See the error bound above.
  double quantile(double q) const;

  // Bucket of x: the edge buckets absorb everything outside the range
  // (0, subnormals and values >= 2^24 included).
  static std::size_t bucket(double x) {
    if (x < 0x1p-24) return 0;
    if (x >= 0x1p24) return kBuckets - 1;
    return static_cast<std::size_t>((std::bit_cast<std::uint64_t>(x) >> 46) -
                                    kBitsBase);
  }
  // Linear midpoint of bucket i's [lower, upper) value range.
  static double bucket_midpoint(std::size_t i);

  // Snapshot support (acme::snap): the nonzero bucket span [first, end) and
  // its counts. set_state() validates the span against count before
  // adopting it, so a restored histogram continues the stream exactly.
  std::size_t first_nonzero() const;
  std::size_t end_nonzero() const;
  const std::vector<std::uint64_t>& buckets() const { return counts_; }
  void set_state(std::uint64_t count, double sum, std::size_t first,
                 const std::vector<std::uint64_t>& span);

 private:
  // IEEE-754 bits >> 46 of 2^kMinExponent: biased exponent, 6 zero bits.
  static constexpr std::uint64_t kBitsBase =
      static_cast<std::uint64_t>(1023 + kMinExponent) << kSubBucketBits;

  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

// Five-number summary with 1.5x IQR whiskers, as drawn in the paper's Fig 5.
struct BoxplotStats {
  double whisker_lo = 0;
  double q1 = 0;
  double median = 0;
  double q3 = 0;
  double whisker_hi = 0;
  static BoxplotStats from(const SampleStats& s);
};

// Fixed-bin histogram over [lo, hi]; out-of-range samples clamp to edge bins.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);
  void add(double x, double weight = 1.0);
  std::size_t bins() const { return counts_.size(); }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;
  double count(std::size_t i) const { return counts_[i]; }
  double total() const { return total_; }
  // Fraction of mass in bin i.
  double fraction(std::size_t i) const;

 private:
  double lo_, hi_;
  std::vector<double> counts_;
  double total_ = 0.0;
};

// Two-sided Student-t critical value at 95% confidence for `df` degrees of
// freedom (table for small df, 1.96 asymptote).
double t_critical_95(std::size_t df);
// Half-width of the t-based 95% confidence interval of the mean of the
// accumulated samples: t * s / sqrt(n). Zero until two samples are present.
double ci95_halfwidth(const StreamingStats& s);

// Log-spaced points between lo and hi (inclusive), for CDF x-axes that the
// paper plots on log scale (durations, queuing delays).
std::vector<double> log_space(double lo, double hi, std::size_t n);
// Linearly spaced points.
std::vector<double> lin_space(double lo, double hi, std::size_t n);

}  // namespace acme::common
