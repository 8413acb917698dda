// Statistics accumulators used by the characterization benches: streaming
// moments, quantiles/CDFs from retained samples, histograms and boxplot
// five-number summaries (Fig 5).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

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
