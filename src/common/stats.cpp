#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace acme::common {

void StreamingStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void StreamingStats::merge(const StreamingStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  mean_ += delta * nb / (na + nb);
  m2_ += other.m2_ + delta * delta * na * nb / (na + nb);
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double StreamingStats::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double StreamingStats::sample_variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double StreamingStats::stddev() const { return std::sqrt(variance()); }

LatencyHistogram::LatencyHistogram() : counts_(kBuckets, 0) {}

double LatencyHistogram::bucket_midpoint(std::size_t i) {
  const double lo = std::bit_cast<double>((i + kBitsBase) << 46);
  const double hi = std::bit_cast<double>((i + 1 + kBitsBase) << 46);
  return 0.5 * (lo + hi);
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_ - 1);
  const auto rank = static_cast<std::uint64_t>(pos);
  std::uint64_t seen = 0;
  for (std::size_t i = first_nonzero(); i < kBuckets; ++i) {
    seen += counts_[i];
    if (seen > rank) return bucket_midpoint(i);
  }
  return bucket_midpoint(kBuckets - 1);  // unreachable: seen ends at count_
}

std::size_t LatencyHistogram::first_nonzero() const {
  std::size_t i = 0;
  while (i < kBuckets && counts_[i] == 0) ++i;
  return i;
}

std::size_t LatencyHistogram::end_nonzero() const {
  std::size_t i = kBuckets;
  while (i > 0 && counts_[i - 1] == 0) --i;
  return i;
}

void LatencyHistogram::set_state(std::uint64_t count, double sum,
                                 std::size_t first,
                                 const std::vector<std::uint64_t>& span) {
  ACME_CHECK_MSG(first <= kBuckets && span.size() <= kBuckets - first,
                 "latency histogram bucket span out of range");
  ACME_CHECK_MSG(std::accumulate(span.begin(), span.end(), std::uint64_t{0}) ==
                     count,
                 "latency histogram bucket counts do not sum to its count");
  ACME_CHECK_MSG(sum >= 0.0 && sum <= std::numeric_limits<double>::max(),
                 "latency histogram sum must be finite and non-negative");
  std::fill(counts_.begin(), counts_.end(), 0);
  std::copy(span.begin(), span.end(),
            counts_.begin() + static_cast<std::ptrdiff_t>(first));
  count_ = count;
  sum_ = sum;
}

void SampleStats::add(double x) {
  values_.push_back(x);
  if (weighted_) weights_.push_back(1.0);
  weight_sum_ += 1.0;
  sorted_ = false;
}

void SampleStats::reserve(std::size_t n) {
  values_.reserve(n);
  if (weighted_) weights_.reserve(n);
}

void SampleStats::add_weighted(double x, double weight) {
  if (!weighted_) {
    weights_.assign(values_.size(), 1.0);
    weighted_ = true;
  }
  values_.push_back(x);
  weights_.push_back(weight);
  weight_sum_ += weight;
  sorted_ = false;
}

void SampleStats::ensure_sorted() const {
  if (sorted_) return;
  if (!weighted_) {
    std::sort(values_.begin(), values_.end());
  } else {
    std::vector<std::size_t> idx(values_.size());
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    std::sort(idx.begin(), idx.end(),
              [&](std::size_t a, std::size_t b) { return values_[a] < values_[b]; });
    std::vector<double> v(values_.size()), w(values_.size());
    for (std::size_t i = 0; i < idx.size(); ++i) {
      v[i] = values_[idx[i]];
      w[i] = weights_[idx[i]];
    }
    values_ = std::move(v);
    weights_ = std::move(w);
  }
  sorted_ = true;
}

double SampleStats::mean() const {
  if (values_.empty()) return 0.0;
  if (!weighted_)
    return std::accumulate(values_.begin(), values_.end(), 0.0) /
           static_cast<double>(values_.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < values_.size(); ++i) acc += values_[i] * weights_[i];
  return weight_sum_ > 0 ? acc / weight_sum_ : 0.0;
}

double SampleStats::sum() const {
  if (!weighted_) return std::accumulate(values_.begin(), values_.end(), 0.0);
  double acc = 0.0;
  for (std::size_t i = 0; i < values_.size(); ++i) acc += values_[i] * weights_[i];
  return acc;
}

double SampleStats::min() const {
  if (values_.empty()) return 0.0;
  return *std::min_element(values_.begin(), values_.end());
}

double SampleStats::max() const {
  if (values_.empty()) return 0.0;
  return *std::max_element(values_.begin(), values_.end());
}

double SampleStats::quantile(double q) const {
  if (values_.empty()) return 0.0;
  ensure_sorted();
  q = std::clamp(q, 0.0, 1.0);
  if (!weighted_) {
    const double pos = q * static_cast<double>(values_.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values_.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values_[lo] * (1.0 - frac) + values_[hi] * frac;
  }
  // Weighted quantile: first value whose cumulative weight reaches q.
  const double target = q * weight_sum_;
  double acc = 0.0;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    acc += weights_[i];
    if (acc >= target) return values_[i];
  }
  return values_.back();
}

double SampleStats::cdf(double x) const {
  if (values_.empty()) return 0.0;
  ensure_sorted();
  if (!weighted_) {
    const auto it = std::upper_bound(values_.begin(), values_.end(), x);
    return static_cast<double>(it - values_.begin()) /
           static_cast<double>(values_.size());
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < values_.size() && values_[i] <= x; ++i) acc += weights_[i];
  return weight_sum_ > 0 ? acc / weight_sum_ : 0.0;
}

std::vector<double> SampleStats::cdf_curve(const std::vector<double>& xs) const {
  std::vector<double> out;
  out.reserve(xs.size());
  for (double x : xs) out.push_back(cdf(x));
  return out;
}

BoxplotStats BoxplotStats::from(const SampleStats& s) {
  BoxplotStats b;
  if (s.empty()) return b;
  b.q1 = s.quantile(0.25);
  b.median = s.quantile(0.5);
  b.q3 = s.quantile(0.75);
  const double iqr = b.q3 - b.q1;
  const double lo_fence = b.q1 - 1.5 * iqr;
  const double hi_fence = b.q3 + 1.5 * iqr;
  // Whiskers extend to the most extreme sample inside the fences.
  b.whisker_lo = b.q3;
  b.whisker_hi = b.q1;
  bool any_lo = false, any_hi = false;
  for (double v : s.values()) {
    if (v >= lo_fence && (!any_lo || v < b.whisker_lo)) {
      b.whisker_lo = v;
      any_lo = true;
    }
    if (v <= hi_fence && (!any_hi || v > b.whisker_hi)) {
      b.whisker_hi = v;
      any_hi = true;
    }
  }
  if (!any_lo) b.whisker_lo = b.q1;
  if (!any_hi) b.whisker_hi = b.q3;
  return b;
}

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo), hi_(hi) {
  if (!(hi > lo) || bins == 0) throw std::invalid_argument("Histogram: bad range/bins");
  counts_.assign(bins, 0.0);
}

void Histogram::add(double x, double weight) {
  const double span = hi_ - lo_;
  auto idx = static_cast<std::ptrdiff_t>((x - lo_) / span *
                                         static_cast<double>(counts_.size()));
  idx = std::clamp<std::ptrdiff_t>(idx, 0,
                                   static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  counts_[static_cast<std::size_t>(idx)] += weight;
  total_ += weight;
}

double Histogram::bin_lo(std::size_t i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i) / static_cast<double>(counts_.size());
}

double Histogram::bin_hi(std::size_t i) const { return bin_lo(i + 1); }

double Histogram::fraction(std::size_t i) const {
  return total_ > 0 ? counts_[i] / total_ : 0.0;
}

double t_critical_95(std::size_t df) {
  // Two-sided 95% (i.e. t_{0.975}); exact to three decimals for df <= 30,
  // then the usual coarse steps down to the normal asymptote.
  static constexpr double kTable[] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  if (df == 0) return 0.0;
  if (df <= 30) return kTable[df - 1];
  if (df <= 40) return 2.021;
  if (df <= 60) return 2.000;
  if (df <= 120) return 1.980;
  return 1.960;
}

double ci95_halfwidth(const StreamingStats& s) {
  if (s.count() < 2) return 0.0;
  const double se =
      std::sqrt(s.sample_variance() / static_cast<double>(s.count()));
  return t_critical_95(s.count() - 1) * se;
}

std::vector<double> log_space(double lo, double hi, std::size_t n) {
  if (!(lo > 0) || !(hi > lo) || n < 2)
    throw std::invalid_argument("log_space: need 0<lo<hi, n>=2");
  std::vector<double> out(n);
  const double llo = std::log(lo), lhi = std::log(hi);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = std::exp(llo + (lhi - llo) * static_cast<double>(i) /
                                static_cast<double>(n - 1));
  return out;
}

std::vector<double> lin_space(double lo, double hi, std::size_t n) {
  if (n < 2) throw std::invalid_argument("lin_space: n>=2");
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(n - 1);
  return out;
}

}  // namespace acme::common
