// Parametric distributions fitted from published summary statistics.
//
// The paper reports medians and means (Table 3, §3.1 durations). A lognormal
// is uniquely determined by a (median, mean) pair with mean >= median:
//   median = exp(mu)          => mu    = ln(median)
//   mean   = exp(mu + s^2/2)  => sigma = sqrt(2 ln(mean / median))
// This lets every sampler in the workload synthesizer and failure injector be
// derived from numbers printed in the paper rather than invented.
#pragma once

#include <vector>

#include "common/rng.h"

namespace acme::common {

// Lognormal distribution parameterised directly by its median and mean.
class LognormalFromStats {
 public:
  // Requires median > 0 and mean >= median. If mean < median (impossible for
  // a lognormal; occurs in noisy table rows), sigma collapses to 0 and the
  // distribution degenerates to the median.
  LognormalFromStats(double median, double mean);

  double sample(Rng& rng) const;
  double median() const;
  double mean() const;
  double mu() const { return mu_; }
  double sigma() const { return sigma_; }

 private:
  double mu_;
  double sigma_;
};

// A discrete empirical distribution: sample one of the listed values with the
// paired weights. Used for GPU-demand distributions where the paper pins the
// mass at powers of two.
class DiscreteDist {
 public:
  DiscreteDist(std::vector<double> values, std::vector<double> weights);
  double sample(Rng& rng) const;
  const std::vector<double>& values() const { return values_; }
  const std::vector<double>& weights() const { return weights_; }

 private:
  std::vector<double> values_;
  std::vector<double> weights_;
};

}  // namespace acme::common
