#include "common/dist.h"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace acme::common {

LognormalFromStats::LognormalFromStats(double median, double mean) {
  if (median <= 0) throw std::invalid_argument("LognormalFromStats: median must be > 0");
  mu_ = std::log(median);
  const double ratio = mean / median;
  sigma_ = ratio > 1.0 ? std::sqrt(2.0 * std::log(ratio)) : 0.0;
}

double LognormalFromStats::sample(Rng& rng) const { return rng.lognormal(mu_, sigma_); }

double LognormalFromStats::median() const { return std::exp(mu_); }

double LognormalFromStats::mean() const { return std::exp(mu_ + sigma_ * sigma_ / 2.0); }

DiscreteDist::DiscreteDist(std::vector<double> values, std::vector<double> weights)
    : values_(std::move(values)), weights_(std::move(weights)) {
  if (values_.empty() || values_.size() != weights_.size())
    throw std::invalid_argument("DiscreteDist: values/weights size mismatch");
}

double DiscreteDist::sample(Rng& rng) const { return values_[rng.categorical(weights_)]; }

}  // namespace acme::common
