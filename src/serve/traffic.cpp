#include "serve/traffic.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace acme::serve {

double TrafficProfile::rate_norm() const {
  // Long-run rate = norm * ((1 - f) + f * multiplier) * mean; solve for norm.
  const double f = burst_fraction;
  return 1.0 / ((1.0 - f) + f * burst_multiplier);
}

double TrafficProfile::peak_rps() const {
  return mean_rps * rate_norm() * (1.0 + diurnal_amplitude) * burst_multiplier;
}

ArrivalProcess::ArrivalProcess(TrafficProfile profile, std::uint64_t seed)
    : profile_(profile),
      rng_(common::Rng(seed).fork("serve-arrivals")),
      state_rng_(common::Rng(seed).fork("serve-mmpp")) {
  ACME_CHECK_MSG(profile_.mean_rps >= 0, "negative request rate");
  ACME_CHECK_MSG(
      profile_.diurnal_amplitude >= 0 && profile_.diurnal_amplitude <= 1,
      "diurnal amplitude must be in [0, 1]");
  ACME_CHECK_MSG(profile_.burst_multiplier >= 1, "burst multiplier must be >= 1");
  ACME_CHECK_MSG(profile_.burst_fraction >= 0 && profile_.burst_fraction < 1,
                 "burst fraction must be in [0, 1)");
  ACME_CHECK_MSG(profile_.diurnal_period_seconds > 0, "diurnal period must be > 0");
  norm_ = profile_.rate_norm();
  peak_ = profile_.peak_rps();
  // Same operation order as rate_at with sin() at -1 and +1. Rounding is
  // monotone on these non-negative operands, so lo_ <= rate_at(t) <= hi_
  // holds exactly in each MMPP state.
  const double base = profile_.mean_rps * norm_;
  lo_[0] = base * (1.0 - profile_.diurnal_amplitude);
  hi_[0] = base * (1.0 + profile_.diurnal_amplitude);
  lo_[1] = lo_[0] * profile_.burst_multiplier;
  hi_[1] = hi_[0] * profile_.burst_multiplier;
}

void ArrivalProcess::advance_state(double t) {
  const bool bursty =
      profile_.burst_fraction > 0 && profile_.burst_multiplier > 1;
  if (!bursty) return;
  const double burst_dwell = std::max(profile_.burst_dwell_seconds, 1e-9);
  const double base_dwell =
      burst_dwell * (1.0 - profile_.burst_fraction) / profile_.burst_fraction;
  while (state_until_ <= t) {
    burst_ = !burst_;
    state_until_ +=
        state_rng_.exponential(1.0 / (burst_ ? burst_dwell : base_dwell));
  }
}

double ArrivalProcess::rate_at(double t) {
  advance_state(t);
  const double diurnal =
      1.0 + profile_.diurnal_amplitude *
                std::sin(2.0 * M_PI * t / profile_.diurnal_period_seconds);
  double rate = profile_.mean_rps * norm_ * diurnal;
  if (burst_) rate *= profile_.burst_multiplier;
  return rate;
}

double ArrivalProcess::next_interarrival(double now) {
  if (profile_.mean_rps <= 0 || peak_ <= 0)
    return std::numeric_limits<double>::infinity();
  double t = now;
  for (;;) {
    t += rng_.exponential(peak_);
    // Thinning with a squeeze: the rate envelope of the current MMPP state
    // settles most candidates without evaluating sin(). The thinning and
    // MMPP streams are separate, so the decisions and both streams' draws
    // are exactly those of the plain test u <= rate_at(t).
    const double u = rng_.uniform() * peak_;
    advance_state(t);
    if (u <= lo_[burst_]) return t - now;
    if (u > hi_[burst_]) continue;
    if (u <= rate_at(t)) return t - now;
  }
}

RequestSample ArrivalProcess::sample_request() {
  const auto clamp_tokens = [&](double mean, std::int32_t lo) {
    const double drawn = rng_.exponential(1.0 / std::max(mean, 1.0));
    const double v = std::min(drawn, static_cast<double>(profile_.max_tokens));
    return std::max(lo, static_cast<std::int32_t>(v));
  };
  RequestSample s;
  s.prompt_tokens = clamp_tokens(profile_.prompt_tokens_mean, 1);
  s.output_tokens = clamp_tokens(profile_.output_tokens_mean, 2);
  return s;
}

}  // namespace acme::serve
